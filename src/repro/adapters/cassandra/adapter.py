"""The Cassandra adapter (Section 6's worked pushdown example).

Reproduces the paper's rules verbatim, as the ``push_filter`` and
``push_sort`` hooks of :class:`CassandraSchema` that the planner rules
are generated from:

* a ``LogicalFilter`` restricting the partition key is rewritten to a
  ``CassandraFilter`` "to ensure the partition filter is pushed down to
  the database";
* a rule to push a Sort into Cassandra "must check two conditions:
  (1) the table has been previously filtered to a single partition
  (since rows are only sorted within a partition) and (2) the sorting
  of partitions in Cassandra has some common prefix with the required
  sort."

The pushed query renders as CQL (Table 2's target language).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...core.cost import RelOptCost
from ...core.rel import Filter, LogicalFilter, LogicalTableScan, RelNode, Sort
from ...core.rex import RexNode, SqlKind, compose_conjunction
from ...core.traits import Convention, RelCollation, RelFieldCollation, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ..capability import ScanCapabilities, split_comparisons
from ..pushdown import PushdownSchema
from .store import CassandraStore, CassandraTableDef

_F = DEFAULT_TYPE_FACTORY

CASSANDRA = Convention("cassandra")

#: partition-key filters, clustering sorts and limits render into CQL;
#: partitioned scans use the generic client-side hash-mod fallback
#: (rows are plain tuples), not a server-side token-range split.
_CASSANDRA_CAPABILITIES = ScanCapabilities(
    supports_partitioned_scan=True,
    partition_scheme="hash-mod",
    pushable_ops=frozenset({"filter", "sort", "limit"}),
)


class CassandraTable(Table):
    def __init__(self, store: CassandraStore, table_def: CassandraTableDef,
                 field_types) -> None:
        row_type = _F.struct(table_def.columns, field_types)
        super().__init__(table_def.name, row_type,
                         Statistic(row_count=float(table_def.row_count)))
        self.store = store
        self.table_def = table_def

    def scan(self):
        for partition in self.table_def.partitions.values():
            for row in partition:
                self.store.rows_read += 1
                yield row

    def capabilities(self) -> ScanCapabilities:
        return _CASSANDRA_CAPABILITIES


class CassandraQuery(RelNode):
    """A pushed-down CQL query: partition filter + clustering ranges +
    optional ORDER BY (free, delivered by clustering order) + LIMIT."""

    def __init__(self, table: CassandraTable,
                 partition_filter: Optional[Dict[str, Any]] = None,
                 clustering_ranges: Tuple = (),
                 order_fields: Tuple[Tuple[str, bool], ...] = (),
                 limit: Optional[int] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        if traits is None:
            collation = _collation_for(table, order_fields)
            traits = RelTraitSet(CASSANDRA, collation)
        super().__init__([], traits)
        self.cass_table = table
        self.partition_filter = dict(partition_filter or {}) or None
        self.clustering_ranges = tuple(clustering_ranges)
        self.order_fields = tuple(order_fields)
        self.limit = limit

    def derive_row_type(self) -> RelDataType:
        return self.cass_table.row_type

    def attr_digest(self) -> str:
        return self.cql()

    def copy(self, inputs=None, traits=None) -> "CassandraQuery":
        return CassandraQuery(self.cass_table, self.partition_filter,
                              self.clustering_ranges, self.order_fields,
                              self.limit, traits or self.traits)

    @property
    def filters_single_partition(self) -> bool:
        """Precondition (1) of the paper's CassandraSortRule."""
        if self.partition_filter is None:
            return False
        return all(k in self.partition_filter
                   for k in self.cass_table.table_def.partition_keys)

    def cql(self) -> str:
        """Render as CQL — Table 2's target language for Cassandra."""
        parts = [f"SELECT * FROM {self.cass_table.name}"]
        conditions = []
        if self.partition_filter:
            for column, value in self.partition_filter.items():
                rendered = f"'{value}'" if isinstance(value, str) else value
                conditions.append(f"{column} = {rendered}")
        for column, op, value in self.clustering_ranges:
            rendered = f"'{value}'" if isinstance(value, str) else value
            conditions.append(f"{column} {op} {rendered}")
        if conditions:
            parts.append("WHERE " + " AND ".join(conditions))
        if self.order_fields:
            keys = ", ".join(f"{c} DESC" if desc else f"{c} ASC"
                             for c, desc in self.order_fields)
            parts.append(f"ORDER BY {keys}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.partition_filter is None:
            parts.append("ALLOW FILTERING")
        return " ".join(parts)

    def execute_rows(self, ctx):
        rows = self.cass_table.store.query(
            self.cass_table.name, self.partition_filter,
            list(self.clustering_ranges), self.limit)
        # Descending clustering order is served by reading in reverse.
        if self.order_fields and any(desc for _c, desc in self.order_fields):
            rows = rows[::-1]
        return rows

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        if self.partition_filter is None:
            # full-cluster scans are heavily penalised, as in Cassandra
            return RelOptCost(rows, rows * 2.0, rows * 64.0)
        return RelOptCost(rows, rows * 0.1, rows * 8.0)

    def estimate_row_count(self, mq) -> float:
        base = self.cass_table.statistic.row_count
        if self.partition_filter is not None:
            n_partitions = max(len(self.cass_table.table_def.partitions), 1)
            base = base / n_partitions
        base *= 0.5 ** len(self.clustering_ranges)
        if self.limit is not None:
            base = min(base, float(self.limit))
        return max(base, 1.0)

    def explain_terms(self):
        return [("cql", self.cql())]


def _collation_for(table: CassandraTable,
                   order_fields: Tuple[Tuple[str, bool], ...]) -> RelCollation:
    if not order_fields:
        return RelCollation.EMPTY
    names = list(table.row_type.field_names)
    return RelCollation([
        RelFieldCollation(names.index(c), desc) for c, desc in order_fields])


_CQL_OPS = {SqlKind.EQUALS: "=", SqlKind.LESS_THAN: "<",
            SqlKind.LESS_THAN_OR_EQUAL: "<=",
            SqlKind.GREATER_THAN: ">",
            SqlKind.GREATER_THAN_OR_EQUAL: ">="}


def _split_filter(condition: RexNode, query: CassandraQuery):
    """Split the predicate into (partition equality, clustering
    ranges, residual conjuncts) — non-key comparisons stay client
    side as a residual filter, a *partial* pushdown."""
    table_def = query.cass_table.table_def
    names = list(query.cass_table.row_type.field_names)
    comparisons, residual = split_comparisons(condition)
    partition: Dict[str, Any] = {}
    ranges: List[Tuple[str, str, Any]] = []
    for comp in comparisons:
        column = names[comp.field]
        if column in table_def.partition_keys and comp.kind is SqlKind.EQUALS:
            partition[column] = comp.value
        elif column in table_def.clustering_keys and comp.kind in _CQL_OPS:
            ranges.append((column, _CQL_OPS[comp.kind], comp.value))
        else:
            residual.append(comp.rex)
    return partition, ranges, residual


class CassandraSchema(PushdownSchema):
    query_class = CassandraQuery
    capabilities = _CASSANDRA_CAPABILITIES
    #: a pushed ORDER BY is served by clustering order
    keeps_order = True

    def __init__(self, name: str, store: CassandraStore) -> None:
        super().__init__(name, CASSANDRA)
        self.store = store

    def add_cassandra_table(self, name: str, field_names, field_types,
                            partition_keys, clustering_keys,
                            rows=None) -> CassandraTable:
        table_def = self.store.create_table(
            name, field_names, partition_keys, clustering_keys)
        for row in rows or []:
            table_def.insert(row)
        table = CassandraTable(self.store, table_def, field_types)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[CassandraQuery]:
        source = scan.table.source
        if not isinstance(source, CassandraTable) or source.store is not self.store:
            return None
        return CassandraQuery(source)

    def owns(self, query: CassandraQuery) -> bool:
        return query.cass_table.store is self.store

    def push_filter(self, filter_: Filter,
                    query: CassandraQuery) -> Optional[RelNode]:
        """LogicalFilter → CassandraFilter: partition-key equality plus
        clustering-key ranges push into CQL, only once the partition
        key is fully restricted (Cassandra's requirement)."""
        if (query.partition_filter is not None or query.order_fields
                or query.clustering_ranges):
            return None
        partition, ranges, residual = _split_filter(filter_.condition, query)
        partition_keys = query.cass_table.table_def.partition_keys
        if not partition or any(k not in partition for k in partition_keys):
            return None
        pushed = CassandraQuery(query.cass_table, partition, tuple(ranges))
        rest = compose_conjunction(residual)
        if rest is None:
            return pushed
        # The residual runs client-side: a *logical* filter over the
        # pushed query (otherwise it would inherit the cassandra
        # convention and no engine could implement it).
        return LogicalFilter(pushed, rest, RelTraitSet(Convention.NONE))

    def push_sort(self, sort: Sort,
                  query: CassandraQuery) -> Optional[CassandraQuery]:
        """LogicalSort → CassandraSort under the paper's two conditions."""
        # Condition (1): filtered to a single partition.
        if not query.filters_single_partition:
            return None
        # Condition (2): required sort shares a prefix with the
        # clustering (partition-internal) order.
        names = list(query.cass_table.row_type.field_names)
        clustering = query.cass_table.table_def.clustering_keys
        fcs = sort.collation.field_collations
        if len(fcs) > len(clustering):
            return None
        if len({fc.descending for fc in fcs}) > 1:
            return None  # must be uniformly ASC or DESC
        if any(names[fc.field_index] != cluster_col
               for fc, cluster_col in zip(fcs, clustering)):
            return None
        order_fields = tuple((names[fc.field_index], fc.descending)
                             for fc in fcs)
        return CassandraQuery(query.cass_table, query.partition_filter,
                              query.clustering_ranges, order_fields, sort.fetch)

    def push_limit(self, sort: Sort,
                   query: CassandraQuery) -> Optional[CassandraQuery]:
        """A bare LIMIT (no re-sort needed)."""
        if sort.offset is not None or sort.fetch is None or query.limit is not None:
            return None
        return CassandraQuery(query.cass_table, query.partition_filter,
                              query.clustering_ranges, query.order_fields,
                              sort.fetch)
