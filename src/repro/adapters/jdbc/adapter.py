"""The JDBC adapter (Section 5, Table 2: "SQL (multiple dialects)").

Operators pushed into the ``jdbc-<name>`` calling convention accumulate
inside a single :class:`JdbcQuery` leaf.  At execution time the
adapter's converter renders the accumulated operator tree as SQL text
in the backend's dialect (MySQL, PostgreSQL, …) and ships it to the
backend database — here the in-process :class:`~..jdbc.minidb.MiniDb`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...core.cost import RelOptCost
from ...core.rel import (
    Aggregate,
    Filter,
    Join,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    Project,
    RelNode,
    Sort,
    TableScan,
)
from ...core.rex import (
    EQUALS,
    MOD,
    RexCall,
    RexInputRef,
    RexNode,
    RexOver,
    RexSubQuery,
    RexVisitor,
    contains_over,
    literal,
)
from ...core.traits import Convention, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ...sql.dialect import dialect_for
from ...sql.unparser import RelToSqlConverter
from ..capability import HASH, ScanCapabilities
from ..pushdown import PushdownSchema
from .minidb import MiniDb

_F = DEFAULT_TYPE_FACTORY

#: SQL backends evaluate arbitrary scalar predicates, so they can both
#: push every pipeline stage and filter partition predicates
#: (``MOD(HASH(keys), n) = i``) server-side.
_JDBC_CAPABILITIES = ScanCapabilities(
    supports_partitioned_scan=True,
    partition_scheme="hash-mod",
    pushable_ops=frozenset(
        {"filter", "project", "sort", "limit", "aggregate", "join"}),
)


class JdbcTable(Table):
    """A table living in the remote SQL database."""

    def __init__(self, db: MiniDb, name: str, row_type: RelDataType,
                 statistic: Optional[Statistic] = None) -> None:
        super().__init__(name, row_type, statistic)
        self.db = db

    def capabilities(self) -> ScanCapabilities:
        return _JDBC_CAPABILITIES

    def scan(self):
        """Fallback full scan (enumerable convention)."""
        table = self.db.table(self.name)
        for row in table.rows:
            self.db.rows_read += 1
            yield tuple(row)


class JdbcQuery(RelNode):
    """A leaf operator standing for a query shipped to the backend.

    ``inner`` is a logical operator tree over the backend's tables; it
    grows as push rules absorb filters, projects, sorts, aggregates and
    same-source joins.  ``sql()`` renders it in the backend dialect.
    """

    def __init__(self, schema: JdbcSchema, inner: RelNode,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([], traits or RelTraitSet(schema.convention))
        self.schema = schema
        self.inner = inner
        #: generic hook: metadata questions delegate to the inner tree
        self.metadata_rel = inner

    def derive_row_type(self) -> RelDataType:
        return self.inner.row_type

    def attr_digest(self) -> str:
        return f"jdbc:{self.inner.digest}"

    def copy(self, inputs=None, traits=None) -> "JdbcQuery":
        return JdbcQuery(self.schema, self.inner, traits or self.traits)

    def sql(self, parameters: Optional[Sequence] = None) -> str:
        """The query text; with ``parameters``, every pushed ``?`` is
        rendered as the value bound to its index."""
        return RelToSqlConverter(self.schema.dialect,
                                 parameters).convert(self.inner)

    def execute_rows(self, ctx):
        _, rows = self.schema.db.execute(self.sql(ctx.parameters))
        return rows

    def compute_self_cost(self, mq) -> RelOptCost:
        # The backend runs the pushed work; Calcite only pays transfer of
        # the result rows, which is what makes pushdown plans win.
        rows = mq.row_count(self.inner)
        return RelOptCost(rows, rows * 0.1, rows * mq.average_row_size(self.inner) * 0.1)

    def estimate_row_count(self, mq) -> float:
        return mq.row_count(self.inner)

    def explain_terms(self):
        return [("sql", self.sql())]

    # -- partition pushdown (the capability interface's scan_partition,
    #    lifted to an accumulated query) --------------------------------

    def can_partition(self, keys: Sequence[int]) -> bool:
        """Whether ``MOD(HASH(keys), n) = i`` can be pushed into this
        query's WHERE clause.  Sort-topped inners are blocked (a
        partition filter under a LIMIT changes which rows survive) and
        aggregate-topped inners too (the groups, not the source rows,
        would be partitioned)."""
        return _partitioned_inner(self.inner, tuple(keys), 0, 2) is not None

    def with_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> "JdbcQuery":
        """This query restricted to one partition, server-side."""
        inner = _partitioned_inner(self.inner, tuple(keys), partition_id,
                                   n_partitions)
        if inner is None:  # pragma: no cover - guarded by can_partition
            raise ValueError("query is not partitionable")
        return JdbcQuery(self.schema, inner, self.traits)


def _partitioned_inner(rel: RelNode, keys: Sequence[int], partition_id: int,
                       n_partitions: int) -> Optional[RelNode]:
    """Rebuild an inner tree with the partition predicate at the scan.

    Keys arrive in the query's output space and are remapped down
    through projections; the predicate lands directly above the table
    scan so the backend filters before any other pushed work.  Only
    scan/filter/project pipelines qualify — anything else (aggregate,
    sort, join) changes row identity or multiplicity and is rejected.
    """
    if isinstance(rel, Project):
        inner_keys = []
        for k in keys:
            p = rel.projects[k]
            if not isinstance(p, RexInputRef):
                return None
            inner_keys.append(p.index)
        sub = _partitioned_inner(rel.input, tuple(inner_keys), partition_id,
                                 n_partitions)
        if sub is None:
            return None
        return LogicalProject(sub, rel.projects, rel.field_names)
    if isinstance(rel, Filter):
        sub = _partitioned_inner(rel.input, keys, partition_id, n_partitions)
        if sub is None:
            return None
        return LogicalFilter(sub, rel.condition)
    if isinstance(rel, TableScan):
        fields = rel.row_type.fields
        key_list = tuple(keys) or tuple(range(len(fields)))
        refs = [RexInputRef(k, fields[k].type) for k in key_list]
        predicate = RexCall(EQUALS, [
            RexCall(MOD, [RexCall(HASH, refs), literal(n_partitions)]),
            literal(partition_id)])
        return LogicalFilter(LogicalTableScan(rel.table), predicate)
    return None


def _inner_top_ok(query: "JdbcQuery", *blocked) -> bool:
    """Guard against redundant pushdown variants.

    Equivalent plans differing only in where a Project/Filter sits
    produce combinatorially many JdbcQuery leaves; pushing each stage at
    most once onto a canonical pipeline (scan → filter → project →
    aggregate → sort) keeps the search space small without losing any
    distinct final query shape.
    """
    return not isinstance(query.inner, tuple(blocked))


def _pushable(condition: RexNode) -> bool:
    """JDBC backends accept any scalar predicate, but not subqueries or
    window expressions."""
    found = [False]

    class Finder(RexVisitor):
        def visit_subquery(self, node: RexSubQuery):
            found[0] = True

        def visit_over(self, node: RexOver):
            found[0] = True

    condition.accept(Finder())
    return not found[0]


class JdbcSchema(PushdownSchema):
    """Schema factory for a JDBC source (Figure 3's schema factory).

    Pushed operators accumulate in one :class:`JdbcQuery`'s inner tree;
    a join absorbs two queries against this same backend.
    """

    query_class = JdbcQuery
    capabilities = _JDBC_CAPABILITIES

    def __init__(self, name: str, db: MiniDb, dialect: str = "mysql") -> None:
        super().__init__(name, Convention(f"jdbc-{name.lower()}"))
        self.db = db
        self.dialect = dialect_for(dialect)

    def add_jdbc_table(self, name: str, field_names: Sequence[str],
                       field_types: Sequence[RelDataType],
                       rows: Optional[List[tuple]] = None,
                       statistic: Optional[Statistic] = None) -> JdbcTable:
        """Create the table in the backend DB and expose it to Calcite."""
        self.db.create_table(name, field_names, rows or [])
        row_type = _F.struct(field_names, field_types)
        if statistic is None:
            statistic = Statistic(row_count=float(len(rows or [])))
        table = JdbcTable(self.db, name, row_type, statistic)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[JdbcQuery]:
        source = scan.table.source
        if not isinstance(source, JdbcTable) or source.db is not self.db:
            return None
        return JdbcQuery(self, LogicalTableScan(scan.table))

    def owns(self, query: JdbcQuery) -> bool:
        return query.schema is self

    def push_filter(self, filter_: Filter, query: JdbcQuery) -> Optional[JdbcQuery]:
        if not (_inner_top_ok(query, Project, Sort)
                and _pushable(filter_.condition)):
            return None
        return JdbcQuery(self, LogicalFilter(query.inner, filter_.condition))

    def push_project(self, project: Project,
                     query: JdbcQuery) -> Optional[JdbcQuery]:
        if not (_inner_top_ok(query, Project, Sort)
                and all(_pushable(p) and not contains_over(p)
                        for p in project.projects)):
            return None
        return JdbcQuery(self, LogicalProject(query.inner, project.projects,
                                              project.field_names))

    def push_sort(self, sort: Sort, query: JdbcQuery) -> Optional[JdbcQuery]:
        if not _inner_top_ok(query, Sort):
            return None
        inner = LogicalSort(query.inner, sort.collation, sort.offset, sort.fetch)
        return JdbcQuery(self, inner, RelTraitSet(self.convention, sort.collation))

    push_limit = push_sort

    def push_aggregate(self, agg: Aggregate,
                       query: JdbcQuery) -> Optional[JdbcQuery]:
        supported = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
        if not (_inner_top_ok(query, Aggregate, Sort)
                and all(c.op.name in supported and c.filter_arg is None
                        for c in agg.agg_calls)):
            return None
        return JdbcQuery(self, LogicalAggregate(query.inner, agg.group_set,
                                                agg.agg_calls))

    def push_join(self, join: Join, left: JdbcQuery,
                  right: JdbcQuery) -> Optional[JdbcQuery]:
        """Only a join of two queries against this same backend, which
        then executes the join itself."""
        if not (right.schema is self
                and _inner_top_ok(left, Aggregate, Sort)
                and _inner_top_ok(right, Aggregate, Sort)
                and _pushable(join.condition)):
            return None
        return JdbcQuery(self, LogicalJoin(left.inner, right.inner,
                                           join.condition, join.join_type))
