"""The Splunk adapter (Table 2: target language SPL; Figure 2 star).

Pushes filters, projections and — through Splunk's external-lookup
capability — whole joins into the ``splunk`` calling convention.  The
Figure 2 walk-through relies on the ``SplunkJoinRule`` generated from
:meth:`SplunkSchema.push_join`: a join of Orders (Splunk) with Products
(jdbc-mysql) is rewritten into a Splunk ``lookup`` stage so the join
runs inside the Splunk engine.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ...core.cost import RelOptCost
from ...core.rel import (
    Filter,
    Join,
    JoinRelType,
    LogicalTableScan,
    Project,
    RelNode,
    TableScan,
)
from ...core.rex import RexNode
from ...core.traits import Convention, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ..capability import ScanCapabilities, kept_fields, split_comparisons
from ..jdbc.adapter import JdbcQuery
from ..pushdown import PushdownSchema
from .store import SplunkStore

_F = DEFAULT_TYPE_FACTORY

SPLUNK = Convention("splunk")

#: search terms, ``fields`` projections, and joins (via the lookup
#: stage) run inside Splunk; no partitioned scans — SPL search has no
#: hash-mod shard predicate.
_SPLUNK_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter", "project", "join"}),
)


class SplunkTable(Table):
    """A Splunk index exposed as a relational table."""

    def __init__(self, store: SplunkStore, index: str,
                 field_names: Sequence[str], field_types: Sequence[RelDataType],
                 statistic: Optional[Statistic] = None) -> None:
        row_type = _F.struct(field_names, field_types)
        if statistic is None:
            statistic = Statistic(
                row_count=float(len(store.indexes.get(index.lower(), []))))
        super().__init__(index, row_type, statistic)
        self.store = store
        self.index = index

    def scan(self):
        names = self.row_type.field_names
        for event in self.store.indexes.get(self.index.lower(), []):
            self.store.events_scanned += 1
            yield tuple(event.get(n) for n in names)

    def capabilities(self) -> ScanCapabilities:
        return _SPLUNK_CAPABILITIES


class SplunkQuery(RelNode):
    """A leaf standing for an SPL pipeline run inside Splunk.

    State: the source table, pushed search conditions, an optional
    lookup stage (a pushed join), and an optional ``fields`` projection.
    """

    def __init__(self, table_rel, splunk_table: SplunkTable,
                 conditions: Sequence[Tuple[str, str, Any]] = (),
                 lookup: Optional[dict] = None,
                 fields: Optional[List[str]] = None,
                 row_type: Optional[RelDataType] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([], traits or RelTraitSet(SPLUNK))
        self.table_rel = table_rel
        self.splunk_table = splunk_table
        self.conditions = list(conditions)
        self.lookup = lookup  # {table, local, remote, output: [(field, type)]}
        self.fields = list(fields) if fields is not None else None
        self._row_type_override = row_type

    def derive_row_type(self) -> RelDataType:
        if self._row_type_override is not None:
            return self._row_type_override
        base_fields = list(self.splunk_table.row_type.fields)
        names = [f.name for f in base_fields]
        types = [f.type for f in base_fields]
        if self.lookup is not None:
            for fname, ftype in self.lookup["output"]:
                names.append(fname)
                types.append(ftype)
        if self.fields is not None:
            by_name = {n.upper(): t for n, t in zip(names, types)}
            names = list(self.fields)
            types = [by_name.get(n.upper(), _F.any()) for n in names]
        return _F.struct(names, types)

    def attr_digest(self) -> str:
        return self.spl()

    def copy(self, inputs=None, traits=None) -> "SplunkQuery":
        return SplunkQuery(self.table_rel, self.splunk_table, self.conditions,
                           self.lookup, self.fields, self._row_type_override,
                           traits or self.traits)

    # -- SPL generation (the Table 2 "target language") --------------------
    def spl(self) -> str:
        terms = [f"index={self.splunk_table.index}"]
        for field, op, value in self.conditions:
            rendered = f'"{value}"' if isinstance(value, str) else value
            terms.append(f"{field}{op}{rendered}")
        stages = ["search " + " ".join(terms)]
        if self.lookup is not None:
            out = ", ".join(f for f, _t in self.lookup["output"])
            stages.append(
                f"lookup {self.lookup['table']} {self.lookup['local']} "
                f"AS {self.lookup['remote']} OUTPUT {out}")
        if self.fields is not None:
            stages.append("fields " + ", ".join(self.fields))
        return " | ".join(stages)

    def execute_rows(self, ctx):
        events = self.splunk_table.store.execute(self.spl())
        names = self.row_type.field_names
        return [tuple(e.get(n) for n in names) for e in events]

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        # Searches run on indexed storage; only matched events transfer.
        return RelOptCost(rows, rows * 0.2, rows * 8.0)

    def estimate_row_count(self, mq) -> float:
        base = self.splunk_table.statistic.row_count
        selectivity = 0.25 ** min(len(self.conditions), 3) if self.conditions else 1.0
        return max(base * selectivity, 1.0)

    def explain_terms(self):
        return [("spl", self.spl())]


_SPL_OPS = {"=": "=", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _extract_conditions(condition: RexNode,
                        field_names) -> Optional[List[Tuple[str, str, Any]]]:
    """Decompose a predicate into SPL search terms; None if inexpressible.

    All-or-nothing; SPL terms can't hold structured literals, so list
    and dict values are rejected via ``accept_value``."""
    pushed, residual = split_comparisons(
        condition, accept_value=lambda v: not isinstance(v, (list, dict)))
    if residual:
        return None
    return [(field_names[c.field], _SPL_OPS[c.kind.value], c.value)
            for c in pushed]


class SplunkSchema(PushdownSchema):
    query_class = SplunkQuery
    capabilities = _SPLUNK_CAPABILITIES
    #: a pushed join reaches a jdbc table through a registered lookup
    join_right_class = JdbcQuery

    def __init__(self, name: str, store: SplunkStore) -> None:
        super().__init__(name, SPLUNK)
        self.store = store

    def add_splunk_table(self, index: str, field_names: Sequence[str],
                         field_types: Sequence[RelDataType],
                         events: Optional[List[dict]] = None) -> SplunkTable:
        if events is not None:
            self.store.add_index(index, events)
        table = SplunkTable(self.store, index, field_names, field_types)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[SplunkQuery]:
        source = scan.table.source
        if not isinstance(source, SplunkTable) or source.store is not self.store:
            return None
        return SplunkQuery(scan, source)

    def owns(self, query: SplunkQuery) -> bool:
        return query.splunk_table.store is self.store

    def push_filter(self, filter_: Filter,
                    query: SplunkQuery) -> Optional[SplunkQuery]:
        """A WHERE clause becomes search terms — the "adapter-specific
        rule" of Figure 2."""
        if query.fields is not None or query.lookup is not None:
            return None  # push filters before projections/lookups
        conditions = _extract_conditions(filter_.condition,
                                         query.row_type.field_names)
        if conditions is None:
            return None
        return SplunkQuery(query.table_rel, query.splunk_table,
                           list(query.conditions) + conditions, query.lookup,
                           query.fields)

    def push_project(self, project: Project,
                     query: SplunkQuery) -> Optional[SplunkQuery]:
        """A pure-reference projection becomes an SPL ``fields`` stage;
        SPL fields cannot rename."""
        if query.fields is not None:
            return None
        fields = kept_fields(project.projects, project.field_names,
                             query.row_type.field_names)
        if fields is None:
            return None
        return SplunkQuery(query.table_rel, query.splunk_table,
                           query.conditions, query.lookup, fields)

    def push_join(self, join: Join, left: SplunkQuery,
                  right: JdbcQuery) -> Optional[SplunkQuery]:
        """A Splunk ⋈ JDBC equi-join becomes a lookup stage.

        This is the planner rule of Figure 2 that "pushes the join
        through the splunk-to-spark converter, and the join is now in
        splunk convention, running inside the Splunk engine" — Splunk
        reaches the MySQL table via its ODBC lookup registration.
        """
        if join.join_type is not JoinRelType.INNER:
            return None
        if left.lookup is not None or left.fields is not None:
            return None
        # The JDBC side must be a bare table scan (a lookup table).
        if not isinstance(right.inner, TableScan):
            return None
        table_name = right.inner.table.qualified_name[-1]
        if table_name.lower() not in self.store.lookups:
            return None
        info = join.analyze_condition()
        if not (info.is_equi and len(info.left_keys) == 1):
            return None
        right_fields = right.inner.row_type.fields
        lookup = {
            "table": table_name.lower(),
            "local": left.row_type.field_names[info.left_keys[0]],
            "remote": right_fields[info.right_keys[0]].name,
            "output": [(f.name, f.type) for f in right_fields],
        }
        return SplunkQuery(left.table_rel, left.splunk_table, left.conditions,
                           lookup, fields=None, row_type=join.row_type)
