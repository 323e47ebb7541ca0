"""The Druid adapter (Table 2: queried through REST, JSON).

Pushes filters and grouped aggregations down as Druid JSON queries
(``select``/``groupBy``), turning a scan-filter-aggregate pipeline into
a single REST call answered from Druid's column store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.cost import RelOptCost
from ...core.rel import Aggregate, Filter, LogicalTableScan, RelNode
from ...core.rex import RexNode, SqlKind
from ...core.traits import Convention, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ..capability import ScanCapabilities, split_comparisons
from ..pushdown import PushdownSchema
from .store import DruidDatasource, DruidStore, render_query

_F = DEFAULT_TYPE_FACTORY

DRUID = Convention("druid")

#: filters and grouped aggregations collapse into one JSON query; no
#: partitioned scans (no server-side hash-mod over segments here).
_DRUID_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter", "aggregate"}),
)


class DruidTable(Table):
    def __init__(self, store: DruidStore, datasource: DruidDatasource,
                 field_types) -> None:
        columns = ["__time"] + datasource.dimensions + datasource.metrics
        row_type = _F.struct(columns, field_types)
        super().__init__(datasource.name, row_type,
                         Statistic(row_count=float(datasource.row_count)))
        self.store = store
        self.datasource = datasource

    def scan(self):
        names = self.row_type.field_names
        for events in self.datasource.segments.values():
            for e in events:
                self.store.rows_scanned += 1
                yield tuple(e.get(n) for n in names)

    def capabilities(self) -> ScanCapabilities:
        return _DRUID_CAPABILITIES


class DruidQuery(RelNode):
    """A leaf standing for one Druid JSON query."""

    def __init__(self, table: DruidTable, filter_spec: Optional[dict] = None,
                 group_dims: Optional[List[str]] = None,
                 aggregations: Optional[List[dict]] = None,
                 row_type: Optional[RelDataType] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([], traits or RelTraitSet(DRUID))
        self.druid_table = table
        self.filter_spec = filter_spec
        self.group_dims = group_dims
        self.aggregations = aggregations
        self._row_type_override = row_type

    def derive_row_type(self) -> RelDataType:
        if self._row_type_override is not None:
            return self._row_type_override
        return self.druid_table.row_type

    def attr_digest(self) -> str:
        return self.request()

    def copy(self, inputs=None, traits=None) -> "DruidQuery":
        return DruidQuery(self.druid_table, self.filter_spec, self.group_dims,
                          self.aggregations, self._row_type_override,
                          traits or self.traits)

    def body(self) -> dict:
        body: Dict[str, Any] = {"dataSource": self.druid_table.datasource.name}
        if self.group_dims is not None:
            body["queryType"] = "groupBy"
            body["dimensions"] = list(self.group_dims)
            body["aggregations"] = list(self.aggregations or [])
        else:
            body["queryType"] = "select"
        if self.filter_spec is not None:
            body["filter"] = self.filter_spec
        return body

    def request(self) -> str:
        return render_query(self.body())

    def execute_rows(self, ctx):
        events = self.druid_table.store.query(self.body())
        names = self.row_type.field_names
        if self.group_dims is not None:
            agg_names = [a["name"] for a in (self.aggregations or [])]
            return [
                tuple(e.get(d) for d in self.group_dims)
                + tuple(e.get(a) for a in agg_names)
                for e in events
            ]
        return [tuple(e.get(n) for n in names) for e in events]

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        # Druid answers from a column store: aggregations are cheap.
        return RelOptCost(rows, rows * 0.1, rows * 8.0)

    def estimate_row_count(self, mq) -> float:
        base = self.druid_table.statistic.row_count
        if self.filter_spec is not None:
            base *= 0.25
        if self.group_dims is not None:
            base = max(base * 0.05, 1.0)
        return max(base, 1.0)

    def explain_terms(self):
        return [("query", self.request())]


_BOUND_SPECS = {
    SqlKind.GREATER_THAN: ("lower", True),
    SqlKind.GREATER_THAN_OR_EQUAL: ("lower", False),
    SqlKind.LESS_THAN: ("upper", True),
    SqlKind.LESS_THAN_OR_EQUAL: ("upper", False),
}


def translate_filter_spec(condition: RexNode, field_names) -> Optional[dict]:
    """Rex conjuncts → selector/bound filter specs; all-or-nothing."""
    pushed, residual = split_comparisons(
        condition, kinds=frozenset(_BOUND_SPECS) | {SqlKind.EQUALS})
    if residual or not pushed:
        return None
    fields: List[dict] = []
    for comp in pushed:
        dim = field_names[comp.field]
        if comp.kind is SqlKind.EQUALS:
            fields.append({"type": "selector", "dimension": dim,
                           "value": comp.value})
        else:
            side, strict = _BOUND_SPECS[comp.kind]
            spec = {"type": "bound", "dimension": dim, side: comp.value}
            if strict:
                spec[side + "Strict"] = True
            fields.append(spec)
    if len(fields) == 1:
        return fields[0]
    return {"type": "and", "fields": fields}


_AGG_TYPES = {"COUNT": "count", "SUM": "longSum", "MIN": "longMin", "MAX": "longMax"}


def translate_aggregations(agg: Aggregate, query: DruidQuery) -> Optional[List[dict]]:
    """GROUP BY dimensions + COUNT/SUM/MIN/MAX → groupBy aggregation
    specs; None if any group key is not a dimension or any call has no
    Druid aggregator."""
    names = query.row_type.field_names
    dims = set(query.druid_table.datasource.dimensions)
    if not all(names[g] in dims for g in agg.group_set):
        return None
    aggregations = []
    for c in agg.agg_calls:
        if c.op.name not in _AGG_TYPES or c.distinct or c.filter_arg is not None:
            return None
        if c.op.name != "COUNT" and len(c.args) != 1:
            return None
        spec = {"type": _AGG_TYPES[c.op.name], "name": c.name}
        if c.args:
            spec["fieldName"] = names[c.args[0]]
        aggregations.append(spec)
    return aggregations


class DruidSchema(PushdownSchema):
    query_class = DruidQuery
    capabilities = _DRUID_CAPABILITIES

    def __init__(self, name: str, store: DruidStore) -> None:
        super().__init__(name, DRUID)
        self.store = store

    def add_datasource(self, name: str, dimensions, metrics, field_types,
                       events: Optional[List[dict]] = None) -> DruidTable:
        ds = self.store.create_datasource(name, dimensions, metrics, events)
        table = DruidTable(self.store, ds, field_types)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[DruidQuery]:
        source = scan.table.source
        if not isinstance(source, DruidTable) or source.store is not self.store:
            return None
        return DruidQuery(source)

    def owns(self, query: DruidQuery) -> bool:
        return query.druid_table.store is self.store

    def push_filter(self, filter_: Filter,
                    query: DruidQuery) -> Optional[DruidQuery]:
        if query.filter_spec is not None or query.group_dims is not None:
            return None
        spec = translate_filter_spec(filter_.condition,
                                     query.row_type.field_names)
        return None if spec is None else DruidQuery(query.druid_table, spec)

    def push_aggregate(self, agg: Aggregate,
                       query: DruidQuery) -> Optional[DruidQuery]:
        if query.group_dims is not None:
            return None
        aggregations = translate_aggregations(agg, query)
        if aggregations is None:
            return None
        names = query.row_type.field_names
        return DruidQuery(query.druid_table, query.filter_spec,
                          [names[g] for g in agg.group_set], aggregations,
                          row_type=agg.row_type)
