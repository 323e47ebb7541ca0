"""The Elasticsearch adapter (Table 2: queried through REST, JSON DSL)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.cost import RelOptCost
from ...core.rel import Filter, LogicalTableScan, Project, RelNode, Sort
from ...core.rex import RexNode, SqlKind
from ...core.traits import Convention, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ..capability import ScanCapabilities, kept_fields, split_comparisons
from ..pushdown import PushdownSchema
from .store import ElasticStore, render_search

_F = DEFAULT_TYPE_FACTORY

ELASTIC = Convention("elasticsearch")

#: term/range filters, _source projections and size limits all travel
#: in the _search body; no partitioned scans (no server-side hash-mod).
_ELASTIC_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter", "project", "limit"}),
)


class ElasticTable(Table):
    def __init__(self, store: ElasticStore, index: str, field_names,
                 field_types) -> None:
        row_type = _F.struct(field_names, field_types)
        count = len(store.indexes.get(index.lower(), []))
        super().__init__(index, row_type, Statistic(row_count=float(count)))
        self.store = store
        self.index = index

    def scan(self):
        names = self.row_type.field_names
        for doc in self.store.indexes.get(self.index.lower(), []):
            self.store.docs_scanned += 1
            yield tuple(doc.get(n) for n in names)

    def capabilities(self) -> ScanCapabilities:
        return _ELASTIC_CAPABILITIES


class ElasticQuery(RelNode):
    """A leaf standing for one _search REST call."""

    def __init__(self, table: ElasticTable, filters: tuple = (),
                 source: Optional[List[str]] = None,
                 size: Optional[int] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([], traits or RelTraitSet(ELASTIC))
        self.elastic_table = table
        self.filters = tuple(filters)  # JSON filter clauses
        self.source = list(source) if source is not None else None
        self.size = size

    def derive_row_type(self) -> RelDataType:
        base = self.elastic_table.row_type
        if self.source is None:
            return base
        pairs = [(n, base.field_by_name(n).type) for n in self.source]
        return _F.struct([p[0] for p in pairs], [p[1] for p in pairs])

    def attr_digest(self) -> str:
        return self.request()

    def copy(self, inputs=None, traits=None) -> "ElasticQuery":
        return ElasticQuery(self.elastic_table, self.filters, self.source,
                            self.size, traits or self.traits)

    def body(self) -> dict:
        body: Dict[str, Any] = {}
        if self.filters:
            body["query"] = {"bool": {"filter": list(self.filters)}}
        if self.source is not None:
            body["_source"] = list(self.source)
        if self.size is not None:
            body["size"] = self.size
        return body

    def request(self) -> str:
        return render_search(self.elastic_table.index, self.body())

    def execute_rows(self, ctx):
        docs = self.elastic_table.store.search(
            self.elastic_table.index, self.body())
        names = self.row_type.field_names
        return [tuple(d.get(n) for n in names) for d in docs]

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        return RelOptCost(rows, rows * 0.15, rows * 16.0)

    def estimate_row_count(self, mq) -> float:
        base = self.elastic_table.statistic.row_count
        base *= 0.25 ** min(len(self.filters), 3)
        if self.size is not None:
            base = min(base, float(self.size))
        return max(base, 1.0)

    def explain_terms(self):
        return [("request", self.request())]


_RANGE_OPS = {
    SqlKind.GREATER_THAN: "gt",
    SqlKind.GREATER_THAN_OR_EQUAL: "gte",
    SqlKind.LESS_THAN: "lt",
    SqlKind.LESS_THAN_OR_EQUAL: "lte",
}


def translate_to_dsl(condition: RexNode, field_names) -> Optional[List[dict]]:
    """Rex conjuncts → term/range filter clauses; None if inexpressible.

    All-or-nothing: a residual conjunct means no pushdown (the rule
    would otherwise have to keep a partial Filter on top)."""
    pushed, residual = split_comparisons(
        condition,
        kinds=frozenset(_RANGE_OPS) | {SqlKind.EQUALS})
    if residual:
        return None
    clauses: List[dict] = []
    for comp in pushed:
        field = field_names[comp.field]
        if comp.kind is SqlKind.EQUALS:
            clauses.append({"term": {field: comp.value}})
        else:
            clauses.append({"range": {field: {_RANGE_OPS[comp.kind]: comp.value}}})
    return clauses


class ElasticSchema(PushdownSchema):
    query_class = ElasticQuery
    capabilities = _ELASTIC_CAPABILITIES

    def __init__(self, name: str, store: ElasticStore) -> None:
        super().__init__(name, ELASTIC)
        self.store = store

    def add_elastic_table(self, index: str, field_names, field_types,
                          documents: Optional[List[dict]] = None) -> ElasticTable:
        if documents is not None:
            self.store.add_index(index, documents)
        table = ElasticTable(self.store, index, field_names, field_types)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[ElasticQuery]:
        source = scan.table.source
        if not isinstance(source, ElasticTable) or source.store is not self.store:
            return None
        return ElasticQuery(source)

    def owns(self, query: ElasticQuery) -> bool:
        return query.elastic_table.store is self.store

    def push_filter(self, filter_: Filter,
                    query: ElasticQuery) -> Optional[ElasticQuery]:
        if query.source is not None or query.size is not None:
            return None
        clauses = translate_to_dsl(filter_.condition, query.row_type.field_names)
        if clauses is None:
            return None
        return ElasticQuery(query.elastic_table,
                            tuple(query.filters) + tuple(clauses))

    def push_project(self, project: Project,
                     query: ElasticQuery) -> Optional[ElasticQuery]:
        """A pure-reference projection becomes a _source field list."""
        if query.source is not None:
            return None
        source = kept_fields(project.projects, project.field_names,
                             query.row_type.field_names)
        if source is None:
            return None
        return ElasticQuery(query.elastic_table, query.filters, source,
                            query.size)

    def push_limit(self, sort: Sort,
                   query: ElasticQuery) -> Optional[ElasticQuery]:
        if sort.offset is not None or sort.fetch is None or query.size is not None:
            return None
        return ElasticQuery(query.elastic_table, query.filters, query.source,
                            sort.fetch)
