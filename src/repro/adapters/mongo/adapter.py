"""The MongoDB adapter (Section 7.1).

"To expose MongoDB data to Calcite, a table is created for each
document collection with a single column named ``_MAP``: a map from
document identifiers to their data."  Relational views over the ``_MAP``
column (CAST + ``[]`` item access) then make document data queryable in
tandem with relational sources.

Filters over ``_MAP['field']`` expressions are pushed down as MongoDB
find documents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.cost import RelOptCost
from ...core.rel import Filter, LogicalTableScan, RelNode
from ...core.rex import (
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
)
from ...core.traits import Convention, RelTraitSet
from ...core.types import DEFAULT_TYPE_FACTORY, RelDataType
from ...schema.core import Statistic, Table
from ..capability import ScanCapabilities, split_comparisons
from ..pushdown import PushdownSchema
from .store import MongoStore, render_find

_F = DEFAULT_TYPE_FACTORY

MONGO = Convention("mongo")

#: find() filters are the only thing Mongo evaluates server-side here;
#: no partitioned scans — document values (dicts) are unhashable, so the
#: canonical hash-mod partition function cannot apply to the _MAP column.
_MONGO_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter"}),
)


class MongoTable(Table):
    """A collection exposed as a one-column (_MAP) relational table."""

    def __init__(self, store: MongoStore, collection: str) -> None:
        row_type = _F.struct(["_MAP"], [_F.map(_F.varchar(), _F.any())])
        count = len(store.collections.get(collection.lower(), []))
        super().__init__(collection, row_type, Statistic(row_count=float(count)))
        self.store = store
        self.collection = collection

    def scan(self):
        for doc in self.store.collections.get(self.collection.lower(), []):
            self.store.docs_scanned += 1
            yield (doc,)

    def capabilities(self) -> ScanCapabilities:
        return _MONGO_CAPABILITIES


class MongoQuery(RelNode):
    """A leaf standing for a MongoDB find() executed in the store."""

    def __init__(self, table: MongoTable, filter_doc: Optional[dict] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([], traits or RelTraitSet(MONGO))
        self.mongo_table = table
        self.filter_doc = filter_doc

    def derive_row_type(self) -> RelDataType:
        return self.mongo_table.row_type

    def attr_digest(self) -> str:
        return self.find()

    def copy(self, inputs=None, traits=None) -> "MongoQuery":
        return MongoQuery(self.mongo_table, self.filter_doc, traits or self.traits)

    def find(self) -> str:
        """The query in mongo-shell syntax (Table 2 target language)."""
        return render_find(self.mongo_table.collection, self.filter_doc, None)

    def execute_rows(self, ctx):
        docs = self.mongo_table.store.find(
            self.mongo_table.collection, self.filter_doc)
        return [(doc,) for doc in docs]

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        return RelOptCost(rows, rows * 0.2, rows * 32.0)

    def estimate_row_count(self, mq) -> float:
        base = self.mongo_table.statistic.row_count
        if self.filter_doc:
            return max(base * (0.25 ** min(len(self.filter_doc), 3)), 1.0)
        return base

    def explain_terms(self):
        return [("find", self.find())]


_OPS = {
    SqlKind.EQUALS: "$eq",
    SqlKind.NOT_EQUALS: "$ne",
    SqlKind.GREATER_THAN: "$gt",
    SqlKind.GREATER_THAN_OR_EQUAL: "$gte",
    SqlKind.LESS_THAN: "$lt",
    SqlKind.LESS_THAN_OR_EQUAL: "$lte",
}


def _field_path(node: RexNode) -> Optional[str]:
    """Translate nested ITEM accesses over _MAP into a dotted path.

    ``_MAP['loc'][0]`` → ``loc.0``; CASTs are transparent.
    """
    if isinstance(node, RexCall) and node.kind is SqlKind.CAST:
        return _field_path(node.operands[0])
    if isinstance(node, RexCall) and node.kind is SqlKind.ITEM:
        base, key = node.operands
        if not isinstance(key, RexLiteral):
            return None
        if isinstance(base, RexInputRef) and base.index == 0:
            if isinstance(key.value, int):
                return str(key.value - 1)  # SQL arrays are 1-based
            return str(key.value)
        parent = _field_path(base)
        if parent is None:
            return None
        segment = str(key.value - 1) if isinstance(key.value, int) else str(key.value)
        return f"{parent}.{segment}"
    return None


def translate_filter(condition: RexNode) -> Optional[dict]:
    """Rex predicate over _MAP item accesses → a Mongo filter document.

    All-or-nothing: the rule keeps the Filter above the query unless
    every conjunct translates, so a residual means no pushdown."""
    pushed, residual = split_comparisons(
        condition, field_of=_field_path, kinds=frozenset(_OPS))
    if residual:
        return None
    doc: Dict[str, Any] = {}
    for comp in pushed:
        doc.setdefault(comp.field, {})[_OPS[comp.kind]] = comp.value
    return doc


class MongoSchema(PushdownSchema):
    query_class = MongoQuery
    capabilities = _MONGO_CAPABILITIES

    def __init__(self, name: str, store: MongoStore) -> None:
        super().__init__(name, MONGO)
        self.store = store

    def add_collection(self, collection: str,
                       documents: Optional[List[dict]] = None) -> MongoTable:
        if documents is not None:
            self.store.add_collection(collection, documents)
        table = MongoTable(self.store, collection)
        self.add_table(table)
        return table

    def query_for(self, scan: LogicalTableScan) -> Optional[MongoQuery]:
        source = scan.table.source
        if not isinstance(source, MongoTable) or source.store is not self.store:
            return None
        return MongoQuery(source)

    def owns(self, query: MongoQuery) -> bool:
        return query.mongo_table.store is self.store

    def push_filter(self, filter_: Filter,
                    query: MongoQuery) -> Optional[MongoQuery]:
        """`_MAP[...]` comparisons become a find() filter document."""
        if query.filter_doc is not None:
            return None
        doc = translate_filter(filter_.condition)
        return None if doc is None else MongoQuery(query.mongo_table, doc)
