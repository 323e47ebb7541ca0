"""Physical operators of the *enumerable* calling convention and the
converter rules that move logical operators into it (Section 5).

The enumerable convention is the client-side fallback: any adapter
table that can at least be scanned can participate in arbitrary SQL,
with filtering, sorting, joins and aggregation executed by Calcite
itself over the iterator interface.

A table whose capabilities declare ``supports_key_lookup`` also gets a
keyed access path: :class:`EnumerableKeyLookupRule` turns a
``Filter($k = literal|?)`` over its scan into an
:class:`EnumerableTableScan` carrying a :class:`KeyLookup`, which the
executor serves through the table's ``lookup(column, value)``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..core.rel import (
    Aggregate,
    Correlate,
    Filter,
    Intersect,
    Join,
    Minus,
    Project,
    RelNode,
    Sort,
    TableScan,
    Union,
    Values,
    Window,
)
from ..core.rel import (
    LogicalAggregate,
    LogicalCorrelate,
    LogicalFilter,
    LogicalIntersect,
    LogicalJoin,
    LogicalMinus,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalUnion,
    LogicalValues,
    LogicalWindow,
)
from ..core.rex import (
    RexCall,
    RexDynamicParam,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
    compose_conjunction,
    decompose_conjunction,
)
from ..core.rule import ConverterRule, RelOptRule, RelOptRuleCall, logical
from ..core.traits import Convention, RelTraitSet
from ..core.types import SqlTypeName

ENUMERABLE = Convention.ENUMERABLE
_ENUM_TRAITS = RelTraitSet(ENUMERABLE)


class KeyLookup(NamedTuple):
    """The equality a keyed scan serves: ``$column = value``, where
    ``value`` is a :class:`RexLiteral` or a :class:`RexDynamicParam`
    read at execution time."""

    column: int
    value: RexNode
    #: the filter conjunct it came from (for selectivity estimates)
    condition: RexNode

    @property
    def digest(self) -> str:
        return f"${self.column} = {self.value.digest}"


class EnumerableTableScan(TableScan):
    """Scan a table via its Python iterator interface — all of it, or
    with ``lookup`` only the rows the table's key lookup returns."""

    def __init__(self, table, traits: Optional[RelTraitSet] = None,
                 lookup: Optional[KeyLookup] = None) -> None:
        super().__init__(table, traits or RelTraitSet(ENUMERABLE, table.collation))
        self.lookup = lookup

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "EnumerableTableScan":
        return type(self)(self.table, traits or self.traits, self.lookup)

    def attr_digest(self) -> str:
        if self.lookup is None:
            return super().attr_digest()
        return f"{self.table.name}, lookup={self.lookup.digest}"

    def explain_terms(self):
        terms = super().explain_terms()
        if self.lookup is not None:
            terms.append(("lookup", self.lookup.digest))
        return terms


class EnumerableFilter(Filter):
    pass


class EnumerableProject(Project):
    pass


class EnumerableJoin(Join):
    """Joins by collecting rows from its children (hash or nested-loop)."""


class EnumerableAggregate(Aggregate):
    pass


class EnumerableSort(Sort):
    pass


class EnumerableUnion(Union):
    pass


class EnumerableIntersect(Intersect):
    pass


class EnumerableMinus(Minus):
    pass


class EnumerableValues(Values):
    pass


class EnumerableWindow(Window):
    pass


class EnumerableCorrelate(Correlate):
    pass


def _enum_input(call: RelOptRuleCall, rel: RelNode) -> RelNode:
    return call.convert_input(rel, _ENUM_TRAITS)


class EnumerableTableScanRule(ConverterRule):
    """Scans convert to enumerable when the table exposes ``scan()``."""

    def __init__(self) -> None:
        super().__init__(LogicalTableScan, Convention.NONE, ENUMERABLE,
                         "EnumerableTableScanRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        source = rel.table.source
        if source is None or not hasattr(source, "scan"):
            return None
        return EnumerableTableScan(rel.table)


class EnumerableFilterRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalFilter, Convention.NONE, ENUMERABLE,
                         "EnumerableFilterRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableFilter(_enum_input(call, rel.input), rel.condition,
                                _ENUM_TRAITS)


class EnumerableProjectRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalProject, Convention.NONE, ENUMERABLE,
                         "EnumerableProjectRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableProject(_enum_input(call, rel.input), rel.projects,
                                 rel.field_names, _ENUM_TRAITS)


class EnumerableJoinRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalJoin, Convention.NONE, ENUMERABLE,
                         "EnumerableJoinRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableJoin(
            _enum_input(call, rel.left), _enum_input(call, rel.right),
            rel.condition, rel.join_type, _ENUM_TRAITS)


class EnumerableAggregateRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalAggregate, Convention.NONE, ENUMERABLE,
                         "EnumerableAggregateRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableAggregate(_enum_input(call, rel.input), rel.group_set,
                                   rel.agg_calls, _ENUM_TRAITS)


class EnumerableSortRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalSort, Convention.NONE, ENUMERABLE,
                         "EnumerableSortRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableSort(
            _enum_input(call, rel.input), rel.collation, rel.offset, rel.fetch,
            RelTraitSet(ENUMERABLE, rel.collation))


class EnumerableUnionRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalUnion, Convention.NONE, ENUMERABLE,
                         "EnumerableUnionRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableUnion([_enum_input(call, i) for i in rel.inputs],
                               rel.all, _ENUM_TRAITS)


class EnumerableIntersectRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalIntersect, Convention.NONE, ENUMERABLE,
                         "EnumerableIntersectRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableIntersect([_enum_input(call, i) for i in rel.inputs],
                                   rel.all, _ENUM_TRAITS)


class EnumerableMinusRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalMinus, Convention.NONE, ENUMERABLE,
                         "EnumerableMinusRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableMinus([_enum_input(call, i) for i in rel.inputs],
                               rel.all, _ENUM_TRAITS)


class EnumerableValuesRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalValues, Convention.NONE, ENUMERABLE,
                         "EnumerableValuesRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableValues(rel.row_type, rel.tuples, _ENUM_TRAITS)


class EnumerableWindowRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalWindow, Convention.NONE, ENUMERABLE,
                         "EnumerableWindowRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableWindow(_enum_input(call, rel.input), rel.window_exprs,
                                rel.field_names, _ENUM_TRAITS)


class EnumerableCorrelateRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalCorrelate, Convention.NONE, ENUMERABLE,
                         "EnumerableCorrelateRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return EnumerableCorrelate(
            _enum_input(call, rel.left), _enum_input(call, rel.right),
            rel.correlation_id, rel.required_columns, rel.join_type, _ENUM_TRAITS)


#: column types whose values are hashable scalars, so a hash index
#: answers ``=`` on them exactly
_LOOKUP_TYPES = frozenset({
    SqlTypeName.BOOLEAN, SqlTypeName.TINYINT, SqlTypeName.SMALLINT,
    SqlTypeName.INTEGER, SqlTypeName.BIGINT, SqlTypeName.DECIMAL,
    SqlTypeName.FLOAT, SqlTypeName.REAL, SqlTypeName.DOUBLE,
    SqlTypeName.CHAR, SqlTypeName.VARCHAR, SqlTypeName.DATE,
    SqlTypeName.TIME, SqlTypeName.TIMESTAMP,
})


def _serves_lookups(scan: RelNode) -> bool:
    source = scan.table.source
    return source is not None and source.capabilities().supports_key_lookup


def _key_lookup(conjunct: RexNode, scan: RelNode) -> Optional[KeyLookup]:
    """``conjunct`` as a lookup when it is ``$k = literal|?`` (either
    operand order) on an indexable column, else None."""
    if not isinstance(conjunct, RexCall) or conjunct.kind is not SqlKind.EQUALS:
        return None
    a, b = conjunct.operands
    for ref, value in ((a, b), (b, a)):
        if (isinstance(ref, RexInputRef)
                and isinstance(value, (RexLiteral, RexDynamicParam))
                and scan.row_type.fields[ref.index].type.type_name in _LOOKUP_TYPES):
            return KeyLookup(ref.index, value, conjunct)
    return None


class EnumerableKeyLookupRule(RelOptRule):
    """``Filter($k = literal|?)`` over a scan of a table that declares
    ``supports_key_lookup`` → a keyed :class:`EnumerableTableScan`.

    The first equality conjunct of that form becomes the lookup; the
    other conjuncts stay in an :class:`EnumerableFilter` above it.
    Registered for the row engine only (``Planner.all_rules``): under
    the vectorized engine a keyed scan moved no benchmark template
    outside noise.
    """

    def __init__(self) -> None:
        super().__init__(
            logical(Filter, logical(TableScan, predicate=_serves_lookups)),
            "EnumerableKeyLookupRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        filter_, scan = call.rel(0), call.rel(1)
        conjuncts = decompose_conjunction(filter_.condition)
        for i, conjunct in enumerate(conjuncts):
            lookup = _key_lookup(conjunct, scan)
            if lookup is not None:
                break
        else:
            return
        keyed = EnumerableTableScan(scan.table, lookup=lookup)
        residual = compose_conjunction(conjuncts[:i] + conjuncts[i + 1:])
        call.transform_to(keyed if residual is None
                          else EnumerableFilter(keyed, residual, _ENUM_TRAITS))


def enumerable_rules():
    """Converter rules from the logical to the enumerable convention."""
    return [
        EnumerableTableScanRule(),
        EnumerableFilterRule(),
        EnumerableProjectRule(),
        EnumerableJoinRule(),
        EnumerableAggregateRule(),
        EnumerableSortRule(),
        EnumerableUnionRule(),
        EnumerableIntersectRule(),
        EnumerableMinusRule(),
        EnumerableValuesRule(),
        EnumerableWindowRule(),
        EnumerableCorrelateRule(),
    ]
