"""Physical operators of the *vectorized* calling convention.

A sibling of the enumerable engine (Section 5): the same relational
operators, but executing batch-at-a-time over :class:`ColumnBatch`
instead of tuple-at-a-time over iterators.  Expressions are compiled
once per operator (:mod:`.expr`) and evaluated over whole columns.

Rows enter a vectorized plan only at adapter leaves: an adapter's
converter hands its rows to the enumerable convention, and
:class:`RowToBatch` chunks them into batches.  The vectorized planner
registers no ``Enumerable*`` operator rule, so the engines are never
spliced together inside one plan.

Every vectorized node also implements ``execute_rows``, which the row
interpreter (:func:`repro.runtime.operators.execute`) probes first —
executing a vectorized plan therefore needs no changes to the existing
runtime entry points.
"""

from __future__ import annotations

from typing import List, Optional

from ...core.cost import RelOptCost
from ...core.rel import (
    Aggregate,
    Converter,
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
)
from ...core.rel import (
    LogicalAggregate,
    LogicalFilter,
    LogicalIntersect,
    LogicalJoin,
    LogicalMinus,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalUnion,
    LogicalValues,
)
from ...core.rule import ConverterRule, RelOptRuleCall
from ...core.traits import Convention, RelTraitSet

VECTORIZED = Convention.VECTORIZED
_VEC_TRAITS = RelTraitSet(VECTORIZED)
ENUMERABLE = Convention.ENUMERABLE

#: Relative CPU cost of a batch operator versus its row twin: compiled
#: column kernels amortise expression dispatch across the whole batch.
VECTOR_CPU_FACTOR = 0.25


class VectorizedRel:
    """Mixin: batch execution plus row-boundary fallback."""

    def execute_batches(self, ctx, batch_size=None):
        from .batch import DEFAULT_BATCH_SIZE
        from .executor import execute_batches
        if batch_size is None:
            # Entry point of a statement: honour the configured batch
            # size riding on the context (FrameworkConfig.batch_size).
            batch_size = getattr(ctx, "batch_size", None) or DEFAULT_BATCH_SIZE
        return execute_batches(self, ctx, batch_size)

    def execute_rows(self, ctx):
        from .batch import RowStream
        return RowStream.of(self._batch_stream(ctx))

    def _batch_stream(self, ctx):
        yield from self.execute_batches(ctx)

    def _discounted(self, cost: RelOptCost) -> RelOptCost:
        return RelOptCost(cost.rows, cost.cpu * VECTOR_CPU_FACTOR, cost.io)


class VectorizedTableScan(VectorizedRel, TableScan):
    """Scan a table straight into column batches."""

    def __init__(self, table, traits: Optional[RelTraitSet] = None) -> None:
        super().__init__(table, traits or RelTraitSet(VECTORIZED, table.collation))

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = self.estimate_row_count(mq)
        return RelOptCost(rows, rows * VECTOR_CPU_FACTOR,
                          rows * mq.average_row_size(self))


class VectorizedFilter(VectorizedRel, Filter):
    """Filter via a selection vector; no column data is copied."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        return RelOptCost(rows, mq.row_count(self.input) * VECTOR_CPU_FACTOR, 0.0)


class VectorizedProject(VectorizedRel, Project):
    """Evaluate compiled projections over whole columns."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        return RelOptCost(
            rows, rows * max(len(self.projects), 1) * 0.1 * VECTOR_CPU_FACTOR, 0.0)


class VectorizedHashJoin(VectorizedRel, Join):
    """Hash join over key columns (equi joins without a residual)."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        left = mq.row_count(self.left)
        right = mq.row_count(self.right)
        memory = right * mq.average_row_size(self.right)
        return RelOptCost(rows, (left + right) * VECTOR_CPU_FACTOR,
                          memory * 0.01)


class VectorizedThetaJoin(VectorizedRel, Join):
    """Any join the hash join declines: a theta or cross condition, or
    equi keys with a residual.  It runs the row engine's own join over
    its inputs' rows and rebatches the output, so these joins keep one
    definition; it is costed as that row join."""


class VectorizedAggregate(VectorizedRel, Aggregate):
    """Hash aggregation: the input gathered into one batch, then
    :func:`.aggregate.aggregate_columns`."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        in_rows = mq.row_count(self.input)
        return RelOptCost(
            rows, in_rows * (1 + len(self.agg_calls)) * 0.5 * VECTOR_CPU_FACTOR, 0.0)


class VectorizedSort(VectorizedRel, Sort):
    """Sort / offset / fetch over a materialised batch."""
    # Sorting is row-comparison bound either way; no CPU discount.


class VectorizedUnion(VectorizedRel, Union):
    pass


class VectorizedIntersect(VectorizedRel, Intersect):
    pass


class VectorizedMinus(VectorizedRel, Minus):
    pass


class VectorizedValues(VectorizedRel, Values):
    pass


class RowToBatch(VectorizedRel, Converter):
    """enumerable → vectorized: chunk a row iterator into batches."""

    def __init__(self, input_: RelNode,
                 out_traits: Optional[RelTraitSet] = None) -> None:
        super().__init__(input_, out_traits or _VEC_TRAITS)

    def compute_self_cost(self, mq) -> RelOptCost:
        """One pass that repackages rows: costing it like a full per-row
        operator — the generic Converter default — double-charged every
        adapter subtree (adapter converter + bridge) and priced
        vectorized federated plans out of the running.  The rows
        component is zero for the same reason: a bridge adds no
        cardinality of its own."""
        rows = mq.row_count(self.input)
        return RelOptCost(0.0, rows * VECTOR_CPU_FACTOR, 0.0)


# ---------------------------------------------------------------------------
# Converter rules: logical → vectorized, plus the row→batch bridge
# ---------------------------------------------------------------------------

def _vec_input(call: RelOptRuleCall, rel: RelNode) -> RelNode:
    return call.convert_input(rel, _VEC_TRAITS)


class VectorizedTableScanRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalTableScan, Convention.NONE, VECTORIZED,
                         "VectorizedTableScanRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        source = rel.table.source
        if source is None or not hasattr(source, "scan"):
            return None
        return VectorizedTableScan(rel.table)


class VectorizedFilterRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalFilter, Convention.NONE, VECTORIZED,
                         "VectorizedFilterRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedFilter(_vec_input(call, rel.input), rel.condition,
                                _VEC_TRAITS)


class VectorizedProjectRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalProject, Convention.NONE, VECTORIZED,
                         "VectorizedProjectRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedProject(_vec_input(call, rel.input), rel.projects,
                                 rel.field_names, _VEC_TRAITS)


class VectorizedJoinRule(ConverterRule):
    """Equi joins become batch hash joins; every other join a
    :class:`VectorizedThetaJoin`."""

    def __init__(self) -> None:
        super().__init__(LogicalJoin, Convention.NONE, VECTORIZED,
                         "VectorizedJoinRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        info = rel.analyze_condition()
        join = (VectorizedHashJoin if info.left_keys and not info.non_equi
                else VectorizedThetaJoin)
        return join(_vec_input(call, rel.left), _vec_input(call, rel.right),
                    rel.condition, rel.join_type, _VEC_TRAITS)


class VectorizedAggregateRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalAggregate, Convention.NONE, VECTORIZED,
                         "VectorizedAggregateRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedAggregate(_vec_input(call, rel.input), rel.group_set,
                                   rel.agg_calls, _VEC_TRAITS)


class VectorizedSortRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalSort, Convention.NONE, VECTORIZED,
                         "VectorizedSortRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedSort(
            _vec_input(call, rel.input), rel.collation, rel.offset, rel.fetch,
            RelTraitSet(VECTORIZED, rel.collation))


class VectorizedUnionRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalUnion, Convention.NONE, VECTORIZED,
                         "VectorizedUnionRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedUnion([_vec_input(call, i) for i in rel.inputs],
                               rel.all, _VEC_TRAITS)


class VectorizedIntersectRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalIntersect, Convention.NONE, VECTORIZED,
                         "VectorizedIntersectRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedIntersect([_vec_input(call, i) for i in rel.inputs],
                                   rel.all, _VEC_TRAITS)


class VectorizedMinusRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalMinus, Convention.NONE, VECTORIZED,
                         "VectorizedMinusRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedMinus([_vec_input(call, i) for i in rel.inputs],
                               rel.all, _VEC_TRAITS)


class VectorizedValuesRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(LogicalValues, Convention.NONE, VECTORIZED,
                         "VectorizedValuesRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedValues(rel.row_type, rel.tuples, _VEC_TRAITS)


class RowToBatchRule(ConverterRule):
    """Lift an enumerable (row-producing) expression into batches.

    Under the vectorized rule set only adapters' converters produce
    enumerable expressions, so this is where an adapter without a
    vectorized implementation joins a vectorized plan.
    """

    def __init__(self) -> None:
        super().__init__(RelNode, ENUMERABLE, VECTORIZED, "RowToBatchRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return RowToBatch(call.convert_input(rel, RelTraitSet(ENUMERABLE)))


def vectorized_rules() -> List[ConverterRule]:
    """Converter rules from the logical convention, and from adapters'
    row output, into the vectorized convention."""
    from .window import VectorizedWindowRule  # deferred: window imports nodes
    return [
        VectorizedTableScanRule(),
        VectorizedWindowRule(),
        VectorizedFilterRule(),
        VectorizedProjectRule(),
        VectorizedJoinRule(),
        VectorizedAggregateRule(),
        VectorizedSortRule(),
        VectorizedUnionRule(),
        VectorizedIntersectRule(),
        VectorizedMinusRule(),
        VectorizedValuesRule(),
        RowToBatchRule(),
    ]
