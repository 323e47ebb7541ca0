"""Physical operators of the *vectorized* calling convention.

A sibling of the enumerable engine (Section 5): the same relational
operators, but executing batch-at-a-time over :class:`ColumnBatch`
instead of tuple-at-a-time over iterators.  Expressions are compiled
once per operator (:mod:`.expr`) and evaluated over whole columns.

Two converters glue the conventions together:

* :class:`RowToBatch` (enumerable → vectorized) chunks any row-producing
  subtree — including adapter plans that only speak rows — into batches,
  so every backend composes with the columnar engine.
* :class:`BatchToRow` (vectorized → enumerable) flattens batches back
  into tuples, so a vectorized subtree can feed row-only operators
  (windows, correlates) and so a vectorized plan root can be executed by
  the row runtime unchanged.

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
    """Hash join over key columns (equi joins only; the planner falls
    back to the row engine for theta joins)."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        left = mq.row_count(self.left)
        right = mq.row_count(self.right)
        memory = right * mq.average_row_size(self.right)
        return RelOptCost(rows, (left + right) * VECTOR_CPU_FACTOR,
                          memory * 0.01)


class VectorizedAggregate(VectorizedRel, Aggregate):
    """Hash aggregation with columnar accumulation fast paths."""

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


def _bridge_cost(bridge: Converter, mq) -> RelOptCost:
    """Engine bridges repackage rows in a single pass (chunking into or
    flattening out of batches); costing them like a full per-row
    operator — the generic Converter default — double-charged every
    adapter subtree (adapter converter + bridge) and priced vectorized
    federated plans out of the running.  The rows component is zero for
    the same reason: a bridge adds no cardinality of its own."""
    rows = mq.row_count(bridge.input)
    return RelOptCost(0.0, rows * VECTOR_CPU_FACTOR, 0.0)


class RowToBatch(VectorizedRel, Converter):
    """enumerable → vectorized: chunk a row iterator into batches."""

    def __init__(self, input_: RelNode,
                 out_traits: Optional[RelTraitSet] = None) -> None:
        super().__init__(input_, out_traits or _VEC_TRAITS)

    def compute_self_cost(self, mq) -> RelOptCost:
        return _bridge_cost(self, mq)


class BatchToRow(Converter):
    """vectorized → enumerable: flatten batches back into row tuples."""

    def __init__(self, input_: RelNode,
                 out_traits: Optional[RelTraitSet] = None) -> None:
        super().__init__(input_, out_traits or RelTraitSet(ENUMERABLE))

    def compute_self_cost(self, mq) -> RelOptCost:
        return _bridge_cost(self, mq)

    def execute_rows(self, ctx):
        from .batch import RowStream
        return RowStream.of(self._batch_stream(ctx))

    def _batch_stream(self, ctx):
        from .executor import execute_batches
        yield from execute_batches(self.input, ctx)


# ---------------------------------------------------------------------------
# Converter rules: logical → vectorized, plus the two engine bridges
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
    """Equi joins become batch hash joins; theta joins stay row-based
    (the BatchToRow/RowToBatch bridges splice the engines together)."""

    def __init__(self) -> None:
        super().__init__(LogicalJoin, Convention.NONE, VECTORIZED,
                         "VectorizedJoinRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        info = rel.analyze_condition()
        if not info.left_keys or info.non_equi:
            return None
        return VectorizedHashJoin(
            _vec_input(call, rel.left), _vec_input(call, rel.right),
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
    """Lift any enumerable (row-producing) expression into batches.

    This is the universal fallback that lets adapters without a
    vectorized implementation participate in a vectorized plan.
    """

    def __init__(self) -> None:
        super().__init__(RelNode, ENUMERABLE, VECTORIZED, "RowToBatchRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        if isinstance(rel, BatchToRow):
            return None  # its set already has a vectorized member
        return RowToBatch(call.convert_input(rel, RelTraitSet(ENUMERABLE)))


class BatchToRowRule(ConverterRule):
    """Flatten any vectorized expression back into an enumerable one."""

    def __init__(self) -> None:
        super().__init__(RelNode, VECTORIZED, ENUMERABLE, "BatchToRowRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        if isinstance(rel, RowToBatch):
            return None  # its set already has an enumerable member
        return BatchToRow(call.convert_input(rel, _VEC_TRAITS))


def vectorized_rules() -> List[ConverterRule]:
    """Converter rules from the logical (and row) conventions into the
    vectorized convention, plus the batch→row fallback bridge."""
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
        BatchToRowRule(),
    ]
