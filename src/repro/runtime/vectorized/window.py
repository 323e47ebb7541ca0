"""Vectorized window execution (Section 4's window operator, columnar).

:class:`VectorizedWindow` is the batch twin of the row engine's window
interpreter (:func:`repro.runtime.operators._window`): it gathers its
input into one compact :class:`~.batch.ColumnBatch` and evaluates every
partition/order/argument expression once over whole columns.  The rows
are then put in one global order, each partition a contiguous run of
it (:func:`repro.runtime.operators.window_runs`, shared with the row
engine: window order once over all rows, then a stable sort by
partition number), and one kernel per expression walks that ordering,
resetting at run boundaries:

* ROW_NUMBER / RANK / DENSE_RANK — positional, frame-free;
* LAG / LEAD — ordered-offset addressing with an optional default;
* COUNT / SUM / SUM0 / AVG / MIN / MAX — over ROWS frames, with a
  running-accumulation fast path for the common
  ``UNBOUNDED PRECEDING .. CURRENT ROW`` frame, and RANGE frames over
  the first order key.  Accumulation order is partition order, so
  float results agree with the row engine bit for bit.

Over typed columns (:mod:`.typed`) — one PARTITION BY key or none,
and every ORDER BY key — the ordering is one stable ``lexsort`` instead,
and a running SUM/SUM0 over a typed column a ``cumsum`` that restarts
at each run; every other kernel walks built-in values.

Semantics — NULL ordering, tie handling, frame clamping, NULL-skipping
accumulation — deliberately mirror the row engine so the two engines
stay differentially testable against each other.

The operator appends its result columns after the pass-through input
fields, so any hash distribution of the input remains valid above the
window; the exchange-insertion pass (:mod:`.parallel_rules`) exploits
this to run windows shard-local on co-partitioned inputs.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from ...core.cost import RelOptCost
from ...core.rel import LogicalWindow, RelNode, Window
from ...core.rex import RANKING_KINDS, RexOver, SqlKind
from ...core.rex_eval import (
    EvalContext,
    RexExecutionError,
    compile as compile_row_rex,
)
from ..operators import ExecutionContext, null_key_range_frame, window_runs
from .batch import ColumnBatch, is_array, pylist
from .expr import Frame, as_column, compile_rex
from .nodes import _VEC_TRAITS, VECTORIZED, VectorizedRel
from ...core.rule import ConverterRule, RelOptRuleCall
from ...core.traits import Convention

#: Window function kinds both engines implement; any other fails at run
#: time, as on the row engine.
WINDOW_KINDS = RANKING_KINDS | {
    SqlKind.LAG, SqlKind.LEAD,
    SqlKind.COUNT, SqlKind.SUM, SqlKind.SUM0, SqlKind.AVG,
    SqlKind.MIN, SqlKind.MAX,
}


#: A window's partitions as ``(start, end)`` slices of its row ordering.
Runs = List[Tuple[int, int]]


class VectorizedWindow(VectorizedRel, Window):
    """Blocking columnar window operator."""

    def compute_self_cost(self, mq) -> RelOptCost:
        from .nodes import VECTOR_CPU_FACTOR
        rows = mq.row_count(self)
        return RelOptCost(
            rows, rows * (1 + len(self.window_exprs)) * VECTOR_CPU_FACTOR, 0.0)


class VectorizedWindowRule(ConverterRule):
    """LogicalWindow → VectorizedWindow."""

    def __init__(self) -> None:
        super().__init__(LogicalWindow, Convention.NONE, VECTORIZED,
                         "VectorizedWindowRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return VectorizedWindow(call.convert_input(rel.input, _VEC_TRAITS),
                                rel.window_exprs, rel.field_names, _VEC_TRAITS)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def window_batches(rel: VectorizedWindow, ctx: ExecutionContext,
                   batch_size: int) -> Iterator[ColumnBatch]:
    """Execute a window operator: one output batch, input columns first,
    one appended column per window expression."""
    from .executor import _gather_input
    batch = _gather_input(rel.input, ctx, batch_size)
    n = batch.num_rows
    if n == 0:
        yield ColumnBatch.empty(rel.row_type.field_count)
        return
    eval_ctx = ctx.eval_context()
    frame = Frame(batch.columns, n, eval_ctx)
    columns = list(batch.columns)
    for over in rel.window_exprs:
        columns.append(eval_over_column(over, frame, eval_ctx))
    yield ColumnBatch(columns, n)


def _column(expr: Any, frame: Frame) -> Any:
    return as_column(compile_rex(expr)(frame), frame.num_rows)


def eval_over_column(over: RexOver, frame: Frame,
                     eval_ctx: EvalContext) -> Any:
    """One window expression over a whole (compact) frame → one column
    (an array when the typed running sum computed it)."""
    if over.op.kind not in WINDOW_KINDS:
        raise RexExecutionError(
            f"window aggregate {over.op.name} not supported")
    n = frame.num_rows
    key_cols = [_column(k, frame) for k in over.partition_keys]
    order_cols = [_column(k, frame) for k, _desc in over.order_keys]
    arg_cols = [_column(o, frame) for o in over.operands]
    kind = over.op.kind
    running = (over.rows
               and over.lower.bound_kind == "UNBOUNDED_PRECEDING"
               and over.upper.bound_kind == "CURRENT_ROW")
    typed_runs = None
    if len(key_cols) <= 1 and any(map(is_array, key_cols + order_cols)):
        from . import typed
        typed_runs = typed.window_runs(key_cols[0] if key_cols else None,
                                       order_cols,
                                       [desc for _k, desc in over.order_keys])
    if typed_runs is not None:
        ordered, bounds = typed_runs
        if running and kind in (SqlKind.SUM, SqlKind.SUM0):
            out = typed.running_sum(ordered, bounds, arg_cols[0])
            if out is not None:
                return out
        ordered, bounds = ordered.tolist(), bounds.tolist()
    key_cols = [pylist(c) for c in key_cols]
    order_cols = [pylist(c) for c in order_cols]
    arg_cols = [pylist(c) for c in arg_cols]
    if typed_runs is None:
        keys = (None if not key_cols else key_cols[0] if len(key_cols) == 1
                else list(zip(*key_cols)))
        ordered, bounds = window_runs(n, keys, order_cols, over.order_keys)
    range_offsets = None
    if not over.rows:
        # RANGE offsets are evaluated against the current row (they are
        # almost always literals, but mirror the row engine regardless).
        range_offsets = (
            pylist(_column(over.lower.offset, frame))
            if over.lower.offset is not None else None,
            pylist(_column(over.upper.offset, frame))
            if over.upper.offset is not None else None)
    runs = list(zip(bounds, bounds[1:]))
    results: List[Any] = [None] * n
    if kind in RANKING_KINDS:
        _ranking_kernel(kind, ordered, runs, order_cols, results)
    elif kind in (SqlKind.LAG, SqlKind.LEAD):
        _lag_lead_kernel(kind, ordered, runs, arg_cols, results)
    elif running:
        arg_col = arg_cols[0] if arg_cols else None  # None: COUNT(*)
        _running_kernel(kind, ordered, runs, arg_col, results)
    else:
        _agg_kernel(over, ordered, runs, arg_cols, order_cols, range_offsets,
                    results, eval_ctx)
    return results


#: Compares unequal to every ORDER BY value: the first row of a run
#: starts a new peer group.
_NO_PEER = object()


def _ranking_kernel(kind: SqlKind, ordered: List[int], runs: Runs,
                    order_cols: List[list], results: List[Any]) -> None:
    if kind is SqlKind.ROW_NUMBER:
        for start, end in runs:
            for number, row_idx in enumerate(ordered[start:end], 1):
                results[row_idx] = number
        return
    # Peers compare as the row engine's ORDER BY tuples do: identical
    # or equal values.
    if len(order_cols) == 1:
        peer_key = order_cols[0]
    else:
        peer_key = list(zip(*order_cols)) if order_cols else [()] * len(results)
    dense_only = kind is SqlKind.DENSE_RANK
    for start, end in runs:
        rank = dense = 0
        prev: Any = _NO_PEER
        for pos in range(start, end):
            row_idx = ordered[pos]
            vals = peer_key[row_idx]
            if vals is not prev and vals != prev:
                rank = pos - start + 1
                dense += 1
                prev = vals
            results[row_idx] = dense if dense_only else rank


def _lag_lead_kernel(kind: SqlKind, ordered: List[int], runs: Runs,
                     arg_cols: List[list], results: List[Any]) -> None:
    step = -1 if kind is SqlKind.LAG else 1
    value_col = arg_cols[0]
    offsets = arg_cols[1] if len(arg_cols) > 1 else None
    defaults = arg_cols[2] if len(arg_cols) > 2 else None
    for start, end in runs:
        for pos in range(start, end):
            row_idx = ordered[pos]
            offset = 1
            if offsets is not None:
                off = offsets[row_idx]
                offset = 1 if off is None else int(off)
            target = pos + step * offset
            if start <= target < end:
                results[row_idx] = value_col[ordered[target]]
            elif defaults is not None:
                results[row_idx] = defaults[row_idx]
            # else: stays None (no default outside the partition)


def _agg_kernel(over: RexOver, ordered: List[int], runs: Runs,
                arg_cols: List[list], order_cols: List[list], range_offsets,
                results: List[Any], eval_ctx: EvalContext) -> None:
    """Any other frame: each row's frame is a slice of its partition's
    run (ROWS) or the run's rows within a key range (RANGE)."""
    kind = over.op.kind
    arg_col = arg_cols[0] if arg_cols else None  # None: COUNT(*)
    for start, end in runs:
        run = ordered[start:end]
        m = end - start
        for pos, row_idx in enumerate(run):
            if over.rows:
                lo = max(_bound_pos(over.lower, pos, m, eval_ctx), 0)
                hi = min(_bound_pos(over.upper, pos, m, eval_ctx), m - 1)
                frame_idx = run[lo: hi + 1] if lo <= hi else []
            else:
                frame_idx = _range_frame(over, run, pos, order_cols,
                                         range_offsets)
            if arg_col is None:
                values: List[Any] = [1] * len(frame_idx)
            else:
                values = [arg_col[i] for i in frame_idx
                          if arg_col[i] is not None]
            results[row_idx] = _finish_agg(kind, values)


def _running_kernel(kind: SqlKind, ordered: List[int], runs: Runs,
                    arg_col: Optional[list], results: List[Any]) -> None:
    """``ROWS UNBOUNDED PRECEDING .. CURRENT ROW``: accumulate in
    partition order instead of recomputing each growing frame —
    identical accumulation order, so floats agree with the row engine."""
    if kind in (SqlKind.MIN, SqlKind.MAX):
        pick = min if kind is SqlKind.MIN else max
        for start, end in runs:
            best: Any = None
            for row_idx in ordered[start:end]:
                v = arg_col[row_idx]
                if v is not None:
                    best = v if best is None else pick(best, v)
                results[row_idx] = best
        return
    if arg_col is None:
        for start, end in runs:
            for number, row_idx in enumerate(ordered[start:end], 1):
                results[row_idx] = number
        return
    if kind is SqlKind.COUNT:
        for start, end in runs:
            count = 0
            for row_idx in ordered[start:end]:
                if arg_col[row_idx] is not None:
                    count += 1
                results[row_idx] = count
        return
    average = kind is SqlKind.AVG
    for start, end in runs:
        count = 0
        total: Any = None
        for row_idx in ordered[start:end]:
            v = arg_col[row_idx]
            if v is not None:
                count += 1
                total = v if total is None else total + v
            # AVG of no values is NULL, as is SUM's total.
            results[row_idx] = total / count if average and count else total
    if kind is SqlKind.SUM0:
        results[:] = [0 if t is None else t for t in results]


def _finish_agg(kind: SqlKind, values: List[Any]) -> Any:
    if kind is SqlKind.COUNT:
        return len(values)
    if kind in (SqlKind.SUM, SqlKind.SUM0, SqlKind.AVG):
        if not values:
            return 0 if kind is SqlKind.SUM0 else None
        total = values[0]  # a left fold, as the row engine's
        for v in values[1:]:
            total += v
        return total / len(values) if kind is SqlKind.AVG else total
    if kind is SqlKind.MIN:
        return min(values) if values else None
    return max(values) if values else None  # MAX


def _bound_pos(bound: Any, pos: int, n: int, eval_ctx: EvalContext) -> int:
    kind = bound.bound_kind
    if kind == "UNBOUNDED_PRECEDING":
        return 0
    if kind == "UNBOUNDED_FOLLOWING":
        return n - 1
    if kind == "CURRENT_ROW":
        return pos
    offset = (compile_row_rex(bound.offset)((), eval_ctx)
              if bound.offset is not None else 0)
    return pos - int(offset) if kind == "PRECEDING" else pos + int(offset)


def _range_frame(over: RexOver, ordered: List[int], pos: int,
                 order_cols: List[list], range_offsets) -> List[int]:
    """RANGE frame over the first order key, mirroring the row engine
    (rows whose key is NULL never join a non-NULL row's frame)."""
    if not order_cols:
        return list(ordered)
    key_col = order_cols[0]
    row_idx = ordered[pos]
    current = key_col[row_idx]
    if current is None:
        return null_key_range_frame(over, ordered,
                                    lambda i: key_col[i] is None)
    lo_off_col, hi_off_col = range_offsets
    lo_val: Any = None
    hi_val: Any = current
    if over.lower.bound_kind == "PRECEDING" and lo_off_col is not None:
        lo_val = current - lo_off_col[row_idx]
    elif over.lower.bound_kind == "CURRENT_ROW":
        lo_val = current
    if over.upper.bound_kind == "UNBOUNDED_FOLLOWING":
        hi_val = None
    elif over.upper.bound_kind == "FOLLOWING" and hi_off_col is not None:
        hi_val = current + hi_off_col[row_idx]
    out: List[int] = []
    for i in ordered:
        v = key_col[i]
        if v is None:
            continue
        if lo_val is not None and v < lo_val:
            continue
        if hi_val is not None and v > hi_val:
            continue
        out.append(i)
    return out
