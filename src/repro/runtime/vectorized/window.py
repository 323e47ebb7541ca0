"""Window functions (Section 4's window operator): the one definition
both engines run.

:func:`eval_over_column` evaluates one windowed call over whole
columns.  :class:`VectorizedWindow` hands it its input gathered into one
compact :class:`~.batch.ColumnBatch`; the row engine's window operator
(:func:`repro.runtime.operators._window`) hands it its rows pivoted into
list columns.  Every partition/order/argument expression is evaluated
once over whole columns.  The rows are then put in one global order,
each partition a contiguous run of it (:func:`window_runs`: window order
once over all rows, then a stable sort by partition number), and one
kernel per expression walks that ordering, resetting at run boundaries:

* ROW_NUMBER / RANK / DENSE_RANK — positional, frame-free;
* LAG / LEAD — ordered-offset addressing with an optional default;
* COUNT / SUM / AVG / MIN / MAX — a frame starting at the partition's
  first row is a running accumulation, after which each row of a peer
  group takes the group's last value (RANGE .. CURRENT ROW) or each row
  of a run the run's last (.. UNBOUNDED FOLLOWING); any other frame is a
  slice of the run per row, ROWS by position and RANGE by the first
  order key's values, in the key's direction.  Accumulation is always a
  left fold in partition order.

With no frame clause SQL's default applies (see
:meth:`repro.sql.to_rel.SqlToRelConverter._convert_over`): RANGE
UNBOUNDED PRECEDING .. CURRENT ROW with an ORDER BY, the whole partition
without one.

Over typed columns (:mod:`.typed`) — one PARTITION BY key or none,
and every ORDER BY key — the ordering is one stable ``lexsort`` instead,
and a running SUM over a typed column a ``cumsum`` that restarts at
each run, its peer fill a gather; every other kernel walks built-in
values.  The row engine's columns are lists, so it never loads numpy.

The operator appends its result columns after the pass-through input
fields, so any hash distribution of the input remains valid above the
window; the exchange-insertion pass (:mod:`.parallel_rules`) exploits
this to run windows shard-local on co-partitioned inputs.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ...core.cost import RelOptCost
from ...core.rel import LogicalWindow, RelNode, Window
from ...core.rex import RANKING_KINDS, RexOver, RexWindowBound, SqlKind
from ...core.rex_eval import (
    EvalContext,
    RexExecutionError,
    compile as compile_row_rex,
)
from ..operators import ExecutionContext
from .batch import ColumnBatch, is_array, pylist
from .expr import Frame, as_column, compile_rex
from .nodes import _VEC_TRAITS, VECTORIZED, VectorizedRel
from ...core.rule import ConverterRule, RelOptRuleCall
from ...core.traits import Convention

#: Window function kinds both engines implement; any other fails at run
#: time.
WINDOW_KINDS = RANKING_KINDS | {
    SqlKind.LAG, SqlKind.LEAD,
    SqlKind.COUNT, SqlKind.SUM, SqlKind.AVG, SqlKind.MIN, SqlKind.MAX,
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


def window_runs(n: int, partition_keys: Optional[Sequence[Any]],
                order_cols: Sequence[Sequence[Any]],
                order_keys: Sequence[Tuple[Any, bool]]
                ) -> Tuple[List[int], List[int]]:
    """The PARTITION BY and ORDER BY of a window: the ``n`` row
    positions of its input in one global order, each partition a
    contiguous run.

    Returns ``(ordered, bounds)``: partition ``j`` is
    ``ordered[bounds[j]:bounds[j + 1]]``.  ``partition_keys[i]`` is row
    ``i``'s PARTITION BY key (a tuple when there are several keys), None
    for no PARTITION BY; ``order_cols[k][i]`` is its ORDER BY key ``k``.

    All positions are put in window order once — one stable sort per
    ORDER BY key, last key first, keyed by the column itself.  NULLs
    sort as the largest value of either direction (the SQL default:
    NULLS LAST ascending, NULLS FIRST descending), so a column holding a
    NULL is keyed by ``(v is None, v)`` instead, and peers keep their
    input order.  Partitions are the groups of a dict over the keys (a
    NULL key is a partition of its own), numbered in first-seen order;
    a stable sort by partition number then gathers each one into a run
    without disturbing its window order.
    """
    ordered = list(range(n))
    for col, (_expr, desc) in reversed(list(zip(order_cols, order_keys))):
        if None in col:
            col = [(v is None, v) for v in col]
        ordered.sort(key=col.__getitem__, reverse=desc)
    if partition_keys is None:
        return ordered, [0, n]
    sizes = Counter(partition_keys)
    number = dict(zip(sizes, itertools.count()))
    ordered.sort(key=list(map(number.__getitem__, partition_keys)).__getitem__)
    return ordered, list(itertools.accumulate(sizes.values(), initial=0))


def _column(expr: Any, frame: Frame) -> Any:
    return as_column(compile_rex(expr)(frame), frame.num_rows)


def eval_over_column(over: RexOver, frame: Frame,
                     eval_ctx: EvalContext) -> Any:
    """One window expression over a whole (compact) frame → one column
    (an array when the typed running sum computed it)."""
    kind = over.op.kind
    if kind not in WINDOW_KINDS:
        raise RexExecutionError(
            f"window aggregate {over.op.name} not supported")
    n = frame.num_rows
    key_cols = [_column(k, frame) for k in over.partition_keys]
    order_cols = [_column(k, frame) for k, _desc in over.order_keys]
    arg_cols = [_column(o, frame) for o in over.operands]
    # A frame from the partition's first row to the current row, or to
    # the end of its run, is a running value; under RANGE, or to the
    # end of the run, each group of rows (the row's peers, or the whole
    # run) then takes the value of the group's last row.
    to_end = over.upper.bound_kind == "UNBOUNDED_FOLLOWING"
    running = (over.lower.bound_kind == "UNBOUNDED_PRECEDING"
               and (to_end or over.upper.bound_kind == "CURRENT_ROW"))
    fill = to_end or not over.rows
    typed_runs = None
    if len(key_cols) <= 1 and any(map(is_array, key_cols + order_cols)):
        from . import typed
        typed_runs = typed.window_runs(key_cols[0] if key_cols else None,
                                       order_cols,
                                       [desc for _k, desc in over.order_keys])
    if typed_runs is not None:
        ordered, bounds = typed_runs
        if running and kind is SqlKind.SUM:
            out = typed.running_sum(ordered, bounds, arg_cols[0])
            if out is not None:
                if fill:
                    typed.fill_peers(out, ordered, bounds,
                                     [] if to_end else order_cols)
                return out
        ordered, bounds = ordered.tolist(), bounds.tolist()
    key_cols = [pylist(c) for c in key_cols]
    order_cols = [pylist(c) for c in order_cols]
    arg_cols = [pylist(c) for c in arg_cols]
    if typed_runs is None:
        keys = (None if not key_cols else key_cols[0] if len(key_cols) == 1
                else list(zip(*key_cols)))
        ordered, bounds = window_runs(n, keys, order_cols, over.order_keys)
    runs = list(zip(bounds, bounds[1:]))
    results: List[Any] = [None] * n
    arg_col = arg_cols[0] if arg_cols else None  # None: COUNT(*)
    if kind in RANKING_KINDS:
        _ranking_kernel(kind, ordered, runs, order_cols, results)
    elif kind in (SqlKind.LAG, SqlKind.LEAD):
        _lag_lead_kernel(kind, ordered, runs, arg_cols, results)
    elif running:
        _running_kernel(kind, ordered, runs, arg_col, results)
        if fill:
            _fill_peers(results, ordered, runs,
                        _peer_keys([] if to_end else order_cols, n))
    else:
        frames = (_rows_frames(over, eval_ctx) if over.rows
                  else _range_frames(over, frame, order_cols))
        _agg_kernel(kind, ordered, runs, arg_col, frames, results)
    return results


def _peer_keys(order_cols: List[list], n: int) -> Sequence[Any]:
    """Each row's ORDER BY values, as peers are found by: the value for
    one key, a tuple for several, ``()`` (every row a peer) for none.
    Peers are identical or equal values."""
    if len(order_cols) == 1:
        return order_cols[0]
    return list(zip(*order_cols)) if order_cols else [()] * n


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
    peer_key = _peer_keys(order_cols, len(results))
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


def _running_kernel(kind: SqlKind, ordered: List[int], runs: Runs,
                    arg_col: Optional[list], results: List[Any]) -> None:
    """``UNBOUNDED PRECEDING .. CURRENT ROW`` by position: accumulate in
    partition order instead of recomputing each growing frame."""
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


def _fill_peers(results: List[Any], ordered: List[int], runs: Runs,
                peer_key: Sequence[Any]) -> None:
    """Each peer group of each run takes the value of its last row."""
    for start, end in runs:
        run = ordered[start:end]
        last = [results[run[hi - 1]] for hi in _peer_groups(run, peer_key)[1]]
        for row_idx, value in zip(run, last):
            results[row_idx] = value


#: The frames of one run: its row positions, the run's ordering, to the
#: ``(lo, hi)`` slice of that ordering each row's frame is.
FrameSlices = Callable[[List[int]], Iterator[Tuple[int, int]]]


def _agg_kernel(kind: SqlKind, ordered: List[int], runs: Runs,
                arg_col: Optional[list], frames: FrameSlices,
                results: List[Any]) -> None:
    """Any other frame: each row's frame is a slice of its partition's
    run, folded on its own."""
    for start, end in runs:
        run = ordered[start:end]
        for row_idx, (lo, hi) in zip(run, frames(run)):
            if arg_col is None:
                values: List[Any] = [1] * max(hi - lo, 0)
            else:
                values = [arg_col[i] for i in run[lo:hi]
                          if arg_col[i] is not None]
            results[row_idx] = _finish_agg(kind, values)


def _finish_agg(kind: SqlKind, values: List[Any]) -> Any:
    if kind is SqlKind.COUNT:
        return len(values)
    if kind in (SqlKind.SUM, SqlKind.AVG):
        if not values:
            return None
        total = values[0]  # a left fold, as every other SUM/AVG
        for v in values[1:]:
            total += v
        return total / len(values) if kind is SqlKind.AVG else total
    if kind is SqlKind.MIN:
        return min(values) if values else None
    return max(values) if values else None  # MAX


def _row_step(bound: RexWindowBound, eval_ctx: EvalContext) -> Optional[int]:
    """A ROWS bound as a signed offset from the current row; None when
    unbounded."""
    kind = bound.bound_kind
    if kind.startswith("UNBOUNDED"):
        return None
    if kind == "CURRENT_ROW":
        return 0
    offset = int(compile_row_rex(bound.offset)((), eval_ctx))
    return -offset if kind == "PRECEDING" else offset


def _rows_frames(over: RexOver, eval_ctx: EvalContext) -> FrameSlices:
    """ROWS frames: the bounds' offsets from each row's position,
    clamped to the run."""
    lower = _row_step(over.lower, eval_ctx)
    upper = _row_step(over.upper, eval_ctx)

    def frames(run: List[int]) -> Iterator[Tuple[int, int]]:
        m = len(run)
        for pos in range(m):
            lo = 0 if lower is None else max(pos + lower, 0)
            hi = m if upper is None else min(max(pos + upper + 1, 0), m)
            yield lo, hi

    return frames


def _range_frames(over: RexOver, frame: Frame,
                  order_cols: List[list]) -> FrameSlices:
    """RANGE frames.  A run is sorted by its first ORDER BY key, so a
    frame is the slice between two edges: an UNBOUNDED bound is the
    run's edge, CURRENT ROW the edge of the row's peers, and an offset
    bound the edge of the values within the offset of the row's value,
    counted in the key's direction (a DESC key's PRECEDING values are
    the larger ones).  NULLs sort largest, so they are a block at one
    end of the run: a NULL has no value to offset from, and an offset
    bound of a NULL row stops at the edge of its NULL peers, as one of a
    non-NULL row stops short of the NULLs.  With no ORDER BY every row
    is a peer of every other."""
    desc = bool(over.order_keys) and over.order_keys[0][1]
    before = operator.gt if desc else operator.lt
    peer_key = _peer_keys(order_cols, frame.num_rows)
    lower_offsets, upper_offsets = (
        pylist(_column(b.offset, frame)) if b.offset is not None else None
        for b in (over.lower, over.upper))

    def frames(run: List[int]) -> Iterator[Tuple[int, int]]:
        m = len(run)
        keys = ([order_cols[0][i] for i in run] if order_cols
                else [None] * m)
        nulls = keys.count(None)
        a, b = (nulls, m) if desc else (0, m - nulls)  # the non-NULL block
        group_lo, group_hi = _peer_groups(run, peer_key)

        def edge(pos: int, bound: RexWindowBound, offsets: Optional[list],
                 upper: bool) -> int:
            kind = bound.bound_kind
            current = keys[pos]
            if kind == "UNBOUNDED_PRECEDING":
                return 0
            if kind == "UNBOUNDED_FOLLOWING":
                return m
            if kind == "CURRENT_ROW" or current is None:
                return group_hi[pos] if upper else group_lo[pos]
            delta = offsets[run[pos]]
            target = (current - delta if (kind == "PRECEDING") != desc
                      else current + delta)
            if upper:  # past the last value not after the target
                return _first(a, b, lambda p: before(target, keys[p]))
            # at the first value not before the target
            return _first(a, b, lambda p: not before(keys[p], target))

        for pos in range(m):
            yield (edge(pos, over.lower, lower_offsets, False),
                   edge(pos, over.upper, upper_offsets, True))

    return frames


def _peer_groups(run: List[int], peer_key: Sequence[Any]
                 ) -> Tuple[List[int], List[int]]:
    """For each position of a run, the ``[lo, hi)`` slice of its peers."""
    m = len(run)
    group_lo = [0] * m
    for pos in range(1, m):
        vals, prev = peer_key[run[pos]], peer_key[run[pos - 1]]
        peer = vals is prev or vals == prev
        group_lo[pos] = group_lo[pos - 1] if peer else pos
    group_hi = [m] * m
    for pos in range(m - 2, -1, -1):
        peer = group_lo[pos + 1] <= pos
        group_hi[pos] = group_hi[pos + 1] if peer else pos + 1
    return group_lo, group_hi


def _first(lo: int, hi: int, pred: Callable[[int], bool]) -> int:
    """The first position in ``[lo, hi)`` where ``pred`` holds (``hi``
    if none), for a ``pred`` that holds from some position on."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
