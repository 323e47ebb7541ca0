"""Batch-at-a-time execution of vectorized operator trees.

The columnar twin of :mod:`repro.runtime.operators`: where the row
runtime interprets one tuple at a time, :func:`execute_batches` streams
:class:`ColumnBatch` values through the plan.  Per-operator semantics
(NULL handling, join matching, sort stability) deliberately mirror the
row engine so the two engines are differentially testable against each
other.

Pipelining operators (scan / filter / project / the probe side of a
hash join) stream batches; blocking operators (aggregate, sort, window,
the build side of a hash join) gather their input into one batch first.
The joins the hash join declines, INTERSECT and EXCEPT keep one
definition, the row engine's, and rebatch its rows; aggregates and
windows have one definition over columns (:mod:`.aggregate`,
:mod:`.window`), which the row engine runs over its rows.

Over typed (int64) columns (:mod:`.typed`) the filter selects through
a mask and the inner hash join on one int64 key probes a sorted build
side; each is a branch of the operator's own function, taken only when
its inputs are arrays, with the list branch kept as the path for every
other column.
"""

from __future__ import annotations

import heapq
from itertools import compress, count, repeat
from operator import is_
from typing import Any, Dict, Iterator, List, Optional

from ...core.rel import JoinRelType, RelNode
from ...core.rex import RexInputRef
from ...core.rex_eval import EvalContext
from ..operators import (
    ExecutionContext,
    _execute,
    _intersect as row_intersect,
    _join as row_join,
    _minus as row_minus,
    row_sort_key,
    sort_rows,
)
from .batch import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    batches_from_rows,
    concat_batches,
    gather_columns,
    is_array,
    pylist,
)
from .aggregate import aggregate_columns
from .exchange import Exchange, InjectedStream, SingletonExchange
from .partitioned import PartitionedScan, PartitionedTableScan
from .expr import Frame, Scalar, as_column, compile_rex
from .nodes import (
    RowToBatch,
    VectorizedAggregate,
    VectorizedFilter,
    VectorizedHashJoin,
    VectorizedIntersect,
    VectorizedMinus,
    VectorizedProject,
    VectorizedSort,
    VectorizedTableScan,
    VectorizedThetaJoin,
    VectorizedUnion,
    VectorizedValues,
)
from .window import VectorizedWindow, window_batches


#: Operators with one definition, the row engine's: the vectorized node
#: runs it over its inputs' rows.
_ROW_OPERATORS = {
    VectorizedThetaJoin: row_join,
    VectorizedIntersect: row_intersect,
    VectorizedMinus: row_minus,
}


def execute_batches(rel: RelNode, ctx: Optional[ExecutionContext] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
    """Execute a vectorized operator tree, yielding column batches."""
    if ctx is None:
        ctx = ExecutionContext()
    if isinstance(rel, VectorizedTableScan):
        return _scan(rel, ctx, batch_size)
    if isinstance(rel, VectorizedFilter):
        return _filter(rel, ctx, batch_size)
    if isinstance(rel, VectorizedProject):
        return _project(rel, ctx, batch_size)
    if isinstance(rel, VectorizedHashJoin):
        return _hash_join(rel, ctx, batch_size)
    row_operator = _ROW_OPERATORS.get(type(rel))
    if row_operator is not None:
        # The row engine's operator over the inputs' rows, rebatched.
        return batches_from_rows(row_operator(rel, ctx),
                                 rel.row_type.field_count, batch_size)
    if isinstance(rel, VectorizedAggregate):
        return _aggregate(rel, ctx, batch_size)
    if isinstance(rel, VectorizedSort):
        return _sort(rel, ctx, batch_size)
    if isinstance(rel, VectorizedUnion):
        return _union(rel, ctx, batch_size)
    if isinstance(rel, VectorizedValues):
        return _values(rel)
    if isinstance(rel, VectorizedWindow):
        return window_batches(rel, ctx, batch_size)
    if isinstance(rel, (InjectedStream, PartitionedTableScan)):
        # A partition stream the parallel scheduler feeds, or one shard
        # an adapter serves.
        return rel.open(ctx, batch_size)
    if isinstance(rel, SingletonExchange):
        # Gather point of a parallel region: run the workers below.
        from .parallel import gather_batches
        return gather_batches(rel, ctx, batch_size)
    if isinstance(rel, (Exchange, PartitionedScan)):
        # Any other exchange (or a partitioned scan's unpartitioned
        # template) reached serially is a no-op: distribution is
        # placement, and one stream is every placement at once.
        return execute_batches(rel.input, ctx, batch_size)
    if isinstance(rel, RowToBatch):
        # Engine bridge: pull rows from the row runtime and re-batch.
        return batches_from_rows(_execute(rel.input, ctx),
                                 rel.row_type.field_count, batch_size)
    # Any other node (adapter physical rel reached without a bridge,
    # row-only operators): execute through the row runtime and chunk.
    return batches_from_rows(_execute(rel, ctx), rel.row_type.field_count,
                             batch_size)


def _gather_input(rel: RelNode, ctx: ExecutionContext,
                  batch_size: int) -> ColumnBatch:
    """Materialise an input subtree into one compact batch."""
    return concat_batches(execute_batches(rel, ctx, batch_size),
                          rel.row_type.field_count)


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------

def _scan(rel: VectorizedTableScan, ctx: ExecutionContext,
          batch_size: int) -> Iterator[ColumnBatch]:
    source = rel.table.source
    if source is None:
        raise ValueError(f"table {rel.table.name} has no backing source")
    from ...adapters.resilience import resilient_chunks, resilient_rows
    chunks = source.scan_columns(batch_size)
    if chunks is None:
        return batches_from_rows(resilient_rows(ctx, source, source.scan),
                                 rel.row_type.field_count, batch_size)
    # The first attempt reads the chunks just opened; a retry reopens.
    opened = [chunks]

    def open_chunks():
        return opened.pop() if opened else source.scan_columns(batch_size)
    return (ColumnBatch(columns, n)
            for columns, n in resilient_chunks(ctx, source, open_chunks))


def _filter(rel: VectorizedFilter, ctx: ExecutionContext,
            batch_size: int) -> Iterator[ColumnBatch]:
    predicate = compile_rex(rel.condition)
    eval_ctx = ctx.eval_context()
    for batch in execute_batches(rel.input, ctx, batch_size):
        compacted = batch.compact()
        if compacted.num_rows == 0:
            continue
        frame = Frame(compacted.columns, compacted.num_rows, eval_ctx)
        verdict = predicate(frame)
        if isinstance(verdict, Scalar):
            if verdict.value is True:
                yield compacted
            continue
        if isinstance(verdict, list):
            selection = list(compress(count(),
                                      map(is_, verdict, repeat(True))))
        else:  # a comparison's mask
            from . import typed
            selection = typed.true_positions(verdict)
        if len(selection):
            yield compacted.with_selection(selection)


def _project(rel: VectorizedProject, ctx: ExecutionContext,
             batch_size: int) -> Iterator[ColumnBatch]:
    if all(isinstance(p, RexInputRef) for p in rel.projects):
        # Pure column refs: pick the columns and keep the selection
        # vector, so nothing is copied.
        refs = [p.index for p in rel.projects]
        for batch in execute_batches(rel.input, ctx, batch_size):
            if batch.live_count:
                columns = batch.columns
                yield ColumnBatch([columns[i] for i in refs], batch.num_rows,
                                  batch.selection)
        return
    compiled = [compile_rex(p) for p in rel.projects]
    eval_ctx = ctx.eval_context()
    for batch in execute_batches(rel.input, ctx, batch_size):
        compacted = batch.compact()
        n = compacted.num_rows
        if n == 0:
            continue
        frame = Frame(compacted.columns, n, eval_ctx)
        yield ColumnBatch([as_column(fn(frame), n) for fn in compiled], n)


def _hash_join(rel: VectorizedHashJoin, ctx: ExecutionContext,
               batch_size: int) -> Iterator[ColumnBatch]:
    info = rel.analyze_condition()
    left_keys, right_keys = info.left_keys, info.right_keys
    join_type = rel.join_type

    # Build side: materialise the right input as columns.  For an inner
    # join on one int64 key column the key is indexed by sorting it
    # (typed.KeyIndex); anything else, and any probe batch whose key is
    # not an int64 array too, goes through a dict from key to positions,
    # built on first use.
    right = _gather_input(rel.right, ctx, batch_size)
    right_cols = right.columns
    typed_index = None
    if join_type is JoinRelType.INNER and len(right_keys) == 1 \
            and is_array(right_cols[right_keys[0]]):
        from . import typed
        typed_index = typed.KeyIndex(right_cols[right_keys[0]])
    dict_index: Optional[Dict[Any, List[int]]] = None

    # Right positions some probe row matched (RIGHT/FULL only).
    right_matched: Optional[set] = None
    if join_type.generates_nulls_on_left:
        right_matched = set()
    keep_unmatched = join_type.generates_nulls_on_right

    for batch in execute_batches(rel.left, ctx, batch_size):
        left = batch.compact()
        if left.num_rows == 0:
            continue
        if typed_index is not None and is_array(left.columns[left_keys[0]]):
            left_idx, right_idx = typed_index.pairs(
                left.columns[left_keys[0]])
            if len(left_idx):
                yield ColumnBatch(gather_columns(left.columns, left_idx)
                                  + gather_columns(right_cols, right_idx),
                                  len(left_idx))
            continue
        if dict_index is None:
            dict_index = _dict_index(right_cols, right_keys)
        # A NULL key (or a tuple holding one) is never in the index.
        matches = list(map(dict_index.get,
                           _join_keys(left.columns, left_keys)))
        if not join_type.projects_right:  # SEMI / ANTI: left columns only
            want = join_type is JoinRelType.SEMI
            selection = [i for i, m in enumerate(matches)
                         if (m is not None) is want]
            if selection:
                yield left.with_selection(selection)
            continue
        padded = keep_unmatched and None in matches
        if padded:
            matches = [_UNMATCHED if m is None else m for m in matches]
        left_idx = [i for i, m in enumerate(matches) if m is not None
                    for _ in m]
        if not left_idx:
            continue
        right_idx = [j for m in matches if m is not None for j in m]
        if right_matched is not None:
            right_matched.update(right_idx)
        out_cols = gather_columns(left.columns, left_idx)
        if padded:
            out_cols.extend([None if j is None else col[j] for j in right_idx]
                            for col in map(pylist, right_cols))
        else:
            out_cols.extend(gather_columns(right_cols, right_idx))
        yield ColumnBatch(out_cols, len(left_idx))

    if right_matched is not None:
        unmatched = [j for j in range(right.num_rows)
                     if j not in right_matched]
        if unmatched:
            n_left_fields = rel.left.row_type.field_count
            out_cols = [[None] * len(unmatched) for _ in range(n_left_fields)]
            out_cols.extend(gather_columns(right_cols, unmatched))
            yield ColumnBatch(out_cols, len(unmatched))


#: A probe row an outer join keeps without a match: one NULL-padded row.
_UNMATCHED = (None,)


def _dict_index(columns: List[Any], keys: List[int]) -> Dict[Any, List[int]]:
    """Key -> build positions holding it, in build order; NULL keys
    (and key tuples holding one) are left out, as they never match."""
    multi_key = len(keys) > 1
    index: Dict[Any, List[int]] = {}
    for j, key in enumerate(_join_keys(columns, keys)):
        if key is None or (multi_key and None in key):
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = [j]
        else:
            bucket.append(j)
    return index


def _join_keys(columns: List[Any], keys: List[int]):
    """Per-row join keys as built-in values: the key column itself for
    one key, tuples for several."""
    if len(keys) == 1:
        return pylist(columns[keys[0]])
    return zip(*[pylist(columns[k]) for k in keys])


# -- aggregation --------------------------------------------------------------

def _aggregate(rel: VectorizedAggregate, ctx: ExecutionContext,
               batch_size: int) -> Iterator[ColumnBatch]:
    batch = _gather_input(rel.input, ctx, batch_size)
    yield ColumnBatch(*aggregate_columns(batch.columns, batch.num_rows,
                                         rel.group_set, rel.agg_calls))


#: Bound under which a LIMIT with a collation uses the top-N heap
#: instead of a full materialise-and-sort.
TOP_N_HEAP_MAX = 4096


def _sort(rel: VectorizedSort, ctx: ExecutionContext,
          batch_size: int) -> Iterator[ColumnBatch]:
    if rel.is_pure_limit():
        # LIMIT/OFFSET with no collation: stream batches, slicing
        # columns in place, and stop pulling input once satisfied —
        # no materialisation and no row conversion.
        yield from _limit_stream(rel, ctx, batch_size)
        return
    offset = rel.offset or 0
    if rel.fetch is not None and offset + rel.fetch <= TOP_N_HEAP_MAX:
        # Small LIMIT under an ORDER BY: keep only the top offset+fetch
        # rows in a bounded heap while streaming the input.
        # heapq.nsmallest is stable (== sorted(...)[:n]), matching the
        # row engine's sort exactly.
        def rows():
            for batch in execute_batches(rel.input, ctx, batch_size):
                yield from batch.to_rows()

        top = heapq.nsmallest(offset + rel.fetch, rows(),
                              key=row_sort_key(rel.collation))
        yield ColumnBatch.from_rows(top[offset:], rel.row_type.field_count)
        return
    batch = _gather_input(rel.input, ctx, batch_size)
    rows = sort_rows(batch.to_rows(), rel.collation)
    if offset:
        rows = rows[offset:]
    if rel.fetch is not None:
        rows = rows[: rel.fetch]
    yield ColumnBatch.from_rows(rows, rel.row_type.field_count)


def _limit_stream(rel: VectorizedSort, ctx: ExecutionContext,
                  batch_size: int) -> Iterator[ColumnBatch]:
    to_skip = rel.offset or 0
    remaining = rel.fetch  # None = unbounded
    if remaining is not None and remaining <= 0:
        return
    for batch in execute_batches(rel.input, ctx, batch_size):
        compacted = batch.compact()
        n = compacted.num_rows
        if n == 0:
            continue
        if to_skip:
            if n <= to_skip:
                to_skip -= n
                continue
            compacted = ColumnBatch(
                [col[to_skip:] for col in compacted.columns], n - to_skip)
            n -= to_skip
            to_skip = 0
        if remaining is not None and n >= remaining:
            yield ColumnBatch(
                [col[:remaining] for col in compacted.columns], remaining)
            return  # early exit: stop pulling the input
        if remaining is not None:
            remaining -= n
        yield compacted


def _values(rel: VectorizedValues) -> Iterator[ColumnBatch]:
    rows = [tuple(lit.value for lit in row) for row in rel.tuples]
    yield ColumnBatch.from_rows(rows, rel.row_type.field_count)


def _union(rel: VectorizedUnion, ctx: ExecutionContext,
           batch_size: int) -> Iterator[ColumnBatch]:
    if rel.all:
        for i in rel.inputs:
            yield from execute_batches(i, ctx, batch_size)
        return
    seen: set = set()
    field_count = rel.row_type.field_count
    for i in rel.inputs:
        for batch in execute_batches(i, ctx, batch_size):
            # dict.fromkeys keeps each batch's first of equal rows, in order
            out = [row for row in dict.fromkeys(batch.iter_rows())
                   if row not in seen]
            if out:
                seen.update(out)
                yield ColumnBatch.from_rows(out, field_count)
