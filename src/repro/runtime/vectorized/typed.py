"""Typed integer columns and the numpy kernels that read them.

A *typed column* is a one-dimensional, read-only numpy int64 array.  A
memory table's columnar copy holds a column as one when every value in
it is an exact ``int`` within int64 (:func:`typed_column`); a column
holding a float, a string, a bool, a NULL, a mix of types or an int
beyond int64 stays a list, and so every float column does: float
grouping, dedup and joins see the table's own objects (a shared NaN
groups with itself, as in the row engine) and float sums stay the list
kernels' left folds.  Chunks and shard reads of the copy are slices or
``take`` gathers of the array, and so are the columns operators gather
from them.

This is the only module that imports numpy.  Everything else reaches it
through a function-level import, made only once a column actually is an
array, so ``import repro`` and every row-engine statement run without
numpy loaded; the first import happens when a memory table builds its
columnar copy for a vectorized scan.

Each kernel here is the typed branch of an operator whose list branch
stays the path for every other column (see the callers in :mod:`.expr`,
:mod:`.executor`, :mod:`.aggregate` and :mod:`.window`).  Where numpy
could disagree with Python arithmetic the kernel declines by returning
``None`` and the caller takes its list branch instead:

* int64 sums are taken only when no partial sum can leave int64, so
  nothing ever wraps;
* integer totals become Python ints before AVG divides them;
* comparisons and join keys are typed only between int64 operands:
  ``1`` against ``1.0`` is compared and matched by Python.

Values leave through ``tolist()``, which yields built-in ``int``
objects, never numpy scalars.
"""

from __future__ import annotations

import operator
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ...core.rex import SqlKind
from .expr import Scalar

INT64 = np.dtype(np.int64)
_INT64_MAX = 2 ** 63 - 1
_INT64_MIN = -(2 ** 63)


def typed_column(values: list) -> Any:
    """``values`` as a read-only int64 array when every value is an
    exact ``int`` within int64; the list itself otherwise (empty lists
    included)."""
    if not values or set(map(type, values)) != {int}:
        return values
    try:
        array = np.array(values, dtype=INT64)
    except OverflowError:
        return values
    array.flags.writeable = False
    return array


def as_column(vector: Any) -> Any:
    """An array result as a batch column: an int64 array as it is, any
    other array (a comparison's bool mask) as built-in values."""
    return vector if vector.dtype == INT64 else vector.tolist()


def is_typed(column: Any) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == INT64


# ---------------------------------------------------------------------------
# Gathers
# ---------------------------------------------------------------------------

def gather(columns: Sequence[Any], positions: Any) -> List[Any]:
    """Each column at ``positions`` (a list, range or index array): a
    ``take`` of every array, the values at those positions of every
    list."""
    index = np.asarray(positions, dtype=np.intp)
    listed: Optional[list] = None
    out: List[Any] = []
    for column in columns:
        if isinstance(column, np.ndarray):
            out.append(column.take(index))
        else:
            if listed is None:
                listed = index.tolist()
            out.append(list(map(column.__getitem__, listed)))
    return out


def concat(parts: List[Any]) -> Any:
    """One column from the same column of several batches: an array
    when every part is an array, built-in values otherwise."""
    if all(isinstance(p, np.ndarray) for p in parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    out: list = []
    for part in parts:
        out.extend(part.tolist() if isinstance(part, np.ndarray) else part)
    return out


def true_positions(mask: np.ndarray) -> np.ndarray:
    """A filter's selection: the positions where the verdict is TRUE."""
    if mask.dtype != np.bool_:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

_COMPARE = {
    operator.eq: np.equal,
    operator.ne: np.not_equal,
    operator.lt: np.less,
    operator.le: np.less_equal,
    operator.gt: np.greater,
    operator.ge: np.greater_equal,
}


def _operand(vector: Any) -> Any:
    """``vector`` as an operand of an int64 comparison, or None when it
    is not one (a NULL, a bool, a str, a float, an int beyond int64, a
    list)."""
    if isinstance(vector, Scalar):
        value = vector.value
        ok = type(value) is int and _INT64_MIN <= value <= _INT64_MAX
        return value if ok else None
    return vector if is_typed(vector) else None


def compare(fn: Any, a: Any, b: Any) -> Optional[np.ndarray]:
    """The bool mask of comparison ``fn`` over an int64 column and an
    int scalar or int64 column; None for anything else."""
    ufunc = _COMPARE.get(fn)
    if ufunc is None:
        return None
    x = _operand(a)
    y = _operand(b)
    if x is None or y is None:
        return None
    return ufunc(x, y)


# ---------------------------------------------------------------------------
# Grouping and aggregation
# ---------------------------------------------------------------------------

def _dense_codes(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value's rank among the column's distinct values, and the
    number of distinct values."""
    n = len(column)
    lo, hi = int(column.min()), int(column.max())
    if hi - lo <= 2 * n + 1024:
        offsets = column - lo  # within [0, hi - lo]: never wraps
        rank = np.cumsum(np.bincount(offsets) > 0) - 1
        return rank[offsets], int(rank[-1]) + 1
    distinct, codes = np.unique(column, return_inverse=True)
    return codes.reshape(-1), len(distinct)


def group_ids(columns: Sequence[Any]
              ) -> Optional[Tuple[np.ndarray, int, np.ndarray]]:
    """``(ids, k, firsts)`` for grouping on typed key columns: each row's
    group numbered in first-seen order (the order a dict over the key
    tuples keeps), the group count, and each group's first row.  None
    when a dict must group them (a list column, or no rows)."""
    if not columns or not all(map(is_typed, columns)):
        return None
    n = len(columns[0])
    if not n:
        return None
    codes, k = _dense_codes(columns[0])
    for column in columns[1:]:
        more, m = _dense_codes(column)
        if k * m > _INT64_MAX:
            return None
        codes, k = _dense_codes(codes * m + more)
    first = np.full(k, n, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(n))
    order = np.argsort(first)  # distinct positions: no ties
    number = np.empty(k, dtype=np.intp)
    number[order] = np.arange(k)
    return number[codes], k, first[order]


def zeros(n: int) -> np.ndarray:
    """Group ids of a global aggregate: every row in group 0."""
    return np.zeros(n, dtype=np.intp)


def _sum_fits(column: np.ndarray, terms: int) -> bool:
    """True when no sum of ``terms`` values of the column can leave
    int64 (``terms`` times the largest magnitude fits)."""
    if not len(column):
        return True
    biggest = max(-int(column.min()), int(column.max()))
    return biggest * terms <= _INT64_MAX


def accumulate(kind: SqlKind, column: Any, ids: np.ndarray,
               k: int) -> Optional[list]:
    """COUNT/SUM/SUM0/AVG/MIN/MAX of every group over a typed column
    (None: COUNT(*)), as built-in values; None to decline.  The column
    holds no NULL, so every group has at least one value."""
    if not (column is None or is_typed(column)):
        return None
    if column is None or kind is SqlKind.COUNT:
        return np.bincount(ids, minlength=k).tolist()
    if kind in (SqlKind.SUM, SqlKind.SUM0, SqlKind.AVG):
        if not _sum_fits(column, len(column)):
            return None
        totals = np.zeros(k, dtype=INT64)
        np.add.at(totals, ids, column)
        if kind is not SqlKind.AVG:
            return totals.tolist()
        counts = np.bincount(ids, minlength=k).tolist()
        return [t / c for t, c in zip(totals.tolist(), counts)]
    fill = _INT64_MAX if kind is SqlKind.MIN else _INT64_MIN
    best = np.full(k, fill, dtype=INT64)
    (np.minimum if kind is SqlKind.MIN else np.maximum).at(best, ids, column)
    return best.tolist()


# ---------------------------------------------------------------------------
# Hash join
# ---------------------------------------------------------------------------

class KeyIndex:
    """The build side of an inner equi-join on one int64 key: its
    positions stably sorted by key, so each key's matches are one slice
    of them, in build order."""

    def __init__(self, keys: np.ndarray) -> None:
        self.order = np.argsort(keys, kind="stable")
        self.sorted = keys.take(self.order)

    def pairs(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(left, right)``: every (probe row, build row) match, probe
        rows in order and each row's matches in build order, as a dict
        of position lists yields them."""
        lo = np.searchsorted(self.sorted, keys, side="left")
        counts = np.searchsorted(self.sorted, keys, side="right") - lo
        left = np.repeat(np.arange(len(keys)), counts)
        ends = np.cumsum(counts)
        # offset of each output row within its probe row's matches
        within = np.arange(len(left)) - np.repeat(ends - counts, counts)
        right = self.order.take(np.repeat(lo, counts) + within)
        return left, right


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def window_runs(partition: Any, order_cols: Sequence[Any],
                descending: Sequence[bool]
                ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`.window.window_runs` over typed columns,
    as ``(ordered, bounds)`` arrays: one stable ``lexsort`` keyed by the
    partition number (first-seen order) and then the ORDER BY keys,
    which orders peers by input position exactly as the successive
    stable sorts do.  None unless the one PARTITION BY column (or none)
    and every ORDER BY column is typed."""
    columns = list(order_cols) + ([] if partition is None else [partition])
    if not columns or not all(map(is_typed, columns)):
        return None
    # ~x = -x - 1 reverses int64 order without overflowing at the minimum
    keys = [~c if desc else c
            for c, desc in zip(order_cols, descending)][::-1]
    n = len(columns[0])
    if partition is None:
        bounds = np.array([0, n])
    else:
        ids, k, _ = group_ids([partition])
        keys.append(ids)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(ids,
                                                            minlength=k))))
    return np.lexsort(keys), bounds


def running_sum(ordered: np.ndarray, bounds: np.ndarray,
                column: Any) -> Optional[np.ndarray]:
    """``SUM(column) OVER (.. ROWS UNBOUNDED PRECEDING .. CURRENT ROW)``
    over a typed column, in row positions: one ``cumsum`` that restarts
    at each run; None to decline (a list column, or a sum that could
    leave int64)."""
    n = len(ordered)
    if not n or not is_typed(column) or not _sum_fits(column, n):
        return None
    starts = bounds[:-1]  # every run holds at least one row
    values = column.take(ordered)
    running = np.cumsum(values)
    base = running.take(starts) - values.take(starts)
    out = np.empty(n, dtype=INT64)
    out[ordered] = running - np.repeat(base, np.diff(bounds))
    return out


def fill_peers(out: np.ndarray, ordered: np.ndarray, bounds: np.ndarray,
               order_cols: Sequence[np.ndarray]) -> None:
    """In place, each row of ``out`` takes the value of the last row of
    its group: the rows of one run equal in every one of ``order_cols``
    (the whole run for none), a running value's RANGE peer fill."""
    last = np.zeros(len(ordered), dtype=bool)
    last[bounds[1:] - 1] = True
    for column in order_cols:
        values = column.take(ordered)
        last[:-1] |= values[1:] != values[:-1]
    if last.all():
        return  # every group is one row
    group = np.cumsum(last) - last  # the groups ended before each row
    out[ordered] = out.take(ordered.take(np.flatnonzero(last).take(group)))
