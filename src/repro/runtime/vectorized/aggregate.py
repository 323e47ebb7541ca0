"""Grouped aggregation: the one definition every engine runs.

:func:`aggregate_columns` computes an Aggregate's output columns from
its input's columns.  :class:`~.nodes.VectorizedAggregate` hands it its
input gathered into one compact :class:`~.batch.ColumnBatch`; the row
engine's aggregate (:func:`repro.runtime.operators.aggregate_rows`),
and through it the Spark adapter's, hands it rows pivoted into list
columns.

Rows are grouped in first-seen order, all NULL keys forming one group;
a global aggregate (no GROUP BY) is one group, also over no rows.  Each
call is then one loop over (group, value) pairs in row order, so a
float sum is the same left fold on every engine: FILTER keeps the rows
whose filter column is TRUE, a multi-argument call reads tuples (NULL
if any argument is), NULLs are skipped, and DISTINCT keeps the first
row of each (group, value).

Over typed (int64) columns (:mod:`.typed`) grouping and an unfiltered,
non-DISTINCT COUNT/SUM/SUM0/AVG/MIN/MAX are array reductions, which
decline where int64 could overflow.  The row engine's columns are
lists, so it never loads numpy.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from typing import Any, List, Sequence, Tuple

from ...core.rel import AggregateCall
from ...core.rex import SqlKind
from ...core.rex_eval import RexExecutionError
from .batch import is_array, pylist

#: the kinds :func:`.typed.accumulate` reduces
_TYPED_KINDS = frozenset({SqlKind.COUNT, SqlKind.SUM, SqlKind.SUM0,
                          SqlKind.AVG, SqlKind.MIN, SqlKind.MAX})


def aggregate_columns(columns: Sequence[Any], n: int,
                      group_set: Sequence[int],
                      calls: Sequence[AggregateCall]
                      ) -> Tuple[List[Any], int]:
    """The output of grouping ``n`` rows of ``columns`` on the fields
    ``group_set`` and applying ``calls``: one column per group key,
    then one per call, and the number of groups."""
    key_cols = [columns[g] for g in group_set]
    if key_cols:
        ids, k, out = _group(key_cols)
    else:
        ids, k, out = [0] * n, 1, []
        if n and any(is_array(columns[c.args[0]]) for c in calls if c.args):
            from . import typed
            ids = typed.zeros(n)
    for call in calls:
        out.append(_accumulate(call, columns, ids, k))
    return out, k


def _group(key_cols: List[Any]) -> Tuple[Any, int, List[list]]:
    """Each row's group id (numbered in first-seen order), the number of
    groups, and each key's column of group values."""
    if all(map(is_array, key_cols)):
        from . import typed
        typed_groups = typed.group_ids(key_cols)
        if typed_groups is not None:
            ids, k, firsts = typed_groups
            return ids, k, [col.take(firsts).tolist() for col in key_cols]
    if len(key_cols) == 1:
        keys = pylist(key_cols[0])
    else:
        keys = list(zip(*map(pylist, key_cols)))
    # dict.fromkeys and the map run in C; a key equal to an earlier one
    # (1 and 1.0) joins its group, as a dict lookup does.
    gid = dict(zip(dict.fromkeys(keys), count()))
    ids = list(map(gid.__getitem__, keys))
    if len(key_cols) == 1:
        return ids, len(gid), [list(gid)]
    return ids, len(gid), [[key[i] for key in gid]
                           for i in range(len(key_cols))]


def _accumulate(call: AggregateCall, columns: Sequence[Any], ids: Any,
                k: int) -> List[Any]:
    """One call's value in each of the ``k`` groups."""
    kind = call.op.kind
    args = [columns[a] for a in call.args]
    if (kind in _TYPED_KINDS and len(args) <= 1 and not call.distinct
            and call.filter_arg is None and is_array(ids)
            and all(map(is_array, args))):
        from . import typed
        out = typed.accumulate(kind, args[0] if args else None, ids, k)
        if out is not None:
            return out
    ids = pylist(ids)
    args = [pylist(a) for a in args]
    if call.filter_arg is not None:
        keep = [v is True for v in pylist(columns[call.filter_arg])]
        ids = list(compress(ids, keep))
        args = [list(compress(a, keep)) for a in args]
    if not args:  # COUNT(*)
        counts = Counter(ids)
        return [counts[g] for g in range(k)]
    if len(args) == 1:
        pairs: Any = zip(ids, args[0])
    else:
        pairs = zip(ids, [None if None in t else t for t in zip(*args)])
    if call.distinct:
        pairs = dict.fromkeys(pairs)  # the first of equal (group, value)s
    counts = [0] * k
    if kind is SqlKind.COUNT:
        for g, v in pairs:
            if v is not None:
                counts[g] += 1
        return counts
    if kind in (SqlKind.SUM, SqlKind.SUM0, SqlKind.AVG):
        totals: List[Any] = [None] * k
        for g, v in pairs:
            if v is None:
                continue
            counts[g] += 1
            totals[g] = v if totals[g] is None else totals[g] + v
        if kind is SqlKind.SUM:
            return totals
        if kind is SqlKind.SUM0:
            return [t if t is not None else 0 for t in totals]
        return [None if c == 0 else t / c for t, c in zip(totals, counts)]
    if kind in (SqlKind.MIN, SqlKind.MAX):
        pick = min if kind is SqlKind.MIN else max
        best: List[Any] = [None] * k
        for g, v in pairs:
            if v is not None:
                best[g] = v if best[g] is None else pick(best[g], v)
        return best
    items: List[list] = [[] for _ in range(k)]
    for g, v in pairs:
        if v is not None:
            items[g].append(v)
    if kind is SqlKind.COLLECT:
        return items
    if kind is SqlKind.SINGLE_VALUE:
        if any(len(values) > 1 for values in items):
            raise RexExecutionError("SINGLE_VALUE saw more than one row")
        return [values[0] if values else None for values in items]
    raise RexExecutionError(f"unsupported aggregate {call.op.name}")
