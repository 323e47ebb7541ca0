"""The grouped-aggregate routine every engine runs
(:func:`repro.runtime.vectorized.aggregate.aggregate_columns`), against
a per-group oracle written from the definitions.

``test_sqlite_referee.py`` referees the shapes SQL and sqlite share.
FILTER and SINGLE_VALUE come only from rules and the builder, and
sqlite has no multi-argument COUNT, so every kind is checked here
directly, over list columns and, where a column is all int, over typed
columns.
"""

import random

import pytest

from repro.core import rex as rexmod
from repro.core.rel import AggregateCall
from repro.core.rex_eval import RexExecutionError
from repro.runtime.vectorized.aggregate import aggregate_columns

# columns: 0 g (NULL keys), 1 h, 2 v (NULLs), 3 w (all int), 4 flag
# (TRUE / FALSE / NULL), 5 s (strings, NULLs)
_RNG = random.Random(7)
ROWS = [(_RNG.choice([1, 2, 3, None]), _RNG.randrange(2),
         _RNG.choice([None, 1, 2, 2.5, 4]), _RNG.randrange(-5, 9),
         _RNG.choice([True, False, None]), _RNG.choice([None, "a", "b", "c"]))
        for _ in range(200)]

OPS = {"COUNT": rexmod.COUNT, "SUM": rexmod.SUM, "SUM0": rexmod.SUM0,
       "AVG": rexmod.AVG, "MIN": rexmod.MIN, "MAX": rexmod.MAX,
       "COLLECT": rexmod.COLLECT}

#: (op, args, distinct, filter_arg)
CALLS = [(op, args, distinct, filter_arg)
         for op, args in [("COUNT", ()), ("COUNT", (2,)), ("COUNT", (2, 5)),
                          ("SUM", (2,)), ("SUM0", (2,)), ("AVG", (3,)),
                          ("MIN", (5,)), ("MAX", (3,)), ("COLLECT", (2,))]
         for distinct in (False, True) if args or not distinct
         for filter_arg in (None, 4)]


def oracle(rows, group_set, call):
    """One value per group, groups in first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[g] for g in group_set), []).append(row)
    if not group_set and not groups:
        groups[()] = []
    out = []
    for members in groups.values():
        if call.filter_arg is not None:
            members = [r for r in members if r[call.filter_arg] is True]
        values = [tuple(r[a] for a in call.args) for r in members]
        values = [v[0] if len(v) == 1 else v for v in values
                  if None not in v]
        if call.distinct:
            values = list(dict.fromkeys(values))
        kind = call.op.name
        if kind == "COUNT":
            out.append(len(values) if call.args else len(members))
        elif kind == "COLLECT":
            out.append(values)
        elif not values:
            out.append(0 if kind == "$SUM0" else None)
        elif kind in ("SUM", "$SUM0"):
            out.append(sum(values))
        elif kind == "AVG":
            out.append(sum(values) / len(values))
        else:
            out.append(min(values) if kind == "MIN" else max(values))
    return out


def _columns(rows, typed):
    columns = [list(c) for c in zip(*rows)] if rows else [[]] * 6
    if typed:
        from repro.runtime.vectorized.typed import typed_column
        columns = [typed_column(c) for c in columns]
    return columns


@pytest.mark.parametrize("typed", [False, True], ids=["lists", "typed"])
@pytest.mark.parametrize("group_set", [(), (0,), (1,), (0, 1)])
@pytest.mark.parametrize("n", [0, 1, 200])
def test_every_call_matches_the_oracle(group_set, n, typed):
    rows = ROWS[:n]
    calls = [AggregateCall(OPS[op], args, distinct, filter_arg=filter_arg)
             for op, args, distinct, filter_arg in CALLS]
    out, k = aggregate_columns(_columns(rows, typed), n, group_set, calls)
    keys = list(dict.fromkeys(tuple(r[g] for g in group_set) for r in rows))
    if not group_set:
        keys = [()]
    assert k == len(keys)
    assert list(zip(*out[:len(group_set)])) == \
        ([] if not group_set else keys)
    for call, column in zip(calls, out[len(group_set):]):
        assert column == oracle(rows, group_set, call), call


def test_single_value():
    rows = [(1, 5), (2, 7), (3, None)]
    call = AggregateCall(rexmod.SINGLE_VALUE, [1])
    out, _k = aggregate_columns(_columns(rows, False), 3, (0,), [call])
    assert out == [[1, 2, 3], [5, 7, None]]
    with pytest.raises(RexExecutionError, match="more than one row"):
        aggregate_columns(_columns(rows, False), 3, (), [call])
