"""The window, set-operation and aggregate cases of the differential
suite, refereed by stdlib ``sqlite3`` instead of by the row engine.

``test_engine_differential.py`` checks the engines against each other;
this module checks each of them against an independent implementation.
Every ``win_*``, ``setop_*`` and ``agg_*`` case runs on the row engine,
the serial vectorized engine and, at parallelism 2, on thread and
process workers, and must return the bag of rows sqlite returns for the same SQL over a
copy of the same memory tables.

sqlite has neither ``INTERSECT ALL`` nor ``EXCEPT ALL``: for those the
referee runs each input in sqlite and combines the bags with
:class:`collections.Counter` arithmetic (``&`` keeps the smaller
multiplicity, ``-`` subtracts and drops what is not positive).

Dialect shims, all on the referee's side:

* each schema of the catalog is a database ``ATTACH``ed under its name,
  so ``s.sales`` resolves unchanged;
* an ORDER BY inside OVER spells out its NULL placement: this engine
  sorts NULL as the largest value (NULLS LAST ascending, NULLS FIRST
  descending), sqlite as the smallest.
"""

import re
import sqlite3
from collections import Counter

import pytest

from repro.core.rel import Window
from repro.core.rex import RANKING_KINDS, SqlKind
from repro.runtime.vectorized.window import WINDOW_KINDS
from repro.schema.core import MemoryTable

from test_engine_differential import CASES, _parallel_planner, _planners

#: the cases refereed here: every window, set-operation and aggregate case
REFEREE_CASES = [c for c in CASES
                 if c[0].startswith(("win_", "setop_", "agg_"))]

_BAG_OPS = {" INTERSECT ALL ": Counter.__and__, " EXCEPT ALL ": Counter.__sub__}


def sqlite_copy(catalog) -> sqlite3.Connection:
    """An in-memory sqlite database holding every memory table of
    ``catalog`` under its schema's name."""
    db = sqlite3.connect(":memory:")
    for schema in catalog.root.subschemas.values():
        db.execute(f"ATTACH DATABASE ':memory:' AS {schema.name}")
        for table in schema.tables.values():
            if not isinstance(table, MemoryTable):
                continue
            names = [f.name for f in table.row_type.fields]
            db.execute(f"CREATE TABLE {schema.name}.{table.name} "
                       f"({', '.join(names)})")
            db.executemany(
                f"INSERT INTO {schema.name}.{table.name} "
                f"VALUES ({', '.join('?' * len(names))})", table.rows)
    return db


def _spell_nulls(match: "re.Match") -> str:
    items = [item.strip() for item in match.group(2).split(",")]
    return match.group(1) + ", ".join(
        item + (" NULLS FIRST" if item.upper().endswith(" DESC")
                else " NULLS LAST") for item in items) + match.group(3)


def sqlite_sql(sql: str) -> str:
    """``sql`` with every window ORDER BY's NULL placement spelled out."""
    return re.sub(r"(OVER \((?:PARTITION BY [^)]*?)?ORDER BY )(.+?)"
                  r"(\s+(?:ROWS|RANGE)\b|\))", _spell_nulls, sql)


def bag(rows) -> Counter:
    """A result as a multiset, floats rounded to 9 places."""
    return Counter(tuple(round(v, 9) if isinstance(v, float) else v
                         for v in row) for row in rows)


_EXPECTED = {}


def referee(builder, sql: str) -> Counter:
    """What sqlite (with Counter arithmetic for the bag set operations)
    says ``sql`` returns over ``builder``'s memory tables."""
    key = (builder, sql)
    if key not in _EXPECTED:
        db = sqlite_copy(_planners(builder)[0].catalog)
        for keyword, combine in _BAG_OPS.items():
            if keyword in sql:
                left, right = sql.split(keyword)
                _EXPECTED[key] = combine(
                    bag(db.execute(sqlite_sql(left))),
                    bag(db.execute(sqlite_sql(right))))
                break
        else:
            _EXPECTED[key] = bag(db.execute(sqlite_sql(sql)))
        db.close()
    return _EXPECTED[key]


#: (engine, parallelism, workers) — the engines every case runs on
RUNS = [
    pytest.param("row", 1, None, id="row"),
    pytest.param("vectorized", 1, None, id="vectorized"),
    pytest.param("vectorized", 2, "thread", id="p2-thread",
                 marks=pytest.mark.parallel),
    pytest.param("vectorized", 2, "process", id="p2-process",
                 marks=pytest.mark.parallel),
]


@pytest.mark.parametrize("engine,parallelism,workers", RUNS)
@pytest.mark.parametrize(
    "builder,sql",
    [pytest.param(b, sql, id=case_id) for case_id, b, sql, _o in REFEREE_CASES])
def test_case_agrees_with_sqlite(builder, sql, engine, parallelism, workers):
    row_planner, vec_planner = _planners(builder)
    if parallelism > 1:
        planner = _parallel_planner(builder, parallelism, workers=workers)
    else:
        planner = row_planner if engine == "row" else vec_planner
    expected = referee(builder, sql)
    assert expected  # an empty result would referee nothing
    assert bag(planner.execute(sql).rows) == expected


def test_nulls_are_spelled_out_for_sqlite():
    assert sqlite_sql(
        "SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY a, b DESC), "
        "SUM(k) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) "
        "FROM s.t ORDER BY a") == (
        "SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY a NULLS LAST, "
        "b DESC NULLS FIRST), "
        "SUM(k) OVER (ORDER BY a NULLS LAST ROWS BETWEEN 1 PRECEDING AND "
        "CURRENT ROW) FROM s.t ORDER BY a")


def _window_calls(rel):
    """Every windowed call in a plan."""
    calls = list(rel.window_exprs) if isinstance(rel, Window) else []
    for child in rel.inputs:
        calls += _window_calls(child)
    return calls


def _frame_shapes(over) -> set:
    """The frame shapes one windowed call exercises."""
    shapes = set()
    if any(desc for _key, desc in over.order_keys):
        shapes.add("DESC")
    if over.lower.offset is not None or over.upper.offset is not None:
        shapes.add("ROWS offset" if over.rows else "RANGE offset")
    elif not over.rows and over.lower.bound_kind == "UNBOUNDED_PRECEDING":
        # what an OVER without a frame clause gets
        if over.order_keys and over.upper.bound_kind == "CURRENT_ROW":
            shapes.add("default, ORDER BY")
        if not over.order_keys and \
                over.upper.bound_kind == "UNBOUNDED_FOLLOWING":
            shapes.add("default, no ORDER BY")
    return shapes


#: the frame shapes each window kind supports: ranking, LAG and LEAD
#: need an ORDER BY and read no frame
_FRAME_FREE = {"default, ORDER BY", "DESC"}
_FRAMED = _FRAME_FREE | {"default, no ORDER BY", "ROWS offset",
                         "RANGE offset"}


def test_every_window_kind_is_refereed_in_every_frame_shape():
    seen = {kind: set() for kind in WINDOW_KINDS}
    for _case_id, builder, sql, _ordered in REFEREE_CASES:
        for over in _window_calls(_planners(builder)[0].rel(sql)):
            seen[over.op.kind] |= _frame_shapes(over)
    frame_free = RANKING_KINDS | {SqlKind.LAG, SqlKind.LEAD}
    missing = {kind.name: sorted((_FRAME_FREE if kind in frame_free
                                  else _FRAMED) - shapes)
               for kind, shapes in seen.items()}
    assert not any(missing.values()), missing
