"""Field trimming of vectorized join inputs (``runtime/vectorized/trim.py``).

Every case plans a statement on the vectorized engine twice — Volcano's
plan as chosen, and the same plan after :func:`trim_fields` — and
requires that the untrimmed plan has a join input carrying a field
nothing reads (so the pass has work to do), that the trimmed plan has
none, and that both return the row engine's rows.  The join-type
matrix covers SEMI/ANTI (whose output is the left side only) and
RIGHT/FULL, whose NULL padding must land on the narrowed row.  The
same statements then run at parallelism 2 on thread and process
workers, where trimming happens before exchanges are placed.
"""

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.core.builder import RelBuilder
from repro.core.rel import JoinRelType
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner
from repro.runtime.operators import execute
from repro.runtime.vectorized.parallel_process import process_backend_available
from repro.runtime.vectorized.trim import trim_fields

from test_golden_plans import unread_join_fields


def build_catalog() -> Catalog:
    """``d.l`` and ``d.r`` share a nullable key ``a``: NULL keys on both
    sides, duplicates, and unmatched keys on both sides."""
    catalog = Catalog()
    d = Schema("d")
    catalog.add_schema(d)
    d.add_table(MemoryTable(
        "l", ["a", "b", "x", "y"],
        [F.integer(), F.integer(False), F.integer(False), F.varchar()],
        [(i % 8 if i % 7 else None, i % 3, i, f"y{i}") for i in range(40)]))
    d.add_table(MemoryTable(
        "r", ["a", "c", "w", "u"],
        [F.integer(), F.integer(False), F.integer(False), F.varchar()],
        [(j % 10 if j % 5 else None, j % 2, 10 * j, f"u{j}")
         for j in range(30)]))
    d.add_table(MemoryTable(
        "s", ["c", "label", "pad"],
        [F.integer(False), F.varchar(), F.varchar()],
        [(0, "even", "p0"), (1, "odd", "p1")]))
    return catalog


CATALOG = build_catalog()
ROW = Planner(FrameworkConfig(CATALOG))
VEC = Planner(FrameworkConfig(CATALOG, engine="vectorized"))


def _rows(rows, ordered):
    return list(rows) if ordered else sorted(rows, key=repr)


def _check(rel, ordered=False):
    """The trimmed plan has no unread join field, the untrimmed one
    had; both return the row engine's rows.  Returns the rows."""
    expected = _rows(ROW.execute(rel).rows, ordered)
    untrimmed = VEC.optimize_with_volcano(
        VEC.apply_materializations(VEC.rewrite_with_hep(rel)))
    trimmed = trim_fields(untrimmed)
    assert unread_join_fields(untrimmed) != []
    assert unread_join_fields(trimmed) == []
    assert trimmed.row_type.field_names == untrimmed.row_type.field_names
    for plan in (untrimmed, trimmed):
        got = execute(plan, VEC.execution_context())
        assert _rows(got, ordered) == expected, plan.explain()
    assert _rows(VEC.execute(rel).rows, ordered) == expected
    return expected


def _join(join_type):
    b = RelBuilder(CATALOG)
    b.scan("d", "l").scan("d", "r")
    return b.join_using(join_type, "a")


@pytest.mark.parametrize("join_type", list(JoinRelType),
                         ids=lambda t: t.value)
def test_every_join_type_reading_a_subset(join_type):
    b = _join(join_type)
    if join_type.projects_right:
        b.project([b.field("x"), b.field("w")], ["x", "w"])
    else:
        b.project([b.field("x")], ["x"])
    rows = _check(b.build())
    if join_type.generates_nulls_on_left:
        assert any(x is None for x, _w in rows)
    if join_type.generates_nulls_on_right:
        assert any(w is None for _x, w in rows)


@pytest.mark.parametrize("join_type", list(JoinRelType),
                         ids=lambda t: t.value)
def test_every_join_type_under_an_aggregate(join_type):
    b = _join(join_type)
    if join_type.projects_right:
        b.aggregate(b.group_key("c"), b.count_star("n"),
                    b.sum(name="s", operand=b.field("x")))
    else:
        b.aggregate(b.group_key("b"), b.count_star("n"))
    _check(b.build())


@pytest.mark.parametrize("sql", [
    # a consumer reading a subset of fields, one from each side
    "SELECT l.y, r.u FROM d.l JOIN d.r ON l.a = r.a",
    # a join over a filtered input, the filter reading a dropped field
    "SELECT r.c, COUNT(*), SUM(l.x) FROM d.l JOIN d.r ON l.a = r.a "
    "WHERE l.b = 1 GROUP BY r.c",
    # a filter above the join reading a field nothing else reads
    "SELECT l.x FROM d.l JOIN d.r ON l.a = r.a WHERE r.w > l.x",
    # three inputs: the inner join's output is narrowed too
    "SELECT s.label, SUM(l.x) FROM d.l JOIN d.r ON l.a = r.a "
    "JOIN d.s ON r.c = s.c GROUP BY s.label",
], ids=["subset", "filtered_input", "filter_above", "three_way"])
def test_consumers_above_a_join(sql):
    _check(VEC.rel(sql))


def test_window_above_a_join():
    _check(VEC.rel(
        "SELECT l.x, SUM(r.w) OVER (PARTITION BY r.c ORDER BY l.x, r.w) "
        "FROM d.l JOIN d.r ON l.a = r.a"))


def test_sort_above_a_join():
    _check(VEC.rel(
        "SELECT l.x, r.w FROM d.l JOIN d.r ON l.a = r.a "
        "ORDER BY r.u DESC, l.x LIMIT 9 OFFSET 2"), ordered=True)


@pytest.mark.parametrize("sql", [
    # the subquery reads its correlation row by field position
    "SELECT l.x FROM d.l JOIN d.r ON l.a = r.a "
    "WHERE l.x + r.w > (SELECT MAX(s.c) FROM d.s WHERE s.c = r.c)",
    # a RANGE offset read from a column is not an operand of the OVER
    "SELECT l.x, SUM(r.w) OVER (PARTITION BY r.c ORDER BY l.x "
    "RANGE BETWEEN l.b PRECEDING AND CURRENT ROW) "
    "FROM d.l JOIN d.r ON l.a = r.a",
], ids=["correlated_subquery", "range_offset_column"])
def test_readers_addressing_their_row_keep_the_join_whole(sql):
    assert _rows(VEC.execute(sql).rows, False) == \
        _rows(ROW.execute(sql).rows, False)


def test_plan_without_joins_is_returned_unchanged():
    plan = VEC.optimize_with_volcano(VEC.rewrite_with_hep(VEC.rel(
        "SELECT b, SUM(x) FROM d.l WHERE x > 3 GROUP BY b")))
    assert trim_fields(plan) is plan


PARALLEL_SQL = [
    "SELECT l.y, r.u FROM d.l JOIN d.r ON l.a = r.a",
    "SELECT r.c, COUNT(*), SUM(l.x) FROM d.l JOIN d.r ON l.a = r.a "
    "WHERE l.b = 1 GROUP BY r.c",
    "SELECT l.x, r.w FROM d.l LEFT JOIN d.r ON l.a = r.a",
    "SELECT l.x, r.w FROM d.l FULL JOIN d.r ON l.a = r.a",
    "SELECT s.label, SUM(l.x) FROM d.l JOIN d.r ON l.a = r.a "
    "JOIN d.s ON r.c = s.c GROUP BY s.label",
    "SELECT l.x, SUM(r.w) OVER (PARTITION BY r.c ORDER BY l.x, r.w) "
    "FROM d.l JOIN d.r ON l.a = r.a",
]

_WORKERS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not process_backend_available(), reason="no fork start method"))]


@pytest.mark.parallel
@pytest.mark.parametrize("workers", _WORKERS)
@pytest.mark.parametrize("sql", PARALLEL_SQL)
def test_two_workers_match_row_engine(sql, workers):
    planner = Planner(FrameworkConfig(CATALOG, engine="vectorized",
                                      parallelism=2, workers=workers))
    assert unread_join_fields(planner.optimize(planner.rel(sql))) == []
    assert _rows(planner.execute(sql).rows, False) == \
        _rows(ROW.execute(sql).rows, False)
