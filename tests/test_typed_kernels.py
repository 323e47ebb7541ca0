"""Typed numeric columns against the row engine and the list kernels.

A memory table holds an all-int (within int64) column as a numpy int64
array, and the vectorized filter, inner hash join, aggregate and window
read those arrays directly (:mod:`repro.runtime.vectorized.typed`);
every other column, floats included, stays a list.  Every statement
here runs three ways over the same rows:

* on the vectorized engine over typed columns;
* on the vectorized engine with typed copies switched off, so every
  column is a list — the same plan and operators, list kernels only,
  which must give the *same rows in the same order*, with the same
  value types and the same float bits;
* on the row engine, which never sees an array — the same bag of rows.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import Catalog, MemoryTable, Schema, connect
from repro.core.rex_eval import RexExecutionError
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for
from repro.runtime.vectorized import typed
from repro.runtime.vectorized.batch import is_array
from repro.sql.parser import SqlParseError

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

_TYPES = {"int": F.bigint, "real": F.double, "text": F.varchar,
          "bool": F.boolean}


def make_catalog(tables):
    """``{name: (columns, kinds, rows)}`` as memory tables of schema t."""
    catalog = Catalog()
    schema = Schema("t")
    catalog.add_schema(schema)
    for name, (columns, kinds, rows) in tables.items():
        schema.add_table(MemoryTable(name, columns,
                                     [_TYPES[k]() for k in kinds], rows))
    return catalog


def value_key(v):
    """A value as its type and, for floats, its bits (NaN as one)."""
    if isinstance(v, float):
        return ("float", "nan" if v != v else struct.pack("<d", v))
    return (type(v).__name__, v)


def row_keys(rows):
    return [tuple(value_key(v) for v in row) for row in rows]


def sorted_keys(rows):
    return sorted(row_keys(rows), key=repr)


def untyped(values):
    return values


def run_three_ways(tables, sql, compare_row_engine=True):
    """The typed vectorized rows, after checking them against the list
    kernels (ordered, bit for bit) and the row engine (as a bag)."""
    typed_rows = planner_for(make_catalog(tables),
                             engine="vectorized").execute(sql).rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typed, "typed_column", untyped)
        list_rows = planner_for(make_catalog(tables),
                                engine="vectorized").execute(sql).rows
    assert row_keys(typed_rows) == row_keys(list_rows), sql
    if compare_row_engine:
        row_rows = planner_for(make_catalog(tables)).execute(sql).rows
        assert sorted_keys(typed_rows) == sorted_keys(row_rows), sql
    for row in typed_rows:
        for v in row:
            assert type(v) in (int, float, str, bool, type(None)), (sql, v)
    return typed_rows


def column_kinds(table):
    return [c.dtype.name if is_array(c) else "list"
            for c in table._columns()[0]]


# -- strategies ---------------------------------------------------------------

near_bounds = st.one_of(st.integers(2 ** 62, INT64_MAX),
                        st.integers(INT64_MIN, -2 ** 62),
                        st.integers(-5, 5))
# values whose sums cancel, overflow to inf or lose low bits, and both zeros
tricky_floats = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.0, -0.0, 1e308, -1e308,
                     2.0 ** -1074, 3.5]),
    st.floats(allow_nan=False, width=64))
groups = st.integers(0, 3)


def keyed_rows(values, min_size=0):
    return st.lists(st.tuples(groups, values), min_size=min_size,
                    max_size=40).map(
        lambda rows: [(g, i, v) for i, (g, v) in enumerate(rows)])


AGGREGATES = [
    "SELECT g, SUM(v), COUNT(*), COUNT(v), AVG(v), MIN(v), MAX(v) "
    "FROM t.t GROUP BY g",
    "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*) FROM t.t",
    "SELECT g, o, SUM(v) OVER (PARTITION BY g ORDER BY o "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
    "AVG(v) OVER (PARTITION BY g ORDER BY o "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
    "COUNT(*) OVER (PARTITION BY g ORDER BY o DESC) FROM t.t",
    "SELECT o, SUM(v) OVER (ORDER BY g DESC, o), "
    "AVG(v) OVER (ORDER BY g, o DESC) FROM t.t",
    "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY o "
    "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t.t",
]


class TestSums:
    @given(keyed_rows(near_bounds))
    @settings(max_examples=60, deadline=None)
    def test_int64_sums_near_the_bounds_never_wrap(self, rows):
        """Sums that leave int64 decline to the list kernel, which adds
        Python ints; either way the total is Python's exact int."""
        tables = {"t": (["g", "o", "v"], ["int", "int", "int"], rows)}
        for sql in AGGREGATES:
            run_three_ways(tables, sql)

    @given(keyed_rows(tricky_floats))
    @settings(max_examples=60, deadline=None)
    def test_float_sums_and_averages_bit_for_bit(self, rows):
        """Float columns stay lists, and their sums are left folds in
        row order: the same bits as the row engine's accumulators, never
        a pairwise sum, beside typed int group and order keys."""
        tables = {"t": (["g", "o", "v"], ["int", "int", "real"], rows)}
        for sql in AGGREGATES:
            run_three_ways(tables, sql)

    def test_a_fold_that_pairwise_summation_would_change(self):
        rows = [(0, i, v) for i, v in enumerate([1e16] + [1.0] * 20
                                                + [-1e16])]
        tables = {"t": (["g", "o", "v"], ["int", "int", "real"], rows)}
        (total,), = run_three_ways(tables, "SELECT SUM(v) FROM t.t")
        expected = 0.0
        for _g, _o, v in rows:
            expected += v
        assert total == expected == 0.0  # 1e16 + 1.0 rounds back to 1e16

    def test_integer_totals_are_python_ints_before_avg_divides(self):
        """(2**62 + 2**62 + 3) / 3 needs exact integer division: float64
        operands would round the total first."""
        rows = [(0, 0, 2 ** 62), (0, 1, 2 ** 62), (0, 2, 3)]
        tables = {"t": (["g", "o", "v"], ["int", "int", "int"], rows)}
        (avg,), = run_three_ways(tables, "SELECT AVG(v) FROM t.t")
        assert avg == (2 ** 63 + 3) / 3
        for row in run_three_ways(tables, AGGREGATES[2]):
            assert row[3] == sum(v for *_, v in rows[:row[1] + 1]) \
                / (row[1] + 1)

    def test_float_min_max_keep_the_first_of_equal_zeros(self):
        rows = [(0, 0, 0.0), (0, 1, -0.0), (1, 2, -0.0), (1, 3, 0.0)]
        tables = {"t": (["g", "o", "v"], ["int", "int", "real"], rows)}
        out = run_three_ways(tables, AGGREGATES[0])
        assert [(math.copysign(1, r[5]), math.copysign(1, r[6]))
                for r in out] == [(1, 1), (-1, -1)]


class TestComparisonsAndJoins:
    @given(st.lists(st.tuples(st.integers(-3, 3),
                              st.floats(-4, 4, allow_nan=False)),
                    max_size=30),
           st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
           st.sampled_from(["1", "-2", "1.0", "0.5", "2.5", "-0.0"]))
    @settings(max_examples=60, deadline=None)
    def test_typed_comparisons_against_both_kinds_of_literal(
            self, pairs, op, literal):
        rows = [(i, a, b) for i, (a, b) in enumerate(pairs)]
        tables = {"t": (["o", "a", "b"], ["int", "int", "real"], rows)}
        run_three_ways(tables, f"SELECT o FROM t.t WHERE a {op} {literal}")
        run_three_ways(tables, f"SELECT o FROM t.t WHERE b {op} {literal}")
        run_three_ways(tables, f"SELECT o, a {op} b FROM t.t "
                               f"WHERE a {op} o AND b {op} {literal}")

    @given(st.lists(st.integers(-3, 6), max_size=25),
           st.lists(st.integers(-3, 6), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_int64_key_joins_keep_the_list_order(self, left, right):
        tables = {
            "l": (["k", "x"], ["int", "int"],
                  [(k, i) for i, k in enumerate(left)]),
            "r": (["k", "y"], ["int", "text"],
                  [(k, f"r{i}") for i, k in enumerate(right)]),
        }
        for kind in ("", "LEFT", "RIGHT", "FULL"):
            run_three_ways(tables, f"SELECT l.x, r.y, l.k FROM t.l l {kind} "
                                   f"JOIN t.r r ON l.k = r.k")
        run_three_ways(tables, "SELECT x FROM t.l WHERE k IN "
                               "(SELECT k FROM t.r)")
        run_three_ways(tables, "SELECT x FROM t.l l WHERE NOT EXISTS "
                               "(SELECT 1 FROM t.r r WHERE r.k = l.k)")

    def test_int_and_float_join_keys_take_the_list_path(self):
        """1 = 1.0 in SQL and in a dict: a float column stays a list, so
        the probe against the int64 side goes through the dict."""
        tables = {"i": (["k"], ["int"], [(1,), (2,), (3,)]),
                  "f": (["k"], ["real"], [(1.0,), (2.5,), (3.0,)])}
        catalog = make_catalog(tables)
        for table in ("I", "F"):
            assert column_kinds(catalog.root.subschema("t").tables[table]) \
                == ["int64" if table == "I" else "list"]
        out = run_three_ways(tables, "SELECT i.k, f.k FROM t.i i "
                                     "JOIN t.f f ON i.k = f.k")
        assert sorted(out) == [(1, 1.0), (3, 3.0)]
        assert [type(v) for row in sorted(out) for v in row] == \
            [int, float, int, float]


class TestSharedNaN:
    """A float column stays a list, so grouping, dedup and join keys see
    the table's own objects: a NaN shared by several rows is one key to
    a dict (identity before equality) on both engines."""

    NAN = math.nan

    def tables(self):
        nan = self.NAN
        return {"f": (["o", "v"], ["int", "real"],
                      [(0, nan), (1, nan), (2, 1.5), (3, nan)]),
                "g": (["w", "v"], ["int", "real"], [(10, nan), (11, 1.5)])}

    def test_the_float_column_stays_a_list_of_the_rows_objects(self):
        table = make_catalog(self.tables()).root.subschema("t").tables["F"]
        assert column_kinds(table) == ["int64", "list"]
        assert all(v is self.NAN for v in table._columns()[0][1]
                   if v != v)

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT v, COUNT(*) FROM t.f GROUP BY v", [("nan", 3), (1.5, 1)]),
        ("SELECT DISTINCT v FROM t.f", [("nan",), (1.5,)]),
        ("SELECT v FROM t.f UNION SELECT v FROM t.g", [("nan",), (1.5,)]),
        ("SELECT f.o, g.w FROM t.f f JOIN t.g g ON f.v = g.v",
         [(0, 10), (1, 10), (2, 11), (3, 10)]),
    ])
    def test_a_shared_nan_is_one_key_on_both_engines(self, sql, expected):
        def shown(rows):
            return sorted((tuple("nan" if v != v else v for v in row)
                           for row in rows), key=repr)
        for engine in ("row", "vectorized"):
            rows = planner_for(make_catalog(self.tables()),
                               engine=engine).execute(sql).rows
            assert shown(rows) == sorted(expected, key=repr), (engine, sql)


class TestShapes:
    def test_empty_batches_and_empty_groups(self):
        rows = [(g, i, 10 * i) for i, g in enumerate([0, 1, 1, 2])]
        tables = {"t": (["g", "o", "v"], ["int", "int", "int"], rows),
                  "e": (["g", "o", "v"], ["int", "int", "int"], [])}
        for sql in AGGREGATES:
            run_three_ways(tables, sql.replace("FROM t.t",
                                               "FROM t.t WHERE v > 100"))
            run_three_ways(tables, sql.replace("FROM t.t", "FROM t.e"))
        run_three_ways(tables, "SELECT t.o, e.o FROM t.t t JOIN t.e e "
                               "ON t.g = e.g")
        run_three_ways(tables, "SELECT t.o, e.o FROM t.t t LEFT JOIN t.e e "
                               "ON t.g = e.g")
        run_three_ways(tables, "SELECT t.o, e.o FROM t.e e LEFT JOIN t.t t "
                               "ON t.g = e.g")

    def test_columns_that_stay_lists(self):
        rows = [(1, 1.5, "a", True, None, 2 ** 63, 1, 7),
                (2, 2.5, "b", False, 3, 4, 2.0, 8)]
        tables = {"t": (["i", "f", "s", "b", "n", "big", "mixed", "o"],
                        ["int", "real", "text", "bool", "int", "int", "real",
                         "int"], rows)}
        catalog = make_catalog(tables)
        table = catalog.root.subschema("t").tables["T"]
        assert column_kinds(table) == ["int64", "list", "list", "list",
                                       "list", "list", "list", "int64"]
        for c in table._columns()[0]:
            if is_array(c):
                assert not c.flags.writeable
        assert typed.typed_column([]) == []
        for column in ("n", "big", "mixed", "b"):
            run_three_ways(tables, f"SELECT o, {column} FROM t.t "
                                   f"WHERE {column} IS NOT NULL")
        run_three_ways(tables, "SELECT big, SUM(i), COUNT(*) FROM t.t "
                               "GROUP BY big")
        run_three_ways(tables, "SELECT i, mixed, big, s FROM t.t "
                               "WHERE i = mixed")

    def test_insert_after_the_typed_copy_exists(self):
        catalog = make_catalog({"t": (["k", "v"], ["int", "int"],
                                      [(1, 10), (2, 20)])})
        table = catalog.root.subschema("t").tables["T"]
        vec = planner_for(catalog, engine="vectorized")
        assert vec.execute("SELECT SUM(v) FROM t.t").rows == [(30,)]
        assert column_kinds(table) == ["int64", "int64"]
        table.insert((3, None))
        table.insert((4, 2 ** 64))
        assert column_kinds(table) == ["int64", "list"]
        sql = "SELECT k, v, SUM(v) OVER (ORDER BY k) FROM t.t WHERE k > 0"
        assert vec.execute(sql).rows == planner_for(catalog).execute(sql).rows
        assert vec.execute("SELECT SUM(v) FROM t.t").rows == \
            [(30 + 2 ** 64,)]


class TestUntypedEscapes:
    """Errors that used to escape as bare ValueError/TypeError: a row
    count that is not an integer is a SqlParseError, and a comparison
    of an int with a str fails the statement with a RexExecutionError
    naming the operator, whichever kernel compared."""

    @pytest.mark.parametrize("clause, keyword", [
        ("LIMIT x", "LIMIT"), ("LIMIT 2.5", "LIMIT"), ("LIMIT 'a'", "LIMIT"),
        ("OFFSET x ROWS", "OFFSET"),
        ("OFFSET 1 ROWS FETCH FIRST y ROWS ONLY", "FETCH"),
        ("FETCH NEXT -1 ROWS ONLY", "FETCH"),
    ])
    def test_a_row_count_must_be_an_integer(self, clause, keyword):
        catalog = make_catalog({"t": (["k"], ["int"], [(1,), (2,)])})
        cursor = connect(catalog).cursor()
        with pytest.raises(Exception) as raised:
            cursor.execute(f"SELECT k FROM t.t ORDER BY k {clause}")
        assert isinstance(raised.value.__cause__, SqlParseError)
        assert str(raised.value.__cause__).startswith(
            f"{keyword} expects an integer")

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    @pytest.mark.parametrize("sql", [
        "SELECT k, COUNT(*) FROM t.t GROUP BY k HAVING COUNT(*) > 's'",
        "SELECT k FROM t.t WHERE v > 's'",
    ])
    def test_int_against_str_names_the_operator(self, engine, sql):
        catalog = make_catalog({"t": (["k", "v"], ["int", "int"],
                                      [(1, 10), (1, 5), (2, 7)])})
        cursor = connect(catalog, engine=engine).cursor()
        with pytest.raises(Exception) as raised:
            cursor.execute(sql)
            cursor.fetchall()
        assert isinstance(raised.value.__cause__, RexExecutionError)
        assert str(raised.value.__cause__).startswith(">:")
