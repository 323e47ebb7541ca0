"""Unit tests for the enumerable execution engine (Section 5)."""

import pytest

from repro.core import rex as rexmod
from repro.core.builder import RelBuilder
from repro.core.rel import JoinRelType, LogicalFilter, LogicalJoin, LogicalWindow
from repro.core.rex import (
    RexCall,
    RexInputRef,
    RexOver,
    RexWindowBound,
    literal,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.runtime.operators import ExecutionContext, execute_to_list, sort_rows
from repro.core.traits import RelCollation, RelFieldCollation


class TestJoins:
    def _join(self, hr_catalog, join_type):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        return b.join_using(join_type, "deptno").build()

    def test_inner(self, hr_catalog):
        rows = execute_to_list(self._join(hr_catalog, JoinRelType.INNER))
        assert len(rows) == 5

    def test_left_keeps_unmatched(self, hr_catalog):
        # remove dept 30 rows? all emps match; invert: dept side as left
        b = RelBuilder(hr_catalog)
        b.scan("hr", "depts").scan("hr", "emps")
        rel = b.join_using(JoinRelType.LEFT, "deptno").build()
        rows = execute_to_list(rel)
        unmatched = [r for r in rows if r[2] is None]
        assert len(unmatched) == 1  # dept 40 "Empty"
        assert len(rows) == 6

    def test_right(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        rel = b.join_using(JoinRelType.RIGHT, "deptno").build()
        rows = execute_to_list(rel)
        assert len(rows) == 6
        assert any(r[0] is None for r in rows)

    def test_full(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "depts").scan("hr", "emps")
        rel = b.join_using(JoinRelType.FULL, "deptno").build()
        rows = execute_to_list(rel)
        assert len(rows) == 6

    def test_semi(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "depts").scan("hr", "emps")
        rel = b.join_using(JoinRelType.SEMI, "deptno").build()
        rows = execute_to_list(rel)
        assert sorted(r[0] for r in rows) == [10, 20, 30]
        assert all(len(r) == 2 for r in rows)  # left fields only

    def test_anti(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "depts").scan("hr", "emps")
        rel = b.join_using(JoinRelType.ANTI, "deptno").build()
        rows = execute_to_list(rel)
        assert [r[0] for r in rows] == [40]

    def test_null_keys_never_match(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.values(["k"], (1,), (None,))
        b.values(["k"], (1,), (None,))
        rel = b.join_using(JoinRelType.INNER, "k").build()
        assert execute_to_list(rel) == [(1, 1)]

    def test_theta_join_nested_loops(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.values(["a"], (1,), (5,))
        b.values(["b"], (3,), (7,))
        cond = RexCall(rexmod.LESS_THAN, [
            RexInputRef(0, F.integer()), RexInputRef(1, F.integer())])
        rel = b.join(JoinRelType.INNER, cond).build()
        assert sorted(execute_to_list(rel)) == [(1, 3), (1, 7), (5, 7)]

    def test_hash_join_with_residual(self):
        b = RelBuilder()
        b.values(["k", "v"], (1, 10), (1, 99))
        b.values(["k", "w"], (1, 50))
        equi = RexCall(rexmod.EQUALS, [
            RexInputRef(0, F.integer()), RexInputRef(2, F.integer())])
        residual = RexCall(rexmod.LESS_THAN, [
            RexInputRef(1, F.integer()), RexInputRef(3, F.integer())])
        rel = b.join(JoinRelType.INNER, RexCall(rexmod.AND, [equi, residual])).build()
        assert execute_to_list(rel) == [(1, 10, 1, 50)]


class TestSortSemantics:
    def test_nulls_last_ascending_default(self):
        rows = [(None,), (2,), (1,)]
        out = sort_rows(rows, RelCollation([RelFieldCollation(0)]))
        assert out == [(1,), (2,), (None,)]

    def test_nulls_first(self):
        rows = [(2,), (None,), (1,)]
        out = sort_rows(rows, RelCollation([RelFieldCollation(0, nulls_first=True)]))
        assert out == [(None,), (1,), (2,)]

    def test_descending(self):
        rows = [(1,), (3,), (2,)]
        out = sort_rows(rows, RelCollation([RelFieldCollation(0, descending=True)]))
        assert out == [(3,), (2,), (1,)]

    def test_multi_key_stability(self):
        rows = [(1, "b"), (2, "a"), (1, "a")]
        out = sort_rows(rows, RelCollation([RelFieldCollation(0),
                                            RelFieldCollation(1)]))
        assert out == [(1, "a"), (1, "b"), (2, "a")]


class TestAggregateExecution:
    def test_count_ignores_nulls_with_args(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        rel = b.aggregate(b.group_key(),
                          b.count(False, "c", b.field("commission"))).build()
        assert execute_to_list(rel) == [(4,)]  # one NULL commission

    def test_count_star_counts_all(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        rel = b.aggregate(b.group_key(), b.count_star("c")).build()
        assert execute_to_list(rel) == [(5,)]

    def test_sum_of_all_nulls_is_null(self):
        b = RelBuilder()
        b.values(["g", "v"], (1, None), (1, None))
        rel = b.aggregate(b.group_key("g"), b.sum(False, "s", b.field("v"))).build()
        assert execute_to_list(rel) == [(1, None)]

    def test_grouped_empty_input_no_rows(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        base = b.scan("hr", "emps").filter(literal(False)).build()
        b2 = RelBuilder()
        b2.push(base)
        rel = b2.aggregate(b2.group_key(1), b2.count_star("c")).build()
        assert execute_to_list(rel) == []


class TestWindowExecution:
    def _rows_rel(self):
        b = RelBuilder()
        b.values(["g", "v"], ("a", 1), ("a", 2), ("b", 10), ("a", 3))
        return b.build()

    def test_running_sum_rows_frame(self):
        rel = self._rows_rel()
        over = RexOver(rexmod.SUM, [RexInputRef(1, F.integer())],
                       [RexInputRef(0, F.varchar())],
                       [(RexInputRef(1, F.integer()), False)],
                       RexWindowBound.UNBOUNDED_PRECEDING,
                       RexWindowBound.CURRENT_ROW, rows=True)
        w = LogicalWindow(rel, [over], ["running"])
        rows = execute_to_list(w)
        by_row = {(g, v): s for g, v, s in rows}
        assert by_row[("a", 1)] == 1
        assert by_row[("a", 2)] == 3
        assert by_row[("a", 3)] == 6
        assert by_row[("b", 10)] == 10

    def test_full_partition_frame(self):
        rel = self._rows_rel()
        over = RexOver(rexmod.COUNT, [], [RexInputRef(0, F.varchar())], [],
                       RexWindowBound.UNBOUNDED_PRECEDING,
                       RexWindowBound.UNBOUNDED_FOLLOWING, rows=True)
        w = LogicalWindow(rel, [over], ["n"])
        rows = execute_to_list(w)
        assert all(n == 3 for g, v, n in rows if g == "a")
        assert all(n == 1 for g, v, n in rows if g == "b")

    def test_range_frame_sliding_window(self):
        """The paper's RANGE INTERVAL '1' HOUR PRECEDING sliding window."""
        b = RelBuilder()
        hour = 3_600_000
        b.values(["ts", "v"],
                 (0, 1), (hour // 2, 2), (hour + 1, 4), (3 * hour, 8))
        rel = b.build()
        over = RexOver(rexmod.SUM, [RexInputRef(1, F.integer())], [],
                       [(RexInputRef(0, F.integer()), False)],
                       RexWindowBound("PRECEDING", literal(hour)),
                       RexWindowBound.CURRENT_ROW, rows=False)
        w = LogicalWindow(rel, [over], ["lastHour"])
        rows = dict((ts, s) for ts, v, s in execute_to_list(w))
        assert rows[0] == 1
        assert rows[hour // 2] == 3          # 1 + 2
        assert rows[hour + 1] == 6           # 2 + 4 (event at 0 aged out)
        assert rows[3 * hour] == 8           # alone

    def test_rows_offset_frame(self):
        b = RelBuilder()
        b.values(["v"], (1,), (2,), (3,), (4,))
        rel = b.build()
        over = RexOver(rexmod.SUM, [RexInputRef(0, F.integer())], [],
                       [(RexInputRef(0, F.integer()), False)],
                       RexWindowBound("PRECEDING", literal(1)),
                       RexWindowBound.CURRENT_ROW, rows=True)
        w = LogicalWindow(rel, [over], ["s"])
        assert [s for v, s in execute_to_list(w)] == [1, 3, 5, 7]


class TestSubqueryExecution:
    def test_scalar_subquery_multiple_rows_errors(self, hr_catalog):
        from repro.core.rex import RexSubQuery, SqlKind
        from repro.core.rex_eval import RexExecutionError
        b = RelBuilder(hr_catalog)
        sub = b.scan("hr", "emps").project_fields("sal").build()
        b2 = RelBuilder(hr_catalog)
        outer = b2.scan("hr", "depts").build()
        cond = RexCall(rexmod.GREATER_THAN, [
            RexSubQuery(SqlKind.OTHER, sub), literal(0)])
        rel = LogicalFilter(outer, cond)
        with pytest.raises(RexExecutionError):
            execute_to_list(rel)

    def test_execution_counters(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        rel = b.scan("hr", "emps").build()
        ctx = ExecutionContext()
        execute_to_list(rel, ctx)
        assert ctx.rows_scanned == 5


class TestCorrelatedExecution:
    """The inner plan of a correlated subquery / Correlate is executed
    as is, once per outer row, reading the outer row through
    ``ExecutionContext.correlations`` — no per-row plan rebuild."""

    QUERIES = [
        ("SELECT name FROM hr.emps e WHERE EXISTS "
         "(SELECT 1 FROM hr.depts d WHERE d.deptno = e.deptno AND d.deptno > ?)",
         [10], [("Eric",), ("Victor",)]),
        ("SELECT dname FROM hr.depts d WHERE NOT EXISTS "
         "(SELECT 1 FROM hr.emps e WHERE e.deptno = d.deptno)",
         [], [("Empty",)]),
        ("SELECT name FROM hr.emps e WHERE e.deptno IN "
         "(SELECT deptno FROM hr.depts d WHERE d.deptno * 300 < e.sal)",
         [], [("Bill",), ("Eric",), ("Sebastian",), ("Theodore",)]),
        ("SELECT name, (SELECT dname FROM hr.depts d WHERE d.deptno = e.deptno) "
         "FROM hr.emps e WHERE sal > 9000",
         [], [("Bill", "Sales"), ("Theodore", "Sales")]),
        ("SELECT name FROM hr.emps e WHERE sal > "
         "(SELECT AVG(sal) FROM hr.emps e2 WHERE e2.deptno = e.deptno)",
         [], [("Bill",), ("Theodore",)]),
        # a subquery nested in a subquery: the inner `$cor0` is the
        # middle query's row while the middle's `$cor0` stays the outer's
        ("SELECT dname FROM hr.depts d WHERE EXISTS "
         "(SELECT 1 FROM hr.emps e WHERE e.deptno = d.deptno AND EXISTS "
         "(SELECT 1 FROM hr.emps e3 WHERE e3.sal > e.sal + 4000))",
         [], [("HR",), ("Sales",)]),
    ]

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    @pytest.mark.parametrize("sql,params,expected", QUERIES)
    def test_correlated_subqueries(self, hr_catalog, engine, sql, params,
                                   expected):
        from repro.framework import planner_for
        planner = planner_for(hr_catalog, engine=engine)
        prepared = planner.prepare(sql)
        for _ in range(2):           # the cached plan re-executes cleanly
            result = planner.execute_plan(prepared, params)
            assert sorted(result.rows) == expected

    def test_inner_plan_is_compiled_once(self, hr_catalog):
        from repro.core.rel import Filter
        from repro.core.rex import RexSubQuery
        from repro.framework import planner_for
        planner = planner_for(hr_catalog)
        prepared = planner.prepare(self.QUERIES[0][0])
        planner.execute_plan(prepared, [10])
        outer = prepared.plan
        while not isinstance(outer, Filter):
            outer = outer.inputs[0]
        subquery = outer.condition
        assert isinstance(subquery, RexSubQuery)
        inner = subquery.rel
        while not isinstance(inner, Filter):
            inner = inner.inputs[0]
        compiled = inner.condition._compiled_row
        planner.execute_plan(prepared, [20])
        assert inner.condition._compiled_row is compiled

    def test_correlate_binds_left_row(self, hr_catalog):
        from repro.core.rel import LogicalCorrelate
        from repro.core.rex import RexCorrelVariable, RexFieldAccess
        depts = RelBuilder(hr_catalog).scan("hr", "depts").build()
        emps = RelBuilder(hr_catalog).scan("hr", "emps").build()
        cor = RexCorrelVariable("$corX", depts.row_type)
        right = LogicalFilter(emps, RexCall(rexmod.EQUALS, [
            RexInputRef(1, F.integer(False)),
            RexFieldAccess(cor, "deptno", F.integer(False))]))
        for join_type, n_rows in ((JoinRelType.INNER, 5), (JoinRelType.LEFT, 6),
                                  (JoinRelType.SEMI, 3), (JoinRelType.ANTI, 1)):
            rel = LogicalCorrelate(depts, right, "$corX", [0], join_type)
            ctx = ExecutionContext()
            rows = execute_to_list(rel, ctx)
            assert len(rows) == n_rows
            assert ctx.correlations == {}
            if join_type is JoinRelType.INNER:
                assert all(r[0] == r[3] for r in rows)
