"""Unit tests for the rule library, applied through the Hep engine."""

import pytest

from repro.core import rex as rexmod
from repro.core.builder import RelBuilder
from repro.core.hep import HepPlanner
from repro.core.rel import (
    Aggregate,
    Filter,
    Join,
    JoinRelType,
    LogicalFilter,
    LogicalProject,
    LogicalSort,
    LogicalValues,
    Project,
    Sort,
    TableScan,
    Union,
    Values,
    count_nodes,
)
from repro.core.rex import RexCall, RexInputRef, literal
from repro.core.rules import (
    AggregateProjectMergeRule,
    AggregateRemoveRule,
    FilterAggregateTransposeRule,
    FilterIntoJoinRule,
    FilterProjectTransposeRule,
    FilterSetOpTransposeRule,
    FilterSimplifyRule,
    ProjectJoinTransposeRule,
    ProjectMergeRule,
    ProjectRemoveRule,
    SortMergeRule,
    SortProjectTransposeRule,
    SortRemoveRule,
    prune_empty_rules,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.runtime.operators import execute_to_list


def apply_rules(rel, rules):
    return HepPlanner(rules=list(rules)).find_best_exp(rel)


def check_equivalent(before, after):
    assert sorted(execute_to_list(before)) == sorted(execute_to_list(after))


class TestFilterIntoJoin:
    def test_paper_figure4(self, sales_catalog):
        """WHERE sales.discount IS NOT NULL moves below the join."""
        b = RelBuilder(sales_catalog)
        b.scan("s", "sales").scan("s", "products")
        b.join_using(JoinRelType.INNER, "productId")
        discount_ref = RexInputRef(2, F.integer())  # sales.discount
        rel = LogicalFilter(b.build(),
                            RexCall(rexmod.IS_NOT_NULL, [discount_ref]))
        result = apply_rules(rel, [FilterIntoJoinRule()])
        assert isinstance(result, Join)
        assert isinstance(result.left, Filter)  # pushed to the sales side
        check_equivalent(rel, result)

    def test_right_side_condition_shifts(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        b.join_using(JoinRelType.INNER, "deptno")
        # dname = 'Sales' references the right input (index 6)
        cond = RexCall(rexmod.EQUALS, [RexInputRef(6, F.varchar()), literal("Sales")])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterIntoJoinRule()])
        assert isinstance(result, Join)
        assert isinstance(result.right, Filter)
        assert result.right.condition.digest == "=($1, 'Sales')"
        check_equivalent(rel, result)

    def test_left_outer_join_blocks_right_push(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        b.join_using(JoinRelType.LEFT, "deptno")
        cond = RexCall(rexmod.EQUALS, [RexInputRef(6, F.varchar()), literal("Sales")])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterIntoJoinRule()])
        # must NOT push below the null-generating side
        assert isinstance(result, Filter)

    def test_mixed_conjuncts_split(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        b.join_using(JoinRelType.INNER, "deptno")
        left_cond = RexCall(rexmod.GREATER_THAN, [RexInputRef(3, F.integer()), literal(7000)])
        right_cond = RexCall(rexmod.EQUALS, [RexInputRef(6, F.varchar()), literal("Sales")])
        rel = LogicalFilter(b.build(), RexCall(rexmod.AND, [left_cond, right_cond]))
        result = apply_rules(rel, [FilterIntoJoinRule()])
        assert isinstance(result, Join)
        assert isinstance(result.left, Filter)
        assert isinstance(result.right, Filter)
        check_equivalent(rel, result)


class TestFilterTranspose:
    def test_filter_through_project(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        b.project_fields("name", "sal")
        cond = RexCall(rexmod.GREATER_THAN, [RexInputRef(1, F.integer()), literal(8000)])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterProjectTransposeRule()])
        assert isinstance(result, Project)
        assert isinstance(result.input, Filter)
        # condition rewritten in terms of the scan's columns ($3 = sal)
        assert "$3" in result.input.condition.digest
        check_equivalent(rel, result)

    def test_filter_through_aggregate_on_keys(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        b.aggregate(b.group_key("deptno"), b.count_star("c"))
        cond = RexCall(rexmod.EQUALS, [RexInputRef(0, F.integer()), literal(10)])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterAggregateTransposeRule()])
        assert isinstance(result, Aggregate)
        assert isinstance(result.input, Filter)
        check_equivalent(rel, result)

    def test_filter_on_agg_result_not_pushed(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        b.aggregate(b.group_key("deptno"), b.count_star("c"))
        cond = RexCall(rexmod.GREATER_THAN, [RexInputRef(1, F.bigint()), literal(1)])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterAggregateTransposeRule()])
        assert isinstance(result, Filter)  # HAVING-style stays above

    def test_filter_through_union(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").project_fields("deptno")
        b.scan("hr", "depts").project_fields("deptno")
        b.union(all_=True)
        cond = RexCall(rexmod.EQUALS, [RexInputRef(0, F.integer()), literal(10)])
        rel = LogicalFilter(b.build(), cond)
        result = apply_rules(rel, [FilterSetOpTransposeRule()])
        assert isinstance(result, Union)
        assert all(isinstance(i, Filter) for i in result.inputs)
        check_equivalent(rel, result)


class TestProjectRules:
    def test_project_merge(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        b.project_fields("empid", "deptno", "name", "sal")
        b.project_fields("name", "sal")
        rel = b.build()
        result = apply_rules(rel, [ProjectMergeRule()])
        assert isinstance(result, Project)
        assert isinstance(result.input, TableScan)
        check_equivalent(rel, result)

    def test_identity_project_removed(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        fields = b.peek().row_type.fields
        b.project([RexInputRef(i, f.type) for i, f in enumerate(fields)],
                  [f.name for f in fields])
        rel = b.build()
        result = apply_rules(rel, [ProjectRemoveRule()])
        assert isinstance(result, TableScan)

    def test_project_join_transpose_trims(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        b.join_using(JoinRelType.INNER, "deptno")
        b.project_fields("name", "dname")
        rel = b.build()
        result = apply_rules(rel, [ProjectJoinTransposeRule()])
        join = result.input if isinstance(result, Project) else result
        assert isinstance(join, Join)
        # the join's inputs got narrower
        assert join.left.row_type.field_count < 5
        check_equivalent(rel, result)


class TestSortRules:
    def test_sort_removed_when_scan_sorted(self, hr_catalog):
        """The paper's example: input already ordered → sort removed."""
        from repro.core.traits import RelCollation
        from repro.schema.core import Statistic
        hr = hr_catalog.resolve_schema(["hr"])
        emps = hr.table("emps")
        emps.statistic = Statistic(row_count=5, collation=RelCollation.of(0))
        hr_catalog._opt_tables.clear()
        b = RelBuilder(hr_catalog)
        rel = b.scan("hr", "emps").sort("empid").build()
        result = apply_rules(rel, [SortRemoveRule()])
        assert not isinstance(result, Sort)

    def test_sort_kept_when_unsorted(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        rel = b.scan("hr", "emps").sort("sal").build()
        result = apply_rules(rel, [SortRemoveRule()])
        assert isinstance(result, Sort)

    def test_sort_sort_merge(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        inner = b.scan("hr", "emps").sort("sal").build()
        outer = LogicalSort(inner, inner.collation)
        from repro.core.traits import RelCollation, RelFieldCollation
        outer = LogicalSort(inner, RelCollation([RelFieldCollation(0)]))
        result = apply_rules(outer, [SortMergeRule()])
        assert isinstance(result, Sort)
        assert isinstance(result.input, TableScan)

    def test_limit_fused_into_sort(self, hr_catalog):
        from repro.core.traits import RelCollation
        b = RelBuilder(hr_catalog)
        inner = b.scan("hr", "emps").sort("sal").build()
        limit = LogicalSort(inner, RelCollation.EMPTY, None, 3)
        result = apply_rules(limit, [SortMergeRule()])
        assert isinstance(result, Sort)
        assert result.fetch == 3
        assert result.collation.keys == inner.collation.keys


class TestPruneEmpty:
    def test_filter_false_becomes_empty_values(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        rel = LogicalFilter(b.scan("hr", "emps").build(), literal(False))
        result = apply_rules(rel, prune_empty_rules())
        assert isinstance(result, Values) and not result.tuples

    def test_join_with_empty_side_pruned(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        empty = LogicalValues(b.scan("hr", "depts").build().row_type, [])
        b2 = RelBuilder(hr_catalog)
        emps = b2.scan("hr", "emps").build()
        from repro.core.rel import LogicalJoin
        join = LogicalJoin(emps, empty, literal(True), JoinRelType.INNER)
        result = apply_rules(join, prune_empty_rules())
        assert isinstance(result, Values) and not result.tuples

    def test_union_drops_empty_branch(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").project_fields("deptno")
        live = b.build()
        empty = LogicalValues(live.row_type, [])
        from repro.core.rel import LogicalUnion
        union = LogicalUnion([live, empty], True)
        result = apply_rules(union, prune_empty_rules())
        assert not isinstance(result, Union)
        check_equivalent(union, result)

    def test_global_aggregate_over_empty_not_pruned(self, hr_catalog):
        """COUNT(*) over empty input still returns one row — the rule
        must not fire."""
        b = RelBuilder(hr_catalog)
        row_type = b.scan("hr", "emps").build().row_type
        empty = LogicalValues(row_type, [])
        b2 = RelBuilder(hr_catalog)
        b2.push(empty)
        agg = b2.aggregate(b2.group_key(), b2.count_star("c")).build()
        result = apply_rules(agg, prune_empty_rules())
        assert execute_to_list(result) == [(0,)]


class TestReduceExpressions:
    def test_filter_condition_simplified(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        base = b.scan("hr", "emps").build()
        cond = RexCall(rexmod.AND, [
            literal(True),
            RexCall(rexmod.GREATER_THAN, [
                RexInputRef(3, F.integer()),
                RexCall(rexmod.PLUS, [literal(4000), literal(4000)])])])
        rel = LogicalFilter(base, cond)
        result = apply_rules(rel, [FilterSimplifyRule()])
        assert isinstance(result, Filter)
        assert result.condition.digest == ">($3, 8000)"

    def test_always_true_filter_vanishes(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        base = b.scan("hr", "emps").build()
        rel = LogicalFilter(base, RexCall(rexmod.OR, [literal(True), literal(False)]))
        result = apply_rules(rel, [FilterSimplifyRule()])
        assert isinstance(result, TableScan)


class TestAggregateRules:
    def test_aggregate_project_merge(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps")
        b.project_fields("deptno", "sal")
        b.aggregate(b.group_key("deptno"), b.sum(False, "s", b.field("sal")))
        rel = b.build()
        result = apply_rules(rel, [AggregateProjectMergeRule()])
        # the project has been folded into the aggregate's indexes
        found = result
        while not isinstance(found, Aggregate):
            found = found.input
        assert isinstance(found.input, TableScan)
        check_equivalent(rel, result)

    def test_aggregate_remove_on_unique_keys(self, hr_catalog):
        from repro.schema.core import Statistic
        hr = hr_catalog.resolve_schema(["hr"])
        hr.table("emps").statistic = Statistic(row_count=5, unique_keys=[[0]])
        hr_catalog._opt_tables.clear()
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").project_fields("empid")
        from repro.core.rel import LogicalAggregate
        rel = LogicalAggregate(b.build(), [0], [])
        result = apply_rules(rel, [AggregateRemoveRule()])
        assert not isinstance(result, Aggregate)
        check_equivalent(rel, result)


# -- every default rule fires in some statement --------------------------------

#: ``emps`` under a constant column the Hep pass cannot see through:
#: ``WHERE one = 2`` only becomes FALSE once Volcano pushes it below
#: the project, so the empty relation it prunes to appears inside the
#: Volcano search, where the ``*EmptyRule``s match it.  The UNION ALL
#: branch keeps each answer non-empty.
_EMPS = "(SELECT 1 AS one, deptno, name, sal FROM hr.emps)"
_PLUS = " UNION ALL SELECT name FROM hr.emps WHERE deptno = 10"

#: (rule, statement whose Volcano search fires it)
FIRING_STATEMENTS = [
    ("ProjectSetOpTransposeRule",
     "SELECT y, x FROM (SELECT deptno AS x, empid AS y FROM hr.emps "
     "UNION ALL SELECT deptno, deptno FROM hr.depts) u"),
    ("AggregateUnionAggregateRule",
     "SELECT DISTINCT deptno FROM (SELECT DISTINCT deptno FROM hr.emps "
     "UNION ALL SELECT deptno FROM hr.depts) u"),
    ("FilterEmptyRule",
     f"SELECT name FROM (SELECT * FROM {_EMPS} t WHERE one = 2) s "
     f"WHERE sal > 5{_PLUS}"),
    ("SortEmptyRule",
     f"SELECT name FROM (SELECT * FROM {_EMPS} t WHERE one = 2 "
     f"ORDER BY sal LIMIT 3) s{_PLUS}"),
    ("AggregateEmptyRule",
     f"SELECT name FROM (SELECT name, COUNT(*) AS n FROM {_EMPS} t "
     f"WHERE one = 2 GROUP BY name) s{_PLUS}"),
    ("JoinLeftEmptyRule",
     f"SELECT t.name FROM (SELECT * FROM {_EMPS} t0 WHERE one = 2) t "
     f"LEFT JOIN hr.depts d ON t.deptno = d.deptno{_PLUS}"),
]


@pytest.mark.parametrize("engine", ["row", "vectorized"])
@pytest.mark.parametrize("rule,sql", [pytest.param(r, s, id=r)
                                      for r, s in FIRING_STATEMENTS])
def test_default_rule_fires_and_keeps_the_answer(hr_catalog, engine, rule,
                                                 sql):
    """The rule fires in the statement's search, and the statement
    returns the same bag with the rule registered and without it."""
    from repro.framework import FrameworkConfig, Planner

    class WithoutRule(Planner):
        def all_rules(self):
            return [r for r in super().all_rules()
                    if type(r).__name__ != rule]

    config = FrameworkConfig(hr_catalog, engine=engine)
    with_rule, without_rule = Planner(config), WithoutRule(config)
    got = with_rule.execute(sql)
    assert with_rule.last_volcano.rule_stats[rule].fired > 0
    expected = without_rule.execute(sql)
    assert rule not in without_rule.last_volcano.rule_stats
    assert got.rows
    assert sorted(got.rows, key=repr) == sorted(expected.rows, key=repr)
