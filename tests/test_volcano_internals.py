"""White-box tests of the Volcano planner's equivalence machinery."""

import pytest

from repro.core import rex as rexmod
from repro.core.builder import RelBuilder
from repro.core.rel import Filter, LogicalFilter, RelNode
from repro.core.rex import RexCall, RexInputRef, literal
from repro.core.rule import RelOptRule, any_operand
from repro.core.rules import FilterMergeRule, FilterSimplifyRule
from repro.core.traits import Convention, RelTraitSet
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.core.volcano import RelSubset, VolcanoPlanner
from repro.runtime import enumerable_rules


def scan(hr_catalog):
    return RelBuilder(hr_catalog).scan("hr", "emps").build()


def cond(index, value):
    return RexCall(rexmod.GREATER_THAN, [RexInputRef(index, F.integer()),
                                         literal(value)])


class TestRegistration:
    def test_inputs_become_subsets(self, hr_catalog):
        planner = VolcanoPlanner(rules=[])
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        planner.register(rel)
        filter_set = None
        for s in planner.sets:
            for member in s.rels:
                if isinstance(member, Filter):
                    filter_set = s
                    assert isinstance(member.inputs[0], RelSubset)
        assert filter_set is not None

    def test_subset_digest_canonicalises(self, hr_catalog):
        planner = VolcanoPlanner(rules=[])
        subset = planner.register(scan(hr_catalog))
        assert subset.digest.startswith("Subset#")
        assert subset.row_type.field_count == 5

    def test_registration_count(self, hr_catalog):
        planner = VolcanoPlanner(rules=[])
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        planner.register(rel)
        assert planner.registrations == 2  # scan + filter


class TestSetMerging:
    def test_duplicate_digest_merges_sets(self, hr_catalog):
        """The paper's §6 scenario: a rule produces an expression whose
        digest matches one in a different set → sets merge."""

        class RewriteTo5000(RelOptRule):
            """Rewrites filter(>$3, 4999+1) to filter(>$3, 5000)."""

            def __init__(self):
                super().__init__(any_operand(Filter), "RewriteTo5000")

            def matches(self, call):
                return "4999" in call.rel(0).condition.digest

            def on_match(self, call):
                call.transform_to(
                    call.rel(0).with_condition(cond(3, 5000)))

        planner = VolcanoPlanner(rules=[RewriteTo5000()])
        base = scan(hr_catalog)
        # two independently-registered equivalent queries
        rel_a = LogicalFilter(base, RexCall(rexmod.GREATER_THAN, [
            RexInputRef(3, F.integer()),
            literal(4999)]))
        rel_b = LogicalFilter(base.copy(), cond(3, 5000))
        subset_a = planner.register(rel_a)
        subset_b = planner.register(rel_b)
        assert subset_a.rel_set.canonical() is not subset_b.rel_set.canonical()
        # Fire the queue: rewriting a's condition to 5000... a's filter is
        # >($3, 4999); rewrite creates >($3, 5000) in a's set, whose digest
        # collides with b's filter → merge.
        try:
            planner.optimize(rel_a, RelTraitSet(Convention.NONE))
        except Exception:
            pass
        assert subset_a.rel_set.canonical() is subset_b.rel_set.canonical()

    def test_merged_set_members_shared(self, hr_catalog):
        planner = VolcanoPlanner(
            rules=[FilterSimplifyRule()] + enumerable_rules())
        base = scan(hr_catalog)
        folded = RexCall(rexmod.GREATER_THAN, [
            RexInputRef(3, F.integer()),
            RexCall(rexmod.PLUS, [literal(4000), literal(1000)])])
        rel_a = LogicalFilter(base, folded)
        rel_b = LogicalFilter(base.copy(), cond(3, 5000))
        sub_a = planner.register(rel_a)
        planner.register(rel_b)
        best = planner.optimize(rel_a)
        # after simplification both queries share one equivalence set
        canon = sub_a.rel_set.canonical()
        digests = {r.digest for r in canon.rels}
        assert any("5000" in d for d in digests)
        from repro.runtime.operators import execute_to_list
        assert sorted(execute_to_list(best)) == sorted(execute_to_list(rel_b))


class TestCostSelection:
    def test_best_prefers_cheaper_member(self, hr_catalog):
        """Two equivalent filters; after FilterMerge the single-filter
        form must be selected over the stacked pair."""
        planner = VolcanoPlanner(
            rules=[FilterMergeRule()] + enumerable_rules())
        base = scan(hr_catalog)
        stacked = LogicalFilter(LogicalFilter(base, cond(3, 1)), cond(3, 2))
        best = planner.optimize(stacked)
        # exactly one Filter in the winning plan
        text = best.explain()
        assert text.count("Filter") == 1

    def test_infinite_cost_without_implementation(self, hr_catalog):
        from repro.core.volcano import CannotPlanError
        planner = VolcanoPlanner(rules=[])  # no converters at all
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        with pytest.raises(CannotPlanError):
            planner.optimize(rel)

    def test_max_matches_bounds_search(self, hr_catalog):
        from repro.core.rules import join_reorder_rules, standard_logical_rules
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        from repro.core.rel import JoinRelType
        rel = b.join_using(JoinRelType.INNER, "deptno").build()
        planner = VolcanoPlanner(
            rules=standard_logical_rules() + join_reorder_rules()
            + enumerable_rules(),
            max_matches=15)
        planner.optimize(rel)
        # exactly the cap: left alone, this search fires 30 matches
        assert planner.matches_fired == 15


class TestRuleIndex:
    """Rules are looked up by (operator class, convention); the lookup
    must hand back what a scan of the rule list would, in rule order."""

    def _rules(self):
        from repro.core.rules import standard_logical_rules
        return standard_logical_rules() + enumerable_rules()

    def test_index_is_the_ordered_scan(self, hr_catalog):
        from repro.runtime.nodes import EnumerableFilter
        rules = self._rules()
        planner = VolcanoPlanner(rules=rules)
        logical = LogicalFilter(scan(hr_catalog), cond(3, 1))
        physical = EnumerableFilter(
            logical.input, logical.condition,
            RelTraitSet(Convention.ENUMERABLE))
        for rel in (logical, physical):
            expected = [r for r in rules if r.operand.matches_class(rel)]
            assert planner._rules_for(rel) == expected
        # the logical filter meets the rewrites and its converter; the
        # physical one meets no rule of this set at all
        assert len(planner._rules_for(logical)) > 5
        assert planner._rules_for(physical) == []

    def test_added_rule_is_indexed(self, hr_catalog):
        planner = VolcanoPlanner(rules=[])
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        assert planner._rules_for(rel) == []
        rule = FilterSimplifyRule()
        planner.add_rule(rule)
        assert planner._rules_for(rel) == [rule]

    def test_transformation_rules_bind_logical_operators_only(self, hr_catalog):
        """Stacked filters: FilterMergeRule sees the logical pair once,
        never the Enumerable members the converters add to both sets."""
        planner = VolcanoPlanner(
            rules=[FilterMergeRule()] + enumerable_rules())
        stacked = LogicalFilter(
            LogicalFilter(scan(hr_catalog), cond(3, 1)), cond(3, 2))
        planner.optimize(stacked)
        assert planner.rule_stats["FilterMergeRule"].queued == 1


class TestRuleStats:
    def test_counters_add_up(self, hr_catalog):
        planner = VolcanoPlanner(
            rules=[FilterMergeRule(), FilterSimplifyRule()]
            + enumerable_rules())
        stacked = LogicalFilter(
            LogicalFilter(scan(hr_catalog), cond(3, 1)), cond(3, 2))
        planner.optimize(stacked)
        stats = planner.rule_stats
        assert sum(s.fired for s in stats.values()) == planner.matches_fired
        for s in stats.values():
            assert s.queued == s.fired + s.vetoed  # the queue drained
            assert s.new_results <= s.results
            assert s.seconds >= 0.0
        merge = stats["FilterMergeRule"]
        assert (merge.queued, merge.fired, merge.results,
                merge.new_results) == (1, 1, 1, 1)
        # nothing to simplify: the rule fires on every logical filter
        # and hands nothing back
        simplify = stats["FilterSimplifyRule"]
        assert simplify.fired == 3 and simplify.results == 0
        # one converter result per filter, each a new expression
        convert = stats["EnumerableFilterRule"]
        assert convert.results == convert.new_results == 3

    def test_veto_and_rederivation_are_counted(self, hr_catalog):
        class Never(RelOptRule):
            def __init__(self):
                super().__init__(any_operand(Filter), "Never")

            def matches(self, call):
                return False

        class Same(RelOptRule):
            """Hands back the expression it matched."""

            def __init__(self):
                super().__init__(any_operand(Filter), "Same")

            def on_match(self, call):
                call.transform_to(call.rel(0))

        planner = VolcanoPlanner(rules=[Never(), Same()])
        planner.optimize(LogicalFilter(scan(hr_catalog), cond(3, 1)),
                         RelTraitSet(Convention.NONE))
        never, same = planner.rule_stats["Never"], planner.rule_stats["Same"]
        assert (never.queued, never.vetoed, never.fired) == (1, 1, 0)
        assert (same.fired, same.results, same.new_results) == (1, 1, 0)
        assert planner.matches_fired == 1

    def test_rule_error_is_not_swallowed(self, hr_catalog):
        class Broken(RelOptRule):
            def __init__(self):
                super().__init__(any_operand(Filter), "Broken")

            def matches(self, call):
                raise KeyError("boom")

        planner = VolcanoPlanner(rules=[Broken()])
        with pytest.raises(KeyError):
            planner.optimize(LogicalFilter(scan(hr_catalog), cond(3, 1)))


class TestDistributionEnforcement:
    """The distribution trait is enforced at extraction: when no
    registered expression carries the required distribution, the
    planner extracts the relaxed best plan and hands it to the
    configured enforcer (which wraps it in a gather exchange)."""

    def _required(self):
        from repro.core.traits import (
            RelCollation,
            RelDistribution,
            RelTraitSet,
        )
        return RelTraitSet(Convention.ENUMERABLE, RelCollation.EMPTY,
                           RelDistribution.SINGLETON)

    def test_enforcer_wraps_relaxed_best(self, hr_catalog):
        from repro.core.rel import Converter
        from repro.core.traits import RelDistribution
        calls = []

        def enforcer(plan, distribution):
            calls.append(distribution)
            return Converter(plan, plan.traits.replace(distribution))

        planner = VolcanoPlanner(rules=enumerable_rules(),
                                 distribution_enforcer=enforcer)
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        best = planner.optimize(rel, self._required())
        assert calls == [RelDistribution.SINGLETON]
        assert isinstance(best, Converter)
        assert best.traits.distribution == RelDistribution.SINGLETON
        # the wrapped plan is the ordinary enumerable best
        assert "EnumerableFilter" in best.input.explain()

    def test_without_enforcer_distribution_is_unplannable(self, hr_catalog):
        from repro.core.volcano import CannotPlanError
        planner = VolcanoPlanner(rules=enumerable_rules())
        rel = LogicalFilter(scan(hr_catalog), cond(3, 1))
        with pytest.raises(CannotPlanError):
            planner.optimize(rel, self._required())
