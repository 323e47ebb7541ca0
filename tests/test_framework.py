"""Tests for the framework facade: configuration options and staging."""

import pathlib

import pytest

import repro

from repro.framework import FrameworkConfig, Planner, planner_for
from repro.core.traits import Convention, RelTraitSet


class TestConfigOptions:
    def test_join_reorder_toggle(self, hr_catalog):
        with_reorder = Planner(FrameworkConfig(hr_catalog, join_reorder=True))
        without = Planner(FrameworkConfig(hr_catalog, join_reorder=False))
        names_with = {r.description for r in with_reorder.all_rules()}
        names_without = {r.description for r in without.all_rules()}
        assert "JoinCommuteRule" in names_with
        assert "JoinCommuteRule" not in names_without

    def test_heuristic_mode_flows_to_volcano(self, hr_catalog):
        p = Planner(FrameworkConfig(hr_catalog, exhaustive=False,
                                    delta=0.1, patience=7))
        p.execute("SELECT name FROM hr.emps")
        assert p.last_volcano is not None
        assert p.last_volcano.exhaustive is False
        assert p.last_volcano.delta == 0.1
        assert p.last_volcano.patience == 7

    def test_metadata_caching_toggle(self, hr_catalog):
        p = Planner(FrameworkConfig(hr_catalog, metadata_caching=False))
        p.execute("SELECT name FROM hr.emps")
        assert p.last_volcano.mq.caching is False

    def test_extra_rules_injected(self, hr_catalog):
        from repro.core.rel import Filter
        from repro.core.rule import RelOptRule, any_logical

        class NoOpFilterRule(RelOptRule):
            def __init__(self):
                super().__init__(any_logical(Filter), "NoOpFilterRule")

            def on_match(self, call):
                pass

        extra = NoOpFilterRule()
        p = Planner(FrameworkConfig(hr_catalog, rules=[extra]))
        assert extra in p.all_rules()

    def test_custom_metadata_provider_used(self, hr_catalog):
        from repro.core.metadata import MetadataProvider

        calls = []

        class Spy(MetadataProvider):
            def row_count(self, rel, mq):
                calls.append(rel.rel_name)
                return None

        p = Planner(FrameworkConfig(hr_catalog, metadata_providers=[Spy()]))
        p.execute("SELECT name FROM hr.emps WHERE sal > 1")
        assert calls  # the spy was consulted during planning


class TestStaging:
    def test_hep_prepass_reduces_expressions(self, hr_catalog):
        """Stage A folds constants before Volcano ever sees the tree."""
        p = planner_for(hr_catalog)
        rel = p.rel("SELECT name FROM hr.emps WHERE 1 = 1 AND sal > 2000 + 3000")
        pre = p.rewrite_with_hep(rel)
        assert "1 = 1" not in pre.explain()
        assert "5000" in pre.explain()

    def test_optimize_to_custom_traits(self, hr_catalog):
        """Systems may request plans in their own convention."""
        from repro.adapters.spark import SPARK, spark_rules
        p = Planner(FrameworkConfig(hr_catalog, rules=spark_rules()))
        rel = p.rel("SELECT name FROM hr.emps WHERE sal > 9000")
        best = p.optimize(rel, RelTraitSet(SPARK))
        assert best.convention is SPARK
        from repro.runtime.operators import execute_to_list
        assert sorted(execute_to_list(best)) == [("Bill",), ("Theodore",)]

    def test_result_object(self, hr_catalog):
        p = planner_for(hr_catalog)
        result = p.execute("SELECT name FROM hr.emps WHERE sal > 9000")
        assert len(result) == 2
        assert list(result) == result.rows
        assert result.columns == ["name"]
        assert "Enumerable" in result.explain()

    def test_execute_accepts_rel(self, hr_catalog):
        p = planner_for(hr_catalog)
        rel = p.rel("SELECT COUNT(*) FROM hr.emps")
        assert p.execute(rel).rows == [(5,)]


class TestOnePlanningPath:
    @pytest.mark.parametrize("options, phases", [
        ({}, ["hep", "materializations", "volcano"]),
        ({"engine": "vectorized"},
         ["hep", "materializations", "volcano", "trim"]),
        ({"engine": "vectorized", "parallelism": 2},
         ["hep", "materializations", "volcano", "trim", "exchanges"]),
    ], ids=["row", "vectorized-p1", "vectorized-p2"])
    def test_phase_names(self, hr_catalog, options, phases):
        planner = planner_for(hr_catalog, **options)
        assert [name for name, _phase in planner.phases] == phases

    def test_only_the_framework_builds_planners_and_contexts(self):
        """Views, tiles and streams plan and run through a Planner."""
        src = pathlib.Path(repro.__file__).parent
        for path in src.rglob("*.py"):
            name = path.relative_to(src).as_posix()
            text = path.read_text()
            if name != "framework.py":
                assert "VolcanoPlanner(" not in text, name
                assert "HepPlanner(" not in text, name
            if name.startswith(("mv/", "stream/")):
                assert "ExecutionContext(" not in text, name


class TestDeltaExecution:
    def test_delta_passes_through_outside_stream_executor(self, hr_catalog):
        """Delta over a finite relation degrades to the relation itself
        when executed directly (snapshot semantics)."""
        from repro.core.rel import LogicalDelta
        from repro.runtime.operators import execute_to_list
        p = planner_for(hr_catalog)
        rel = LogicalDelta(p.rel("SELECT name FROM hr.emps WHERE sal > 9000"))
        assert sorted(execute_to_list(rel)) == [("Bill",), ("Theodore",)]
