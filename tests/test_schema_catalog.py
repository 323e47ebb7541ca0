"""Tests for schema/catalog resolution and statistics plumbing."""

import pytest

from repro import Catalog, MemoryTable, Schema, Statistic
from repro.core.traits import RelCollation


@pytest.fixture
def catalog():
    c = Catalog()
    a = Schema("a")
    b = Schema("b")
    nested = Schema("inner")
    c.add_schema(a)
    c.add_schema(b)
    a.add_subschema(nested)
    a.add_table(MemoryTable("t1", ["x"], [None or __import__(
        "repro.core.types", fromlist=["DEFAULT_TYPE_FACTORY"]
    ).DEFAULT_TYPE_FACTORY.integer()], [(1,)]))
    nested.add_table(MemoryTable("t2", ["y"], [__import__(
        "repro.core.types", fromlist=["DEFAULT_TYPE_FACTORY"]
    ).DEFAULT_TYPE_FACTORY.integer()], [(2,)]))
    return c


class TestResolution:
    def test_qualified_lookup(self, catalog):
        assert catalog.resolve_table(["a", "t1"]) is not None
        assert catalog.resolve_table(["a", "inner", "t2"]) is not None

    def test_case_insensitive(self, catalog):
        assert catalog.resolve_table(["A", "T1"]) is not None

    def test_unqualified_searches_one_level(self, catalog):
        assert catalog.resolve_table(["t1"]) is not None

    def test_missing_returns_none(self, catalog):
        assert catalog.resolve_table(["a", "nope"]) is None
        assert catalog.resolve_table(["zz", "t1"]) is None

    def test_default_path(self, catalog):
        catalog.default_path = ["a", "inner"]
        assert catalog.resolve_table(["t2"]) is not None

    def test_opt_table_cached_and_stable(self, catalog):
        t1 = catalog.resolve_table(["a", "t1"])
        t2 = catalog.resolve_table(["a", "t1"])
        assert t1 is t2  # identity matters for digest stability

    def test_find_table_returns_qualified_name(self, catalog):
        table, qualified = catalog.find_table(["a", "t1"])
        assert qualified == ("a", "t1")


class TestStatistics:
    def test_statistic_flows_to_opt_table(self):
        from repro.core.types import DEFAULT_TYPE_FACTORY as F
        c = Catalog()
        s = Schema("s")
        c.add_schema(s)
        s.add_table(MemoryTable(
            "t", ["k"], [F.integer()], [(1,), (2,)],
            statistic=Statistic(row_count=99, unique_keys=[[0]],
                                collation=RelCollation.of(0))))
        opt = c.resolve_table(["s", "t"])
        assert opt.row_count == 99
        assert frozenset([0]) in opt.unique_keys
        assert opt.collation.keys == (0,)

    def test_memory_table_statistics_track_inserts(self):
        from repro.core.types import DEFAULT_TYPE_FACTORY as F
        t = MemoryTable("t", ["x"], [F.integer()])
        assert t.statistic.row_count == 0
        t.insert((1,))
        t.insert_many([(2,), (3,)])
        assert t.statistic.row_count == 3
        assert list(t.scan()) == [(1,), (2,), (3,)]

    def test_planner_estimate_follows_inserts(self):
        """The optimizer's handle is cached per table, but its row count
        is read from the live statistic: a plan built after an insert
        is costed for the grown table."""
        from repro.core.metadata import RelMetadataQuery
        from repro.core.types import DEFAULT_TYPE_FACTORY as F
        from repro.framework import planner_for
        c = Catalog()
        s = Schema("s")
        c.add_schema(s)
        t = s.add_table(MemoryTable("t", ["k"], [F.integer()], [(1,), (2,)]))
        planner = planner_for(c)
        opt = c.resolve_table(["s", "t"])
        assert opt.row_count == 2.0
        t.insert_many((i,) for i in range(1000))
        assert t.statistic.row_count == 1002.0
        assert c.resolve_table(["s", "t"]) is opt
        assert opt.row_count == 1002.0
        plan = planner.optimize(planner.rel("SELECT k FROM s.t"))
        assert RelMetadataQuery().row_count(plan) == 1002.0


class TestRuleAggregation:
    def test_rules_collected_recursively(self, catalog):
        sentinel = object()
        catalog.resolve_schema(["a"]).add_rule(sentinel)
        inner = catalog.resolve_schema(["a", "inner"])
        sentinel2 = object()
        inner.add_rule(sentinel2)
        rules = catalog.all_rules()
        assert sentinel in rules and sentinel2 in rules

    def test_materializations_and_lattices_collected(self, catalog):
        catalog.resolve_schema(["a"]).materializations.append("m")
        catalog.resolve_schema(["a", "inner"]).lattices.append("l")
        assert catalog.all_materializations() == ["m"]
        assert catalog.all_lattices() == ["l"]
