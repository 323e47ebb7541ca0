"""Tests for the Cassandra adapter — the Section 6 pushdown example."""

import pytest

from repro import Catalog
from repro.adapters.cassandra import (
    CassandraError,
    CassandraQuery,
    CassandraSchema,
    CassandraStore,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for


@pytest.fixture
def store():
    store = CassandraStore()
    t = store.create_table("events", ["device", "ts", "temp"],
                           partition_keys=["device"], clustering_keys=["ts"])
    for row in [("a", 3, 1.0), ("a", 1, 2.0), ("a", 2, 3.0),
                ("b", 1, 4.0), ("b", 9, 5.0)]:
        t.insert(row)
    return store


class TestCassandraStore:
    def test_rows_sorted_within_partition(self, store):
        rows = store.query("events", {"device": "a"})
        assert [r[1] for r in rows] == [1, 2, 3]

    def test_partition_key_required_fields(self, store):
        t = store.create_table("wide", ["p1", "p2", "c"], ["p1", "p2"], ["c"])
        t.insert((1, 2, 3))
        with pytest.raises(CassandraError, match="partition key"):
            store.query("wide", {"p1": 1})

    def test_clustering_range(self, store):
        rows = store.query("events", {"device": "a"},
                           clustering_ranges=[("ts", ">=", 2)])
        assert [r[1] for r in rows] == [2, 3]

    def test_limit(self, store):
        rows = store.query("events", {"device": "a"}, limit=2)
        assert len(rows) == 2

    def test_full_scan_allowed_without_filter(self, store):
        assert len(store.query("events")) == 5


@pytest.fixture
def cass_catalog(store):
    catalog = Catalog()
    schema = CassandraSchema("cass", CassandraStore())
    # use the fixture store's table definitions through a fresh schema
    # (its generated rules read schema.store when they match)
    schema.store = store
    from repro.adapters.cassandra.adapter import CassandraTable
    table = CassandraTable(store, store.table("events"),
                           [F.varchar(False), F.integer(False), F.double()])
    schema.add_table(table)
    catalog.add_schema(schema)
    return catalog, store


class TestCassandraRules:
    def test_filter_pushdown_partition_key(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts, temp FROM cass.events WHERE device = 'a'")
        assert len(res.rows) == 3
        assert "WHERE device = 'a'" in res.explain()

    def test_paper_sort_pushdown_both_conditions_met(self, cass_catalog):
        """Condition (1) single partition + condition (2) clustering
        prefix → LogicalSort becomes CassandraSort (free, via CQL)."""
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts, temp FROM cass.events "
                        "WHERE device = 'a' ORDER BY ts")
        assert [r[0] for r in res.rows] == [1, 2, 3]
        text = res.explain()
        assert "ORDER BY ts ASC" in text          # pushed into CQL
        assert "EnumerableSort" not in text        # no client-side sort

    def test_sort_not_pushed_without_partition_filter(self, cass_catalog):
        """Violating condition (1): no partition restriction."""
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts FROM cass.events ORDER BY ts")
        text = res.explain()
        assert "EnumerableSort" in text or "LogicalSort" in text

    def test_sort_not_pushed_on_non_clustering_column(self, cass_catalog):
        """Violating condition (2): sort key is not a clustering prefix."""
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts, temp FROM cass.events "
                        "WHERE device = 'a' ORDER BY temp")
        assert "EnumerableSort" in res.explain()
        assert [r[1] for r in res.rows] == [1.0, 2.0, 3.0]

    def test_descending_sort_served_in_reverse(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts FROM cass.events WHERE device = 'a' "
                        "ORDER BY ts DESC")
        assert [r[0] for r in res.rows] == [3, 2, 1]
        assert "DESC" in res.explain()

    def test_limit_pushed(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts FROM cass.events WHERE device = 'b' LIMIT 1")
        assert res.rows == [(1,)]
        assert "LIMIT 1" in res.explain()

    def test_clustering_range_pushed(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts FROM cass.events "
                        "WHERE device = 'a' AND ts >= 2")
        assert sorted(r[0] for r in res.rows) == [2, 3]
        assert "ts >= 2" in res.explain()

    def test_non_key_filter_stays_client_side(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT ts FROM cass.events WHERE temp > 2.5")
        assert sorted(r[0] for r in res.rows) == [1, 2, 9]
        assert "EnumerableFilter" in res.explain() or \
               "LogicalFilter" in res.explain()

    def test_cql_rendering(self, cass_catalog):
        catalog, store = cass_catalog
        p = planner_for(catalog)
        rel = p.rel("SELECT ts FROM cass.events WHERE device = 'a' "
                    "AND ts > 1 ORDER BY ts LIMIT 5")
        best = p.optimize(rel)
        leaf = best
        while leaf.inputs:
            leaf = leaf.inputs[0]
        assert isinstance(leaf, CassandraQuery)
        cql = leaf.cql()
        assert cql.startswith("SELECT * FROM events WHERE device = 'a'")
        assert "LIMIT 5" in cql
