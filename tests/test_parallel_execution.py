"""Parallel partitioned vectorized execution: exchanges + scheduler.

Covers the three layers of the parallel subsystem:

* the exchange-insertion rules (`repro.runtime.vectorized.parallel_rules`):
  exchanges appear only where a distribution is required, aggregates
  split into partial/final phases (AVG via SUM+COUNT), small build
  sides broadcast, `parallelism=1` degenerates to the serial plan;
* the worker-pool scheduler (`repro.runtime.vectorized.parallel`):
  results identical to the serial engines across join types, NULL
  keys, collations and limits; errors propagate instead of hanging;
* the `_sort` fast paths of the serial executor: streaming early-exit
  for pure LIMIT/OFFSET and the bounded top-N heap under ORDER BY.
"""

import random

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.core.rex_eval import RexExecutionError
from repro.core.traits import RelCollation, RelDistribution, RelFieldCollation
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner
from repro.runtime.operators import row_sort_key, sort_rows
from repro.runtime.vectorized.exchange import (
    BroadcastExchange,
    HashExchange,
    RandomExchange,
    SingletonExchange,
    exchanges_in,
)


def build_catalog(n_sales: int = 3000, n_products: int = 40,
                  seed: int = 11) -> Catalog:
    """Sales/products with NULL join keys and NULL measure values."""
    rng = random.Random(seed)
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    products = [(pid, f"prod{pid}", "ABC"[pid % 3]) for pid in range(n_products)]
    # A product id no sale references (exercises LEFT/FULL unmatched
    # build rows) plus a NULL-keyed product.
    products.append((9999, "orphan", "Z"))
    sales = []
    for i in range(n_sales):
        pid = None if i % 97 == 0 else rng.randrange(n_products + 5)
        discount = None if i % 3 else 5
        sales.append((i, pid, discount, 1 + i % 7))
    s.add_table(MemoryTable(
        "products", ["productId", "name", "category"],
        [F.integer(), F.varchar(), F.varchar()], products))
    s.add_table(MemoryTable(
        "sales", ["saleId", "productId", "discount", "units"],
        [F.integer(False), F.integer(), F.integer(), F.integer(False)],
        sales))
    return catalog


_CATALOG = build_catalog()


def _planner(**kwargs) -> Planner:
    return Planner(FrameworkConfig(_CATALOG, **kwargs))


def _rows(planner, sql):
    return planner.execute(sql).rows


def _multiset(rows):
    return sorted(rows, key=repr)


ROW = _planner()
VEC = _planner(engine="vectorized")


# ---------------------------------------------------------------------------
# Exchange insertion (plan shape)
# ---------------------------------------------------------------------------

class TestExchangeInsertion:
    def _plan(self, sql, **kwargs):
        planner = _planner(engine="vectorized", **kwargs)
        return planner.optimize(planner.rel(sql))

    def test_no_exchange_without_requirement(self):
        """A scan/filter/project pipeline has no distribution
        requirement, so the parallel plan equals the serial plan."""
        sql = "SELECT saleId, units + 1 FROM s.sales WHERE units > 3"
        parallel = self._plan(sql, parallelism=4)
        serial = self._plan(sql)
        assert not exchanges_in(parallel)
        assert parallel.explain() == serial.explain()

    def test_parallelism_one_is_the_serial_path(self):
        sql = ("SELECT productId, SUM(units) FROM s.sales "
               "GROUP BY productId")
        assert (self._plan(sql, parallelism=1).explain()
                == self._plan(sql).explain())

    # The shuffle-machinery tests below pin partitioned_scans=False:
    # with elision on, a partitionable memory scan is served directly by
    # the backend and these exchange shapes (the gather-then-shard path
    # still used for non-partitionable backends) never appear.

    def test_two_phase_aggregate(self):
        plan = self._plan(
            "SELECT productId, COUNT(*) AS c, AVG(units) AS a "
            "FROM s.sales GROUP BY productId", parallelism=4,
            partitioned_scans=False)
        text = plan.explain()
        exchanges = exchanges_in(plan)
        # partial → HashExchange on the group key → final (+ AVG merge)
        assert any(isinstance(e, HashExchange) for e in exchanges)
        assert any(isinstance(e, RandomExchange) for e in exchanges)
        assert text.count("VectorizedAggregate") == 2
        assert "AVG_MERGE" in text
        # the final COUNT is a SUM0 over partial counts
        assert "$SUM0" in text

    def test_global_aggregate_gathers_partials(self):
        plan = self._plan("SELECT SUM(units), COUNT(*) FROM s.sales",
                          parallelism=4)
        exchanges = exchanges_in(plan)
        assert any(isinstance(e, SingletonExchange) for e in exchanges)
        assert plan.explain().count("VectorizedAggregate") == 2

    def test_distinct_aggregate_is_not_decomposed(self):
        """COUNT(DISTINCT) cannot merge from partials: the input is
        gathered and a single aggregate runs serially."""
        plan = self._plan(
            "SELECT productId, COUNT(DISTINCT units) FROM s.sales "
            "GROUP BY productId", parallelism=4)
        assert plan.explain().count("VectorizedAggregate") == 1
        assert not any(isinstance(e, HashExchange) for e in exchanges_in(plan))

    def test_aggregate_on_join_key_runs_single_phase(self):
        """Grouping by the key the join already hash-partitioned on
        needs no further exchange and no partial/final split."""
        plan = self._plan(
            "SELECT sa.productId, COUNT(*) FROM s.sales sa "
            "JOIN s.products p ON sa.productId = p.productId "
            "GROUP BY sa.productId",
            parallelism=4, broadcast_join_threshold=0,
            partitioned_scans=False)
        text = plan.explain()
        assert text.count("VectorizedAggregate") == 1
        # exactly the two join-input exchanges plus the root gather
        hashes = [e for e in exchanges_in(plan) if isinstance(e, HashExchange)]
        assert len(hashes) == 2

    def test_join_hash_partitions_both_inputs(self):
        plan = self._plan(
            "SELECT s1.saleId FROM s.sales s1 "
            "JOIN s.sales s2 ON s1.saleId = s2.saleId",
            parallelism=4, broadcast_join_threshold=0,
            partitioned_scans=False)
        hashes = [e for e in exchanges_in(plan) if isinstance(e, HashExchange)]
        assert len(hashes) == 2

    def test_small_build_side_broadcasts(self):
        plan = self._plan(
            "SELECT sa.saleId, p.name FROM s.sales sa "
            "JOIN s.products p ON sa.productId = p.productId",
            parallelism=4, broadcast_join_threshold=1000)
        exchanges = exchanges_in(plan)
        assert any(isinstance(e, BroadcastExchange) for e in exchanges)
        assert not any(isinstance(e, HashExchange) for e in exchanges)

    def test_full_join_never_broadcasts(self):
        """FULL joins track unmatched build rows per worker, which is
        only correct when the build side is partitioned, not copied."""
        plan = self._plan(
            "SELECT sa.saleId, p.name FROM s.sales sa "
            "FULL JOIN s.products p ON sa.productId = p.productId",
            parallelism=4, broadcast_join_threshold=1_000_000,
            partitioned_scans=False)
        exchanges = exchanges_in(plan)
        assert not any(isinstance(e, BroadcastExchange) for e in exchanges)
        assert any(isinstance(e, HashExchange) for e in exchanges)

    def test_ordered_gather_carries_collation(self):
        plan = self._plan(
            "SELECT productId, SUM(units) AS total FROM s.sales "
            "GROUP BY productId ORDER BY total DESC", parallelism=4)
        gathers = [e for e in exchanges_in(plan)
                   if isinstance(e, SingletonExchange)]
        assert any(g.collation.field_collations for g in gathers)

    def test_hash_exchange_trait_is_canonical(self):
        """The runtime key order is preserved; the carried trait is
        canonicalised for trait comparison."""
        scan = VEC.optimize(VEC.rel("SELECT saleId, units FROM s.sales"))
        exch = HashExchange(scan, [1, 0], parallelism=2)
        assert exch.keys == (1, 0)
        assert exch.distribution == RelDistribution.hash([0, 1])
        assert exch.traits.distribution.keys == (0, 1)


# ---------------------------------------------------------------------------
# Runtime correctness (parallel vs row engine)
# ---------------------------------------------------------------------------

JOIN_SQL = ("SELECT sa.saleId, sa.units, p.name FROM s.sales sa "
            "{join} JOIN s.products p ON sa.productId = p.productId")


@pytest.mark.parallel
class TestParallelRuntime:
    @pytest.mark.parametrize("join", ["INNER", "LEFT", "RIGHT", "FULL"])
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_join_types_with_null_keys(self, join, parallelism):
        sql = JOIN_SQL.format(join=join)
        expected = _multiset(_rows(ROW, sql))
        for threshold in (0, 1000):  # force hash-hash and broadcast paths
            par = _planner(engine="vectorized", parallelism=parallelism,
                           broadcast_join_threshold=threshold)
            assert _multiset(_rows(par, sql)) == expected

    @pytest.mark.parametrize("join", ["RIGHT", "FULL"])
    def test_outer_join_then_group_on_probe_key(self, join):
        """Unmatched build rows are emitted NULL-padded on whichever
        worker held them, so the join output is NOT hash-distributed on
        the probe keys: a following aggregate on those keys must
        re-exchange or it would emit one NULL group per worker."""
        sql = (f"SELECT sa.productId, COUNT(*) AS c FROM s.sales sa "
               f"{join} JOIN s.products p ON sa.productId = p.productId "
               "GROUP BY sa.productId")
        expected = _multiset(_rows(ROW, sql))
        for parallelism in (2, 4):
            par = _planner(engine="vectorized", parallelism=parallelism,
                           broadcast_join_threshold=0)
            assert _multiset(_rows(par, sql)) == expected

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_aggregates_merge_exactly(self, parallelism):
        sql = ("SELECT productId, COUNT(*) AS c, COUNT(discount) AS cd, "
               "SUM(discount) AS sd, AVG(discount) AS ad, "
               "MIN(units) AS mn, MAX(units) AS mx "
               "FROM s.sales GROUP BY productId")
        par = _planner(engine="vectorized", parallelism=parallelism)
        assert _multiset(_rows(par, sql)) == _multiset(_rows(ROW, sql))

    def test_correlated_subquery_on_partition_local_workers(self):
        """Worker threads share one ExecutionContext; each must see only
        the outer rows of its own subquery evaluations."""
        import sys
        sql = ("SELECT sa.productId, COUNT(*) FROM s.sales sa WHERE EXISTS "
               "(SELECT 1 FROM s.products p WHERE p.productId = sa.productId "
               "AND p.category = 'A') GROUP BY sa.productId")
        expected = _multiset(_rows(ROW, sql))
        par = _planner(engine="vectorized", parallelism=4, workers="thread")
        assert "PartitionedScan" in par.optimize(par.rel(sql)).explain()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert _multiset(_rows(par, sql)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_avg_of_all_null_group_is_null(self):
        catalog = Catalog()
        s = Schema("s")
        catalog.add_schema(s)
        s.add_table(MemoryTable(
            "t", ["k", "v"], [F.integer(False), F.integer()],
            [(1, None), (1, None), (2, 4), (2, None), (2, 8)] * 50))
        par = Planner(FrameworkConfig(catalog, engine="vectorized",
                                      parallelism=4))
        rows = _rows(par, "SELECT k, AVG(v) FROM s.t GROUP BY k")
        assert sorted(rows) == [(1, None), (2, 6.0)]

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_order_by_is_exact_across_workers(self, parallelism):
        """The merge gather preserves the collation end to end."""
        sql = ("SELECT saleId, units FROM s.sales "
               "ORDER BY units DESC, saleId LIMIT 40")
        par = _planner(engine="vectorized", parallelism=parallelism)
        assert _rows(par, sql) == _rows(ROW, sql)

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_limit_offset_is_global(self, parallelism):
        sql = ("SELECT saleId FROM s.sales WHERE units > 2 "
               "ORDER BY saleId LIMIT 10 OFFSET 25")
        par = _planner(engine="vectorized", parallelism=parallelism)
        assert _rows(par, sql) == _rows(ROW, sql)

    def test_union_all_stays_partitioned(self):
        sql = ("SELECT productId FROM s.sales WHERE units > 5 "
               "UNION ALL SELECT productId FROM s.sales WHERE units <= 5")
        par = _planner(engine="vectorized", parallelism=4)
        assert _multiset(_rows(par, sql)) == _multiset(_rows(ROW, sql))

    def test_worker_errors_propagate(self):
        """A failing expression inside a worker raises at the gather
        instead of deadlocking the region."""
        par = _planner(engine="vectorized", parallelism=4)
        with pytest.raises(RexExecutionError, match="division by zero"):
            _rows(par, "SELECT SUM(units / (units - units)) FROM s.sales")

    def test_abandoned_gather_cancels_workers(self):
        """Stopping mid-stream (LIMIT-style consumption) shuts the
        region down rather than leaving producers blocked."""
        from repro.runtime.operators import ExecutionContext, execute
        par = _planner(engine="vectorized", parallelism=4)
        plan = par.optimize(par.rel(
            "SELECT productId, SUM(units) FROM s.sales GROUP BY productId"))
        it = execute(plan, ExecutionContext())
        assert next(it) is not None
        it.close()  # abandon: must not hang and must not leak the region


# ---------------------------------------------------------------------------
# Serial _sort fast paths (streaming limit + top-N heap)
# ---------------------------------------------------------------------------

class TestSortFastPaths:
    def test_pure_limit_early_exits(self):
        """LIMIT with no collation stops pulling the scan after the
        first batch instead of materialising the whole table."""
        result = VEC.execute("SELECT saleId FROM s.sales LIMIT 3")
        assert len(result.rows) == 3
        assert result.context.rows_scanned < 3000  # table has 3000 rows

    def test_limit_offset_streams(self):
        sql = "SELECT saleId FROM s.sales LIMIT 10 OFFSET 2000"
        assert _rows(VEC, sql) == _rows(ROW, sql)

    def test_offset_only(self):
        sql = "SELECT saleId FROM s.sales OFFSET 2995"
        assert _multiset(_rows(VEC, sql)) == _multiset(_rows(ROW, sql))

    def test_top_n_heap_matches_full_sort_with_ties(self):
        """The bounded heap must be stable like the full sort: ties on
        the sort key keep input order in both engines."""
        sql = "SELECT units, saleId FROM s.sales ORDER BY units LIMIT 25"
        assert _rows(VEC, sql) == _rows(ROW, sql)

    def test_top_n_heap_desc_nulls(self):
        sql = ("SELECT discount, saleId FROM s.sales "
               "ORDER BY discount DESC, saleId LIMIT 30")
        assert _rows(VEC, sql) == _rows(ROW, sql)


def test_row_sort_key_equals_sort_rows():
    """Property: one composite key sort == the per-field stable passes."""
    rng = random.Random(3)
    rows = [(rng.choice([None, rng.randrange(5)]),
             rng.choice([None, rng.randrange(9)]),
             rng.randrange(100)) for _ in range(400)]
    for descending in (False, True):
        for nulls_first in (False, True):
            collation = RelCollation([
                RelFieldCollation(0, descending=descending,
                                  nulls_first=nulls_first),
                RelFieldCollation(1, descending=not descending,
                                  nulls_first=nulls_first),
            ])
            assert (sorted(rows, key=row_sort_key(collation))
                    == sort_rows(rows, collation))


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------

def test_parallelism_is_validated():
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        Planner(FrameworkConfig(_CATALOG, engine="vectorized", parallelism=0))
    with pytest.raises(ValueError, match="requires engine='vectorized'"):
        Planner(FrameworkConfig(_CATALOG, engine="row", parallelism=2))
