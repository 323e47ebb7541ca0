"""Cross-engine differential harness: row vs. vectorized.

Every SQL query exercised by ``test_federation_e2e.py`` and the
planner-driven queries of ``test_paper_examples.py`` runs through both
built-in engines — the enumerable (row) engine and the vectorized
(batch/columnar) engine — and the results must be identical:
order-sensitively for queries with a top-level ORDER BY whose keys are
unique, order-insensitively otherwise.

(The streaming examples of Section 7.2 are driven by ``StreamExecutor``
rather than ``Planner.execute`` and have no engine switch, so they are
out of scope here; ``test_paper_examples.py`` still covers them.)
"""

import sys
import threading

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.avatica import QueryServer
from repro.adapters.jdbc import JdbcSchema, MiniDb
from repro.adapters.mongo import MongoSchema, MongoStore
from repro.adapters.splunk import SplunkSchema, SplunkStore
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner
from repro.schema.core import ViewTable


def build_federated_catalog() -> Catalog:
    """The multi-backend catalog of ``test_federation_e2e.py``."""
    catalog = Catalog()

    db = MiniDb("mysql")
    mysql = JdbcSchema("mysql", db)
    catalog.add_schema(mysql)
    mysql.add_jdbc_table(
        "products", ["productId", "name", "price"],
        [F.integer(False), F.varchar(), F.integer()],
        [(1, "widget", 10), (2, "gadget", 25), (3, "gizmo", 40)])

    splunk_store = SplunkStore()
    splunk = SplunkSchema("splunk", splunk_store)
    catalog.add_schema(splunk)
    splunk.add_splunk_table(
        "orders", ["rowtime", "productId", "units"],
        [F.timestamp(False), F.integer(False), F.integer(False)],
        [{"rowtime": 1, "productId": 1, "units": 30},
         {"rowtime": 2, "productId": 2, "units": 10},
         {"rowtime": 3, "productId": 1, "units": 50},
         {"rowtime": 4, "productId": 3, "units": 5}])

    mongo_store = MongoStore()
    mongo = MongoSchema("mongo", mongo_store)
    catalog.add_schema(mongo)
    mongo.add_collection("reviews", [
        {"productId": 1, "stars": 5}, {"productId": 1, "stars": 4},
        {"productId": 2, "stars": 2}])
    mongo.add_table(ViewTable(
        "reviews_rel",
        "SELECT CAST(_MAP['productId'] AS integer) AS productId,"
        " CAST(_MAP['stars'] AS integer) AS stars FROM mongo.reviews"))

    memory = Schema("ref")
    catalog.add_schema(memory)
    memory.add_table(MemoryTable(
        "categories", ["productId", "category"],
        [F.integer(False), F.varchar()],
        [(1, "tools"), (2, "toys"), (3, "tools")]))
    return catalog


def build_zips_catalog() -> Catalog:
    """Section 7.1's raw MongoDB zips collection."""
    catalog = Catalog()
    mongo = MongoSchema("mongo_raw", MongoStore())
    catalog.add_schema(mongo)
    mongo.add_collection("zips", [
        {"city": "AMSTERDAM", "loc": [4.9, 52.37], "pop": 921000}])
    return catalog


def build_country_catalog() -> Catalog:
    """Section 7.3's geospatial country table."""
    import repro.geo  # noqa: F401  (registers the ST_* functions)
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "country", ["name", "boundary"], [F.varchar(), F.varchar()],
        [("Netherlands",
          "POLYGON ((3.3 50.7, 7.2 50.7, 7.2 53.6, 3.3 53.6, 3.3 50.7))"),
         ("Spain",
          "POLYGON ((-9.3 36.0, 3.3 36.0, 3.3 43.8, -9.3 43.8, -9.3 36.0))")]))
    return catalog


def build_figure2_catalog() -> Catalog:
    """Section 4 / Figure 2's Splunk ⋈ MySQL walk-through."""
    db = MiniDb("mysql")
    store = SplunkStore()
    catalog = Catalog()
    catalog.add_schema(JdbcSchema("mysql", db))
    splunk = SplunkSchema("splunk", store)
    catalog.add_schema(splunk)
    catalog.resolve_schema(["mysql"]).add_jdbc_table(
        "products", ["productId", "name"],
        [F.integer(False), F.varchar()], [(1, "widget")])
    splunk.add_splunk_table(
        "orders", ["rowtime", "productId", "units"],
        [F.timestamp(False), F.integer(False), F.integer(False)],
        [{"rowtime": 1, "productId": 1, "units": 30}])
    store.register_lookup("products", ["productId", "name"],
                          lambda: db.table("products").rows)
    return catalog


def build_sales_catalog() -> Catalog:
    """The Section 6 / Figure 4 sales ⋈ products schema (seeded)."""
    import random
    rng = random.Random(42)
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    products = [(pid, f"prod{pid}", rng.choice(["A", "B", "C"]))
                for pid in range(50)]
    sales = []
    for i in range(1000):
        pid = rng.randrange(50)
        discount = rng.choice([None, 5, 10, 15])
        sales.append((i, pid, discount, rng.randrange(1, 20)))
    s.add_table(MemoryTable(
        "products", ["productId", "name", "category"],
        [F.integer(False), F.varchar(), F.varchar()], products))
    s.add_table(MemoryTable(
        "sales", ["saleId", "productId", "discount", "units"],
        [F.integer(False), F.integer(False), F.integer(), F.integer(False)],
        sales))
    return catalog


def build_hr_catalog() -> Catalog:
    """Employees and departments with NULL join keys, NULL salaries and
    a department nobody works in: inputs for the joins the batch hash
    join declines (theta, cross, and equi keys with a residual)."""
    catalog = Catalog()
    hr = Schema("hr")
    catalog.add_schema(hr)
    hr.add_table(MemoryTable(
        "emps", ["empid", "deptno", "sal"],
        [F.integer(False), F.integer(), F.integer()],
        [(100 + i, None if i == 5 else 10 * (1 + i % 4),
          None if i % 5 == 0 else 5000 + 250 * i) for i in range(12)]))
    hr.add_table(MemoryTable(
        "depts", ["deptno", "dname"], [F.integer(), F.varchar()],
        [(10, "Sales"), (20, "Marketing"), (30, "HR"), (50, "Empty"),
         (None, "Limbo")]))
    return catalog


def build_frames_catalog() -> Catalog:
    """Small tables whose window frames, bag set operations and
    aggregates are easy to check by hand: peers in ``t``, a salary
    column ``e`` ranged over DESC, inputs ``a``/``b`` with repeated
    rows, and ``m`` with NULL group keys, NULL values, a group whose
    values are all NULL, repeated values and strings."""
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    i = F.integer()
    s.add_table(MemoryTable("t", ["id", "g", "k"], [i, i, i],
                            [(1, 10, 5), (2, 10, 5), (3, 10, 7), (4, 20, 1)]))
    s.add_table(MemoryTable(
        "e", ["empid", "sal"], [i, i],
        [(1, 5000), (2, 4950), (3, 5050), (4, 4800), (5, 5200)]))
    s.add_table(MemoryTable("a", ["x"], [i], [(1,), (1,), (1,), (2,)]))
    s.add_table(MemoryTable("b", ["x"], [i], [(1,), (1,), (2,)]))
    s.add_table(MemoryTable(
        "m", ["id", "g", "h", "k", "name"], [i, i, i, i, F.varchar()],
        [(1, 10, 1, 5, "pear"), (2, 10, 1, 5, "apple"), (3, 10, 2, 7, None),
         (4, 20, 1, 2, "fig"), (5, 20, 2, None, None),
         (6, None, 1, 3, "kiwi"), (7, None, 2, None, "date"),
         (8, 30, 1, None, None), (9, 30, 1, None, "plum")]))
    return catalog


#: (case id, catalog builder, SQL, ordered?).  ``ordered`` requests an
#: order-sensitive comparison and is only set where the ORDER BY keys
#: are unique (ties may legitimately order differently between engines).
CASES = [
    # -- test_federation_e2e.py ----------------------------------------
    ("fed_two_backend_join", build_federated_catalog,
     "SELECT p.name, SUM(o.units) AS total "
     "FROM splunk.orders o JOIN mysql.products p "
     "ON o.productId = p.productId GROUP BY p.name ORDER BY total DESC",
     True),
    ("fed_three_backend_join", build_federated_catalog,
     "SELECT c.category, SUM(o.units * p.price) AS revenue "
     "FROM splunk.orders o "
     "JOIN mysql.products p ON o.productId = p.productId "
     "JOIN ref.categories c ON p.productId = c.productId "
     "GROUP BY c.category ORDER BY revenue DESC",
     True),
    ("fed_semistructured_join", build_federated_catalog,
     "SELECT p.name, AVG(r.stars) AS rating "
     "FROM mongo.reviews_rel r JOIN mysql.products p "
     "ON r.productId = p.productId GROUP BY p.name ORDER BY rating DESC",
     True),
    ("fed_filters_pushed", build_federated_catalog,
     "SELECT o.rowtime FROM splunk.orders o "
     "JOIN mysql.products p ON o.productId = p.productId "
     "WHERE o.units > 20 AND p.price < 20",
     False),
    ("fed_count_star_join", build_federated_catalog,
     "SELECT COUNT(*) FROM splunk.orders o "
     "JOIN mysql.products p ON o.productId = p.productId",
     False),
    ("fed_union_across_backends", build_federated_catalog,
     "SELECT productId FROM mysql.products "
     "UNION SELECT productId FROM ref.categories",
     False),
    ("fed_right_join_group_on_probe_key", build_federated_catalog,
     # Products 2 and 3 have no orders above 20 units, so the RIGHT
     # join emits NULL-padded rows; grouping on the probe-side key
     # afterwards guards the parallel axis against per-worker
     # duplication of the NULL group.
     "SELECT o.productId, COUNT(*) AS n FROM "
     "(SELECT * FROM splunk.orders WHERE units > 20) o "
     "RIGHT JOIN mysql.products p ON o.productId = p.productId "
     "GROUP BY o.productId",
     False),
    # -- test_paper_examples.py ----------------------------------------
    ("paper_s6_filter_into_join", build_sales_catalog,
     "SELECT products.name, COUNT(*) "
     "FROM s.sales JOIN s.products USING (productId) "
     "WHERE sales.discount IS NOT NULL "
     "GROUP BY products.name "
     "ORDER BY COUNT(*) DESC",
     False),  # counts tie across products; compare as multisets
    ("paper_s71_mongo_zips", build_zips_catalog,
     "SELECT CAST(_MAP['city'] AS varchar(20)) AS city, "
     "CAST(_MAP['loc'][1] AS float) AS longitude, "
     "CAST(_MAP['loc'][2] AS float) AS latitude "
     "FROM mongo_raw.zips",
     False),
    ("paper_s73_geospatial", build_country_catalog,
     'SELECT name FROM ('
     '  SELECT name,'
     "    ST_GeomFromText('POLYGON ((4.82 52.43, 4.97 52.43, 4.97 52.33,"
     "        4.82 52.33, 4.82 52.43))') AS \"Amsterdam\","
     '    ST_GeomFromText(boundary) AS "Country"'
     '  FROM s.country'
     ') WHERE ST_Contains("Country", "Amsterdam")',
     False),
    ("paper_s4_figure2", build_figure2_catalog,
     "SELECT o.rowtime, p.name FROM splunk.orders o "
     "JOIN mysql.products p ON o.productId = p.productId "
     "WHERE o.units > 20",
     False),
    # -- window functions (VectorizedWindow vs the row interpreter) ----
    ("win_row_number", build_sales_catalog,
     "SELECT saleId, productId, "
     "ROW_NUMBER() OVER (PARTITION BY productId ORDER BY saleId) "
     "FROM s.sales",
     False),
    ("win_rank_ties", build_sales_catalog,
     # units repeats heavily within a product: RANK must gap on peers.
     "SELECT saleId, units, "
     "RANK() OVER (PARTITION BY productId ORDER BY units) "
     "FROM s.sales",
     False),
    ("win_dense_rank_desc", build_sales_catalog,
     "SELECT saleId, "
     "DENSE_RANK() OVER (PARTITION BY productId ORDER BY units DESC) "
     "FROM s.sales",
     False),
    ("win_null_ordering", build_sales_catalog,
     # discount is NULL for ~a quarter of sales: NULLS LAST ascending.
     "SELECT saleId, discount, "
     "ROW_NUMBER() OVER (PARTITION BY productId ORDER BY discount, saleId) "
     "FROM s.sales",
     False),
    ("win_lag_lead", build_sales_catalog,
     "SELECT saleId, "
     "LAG(units) OVER (PARTITION BY productId ORDER BY saleId), "
     "LEAD(units, 2, 0) OVER (PARTITION BY productId ORDER BY saleId) "
     "FROM s.sales",
     False),
    ("win_running_sum", build_sales_catalog,
     # Default frame, RANGE UNBOUNDED PRECEDING .. CURRENT ROW, over a
     # key unique in its partition: a running sum.
     "SELECT saleId, "
     "SUM(units) OVER (PARTITION BY productId ORDER BY saleId) "
     "FROM s.sales",
     False),
    ("win_default_frame_whole_partition", build_frames_catalog,
     # No ORDER BY: the default frame is the whole partition.
     "SELECT id, SUM(k) OVER (PARTITION BY g), COUNT(*) OVER (), "
     "AVG(k) OVER (PARTITION BY g), MIN(k) OVER (), "
     "MAX(k) OVER (PARTITION BY g) FROM s.t",
     False),
    ("win_default_frame_peers", build_frames_catalog,
     # With ORDER BY the default frame ends at the row's last peer: the
     # tied k = 5 rows share one value.
     "SELECT id, SUM(k) OVER (PARTITION BY g ORDER BY k), "
     "COUNT(*) OVER (ORDER BY g), AVG(k) OVER (ORDER BY g, k), "
     "MIN(k) OVER (ORDER BY k DESC), MAX(id) OVER (PARTITION BY g "
     "ORDER BY k) FROM s.t",
     False),
    ("win_default_frame_null_peers", build_sales_catalog,
     # discount ties heavily and is NULL for ~a quarter of sales: NULLs
     # are peers, last ascending and first descending.
     "SELECT saleId, "
     "SUM(units) OVER (PARTITION BY productId ORDER BY discount), "
     "COUNT(discount) OVER (PARTITION BY productId ORDER BY discount "
     "DESC), "
     "AVG(units) OVER (PARTITION BY productId ORDER BY discount DESC, "
     "units) FROM s.sales",
     False),
    ("win_sliding_avg", build_sales_catalog,
     "SELECT saleId, AVG(discount) OVER (PARTITION BY productId "
     "ORDER BY saleId ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) "
     "FROM s.sales",
     False),
    ("win_unbounded_min_max", build_sales_catalog,
     "SELECT saleId, "
     "MIN(units) OVER (PARTITION BY productId ORDER BY saleId "
     "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING), "
     "MAX(units) OVER (PARTITION BY productId ORDER BY saleId "
     "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) "
     "FROM s.sales",
     False),
    ("win_global_no_partition", build_sales_catalog,
     # No PARTITION BY: one global partition (gathers when parallel).
     "SELECT saleId, ROW_NUMBER() OVER (ORDER BY saleId) FROM s.sales",
     False),
    ("win_empty_partitions", build_sales_catalog,
     # The filter empties many product partitions entirely.
     "SELECT saleId, productId, "
     "COUNT(*) OVER (PARTITION BY productId ORDER BY saleId "
     "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) "
     "FROM s.sales WHERE units > 18",
     False),
    ("win_rows_offsets", build_sales_catalog,
     "SELECT saleId, SUM(units) OVER (PARTITION BY productId "
     "ORDER BY saleId ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING), "
     "MIN(units) OVER (PARTITION BY productId ORDER BY saleId "
     "ROWS BETWEEN 1 FOLLOWING AND 2 FOLLOWING), "
     "MAX(discount) OVER (PARTITION BY productId ORDER BY saleId DESC "
     "ROWS 2 PRECEDING) FROM s.sales",
     False),
    ("win_range_offsets", build_sales_catalog,
     "SELECT saleId, SUM(units) OVER (PARTITION BY productId "
     "ORDER BY discount RANGE BETWEEN 5 PRECEDING AND CURRENT ROW), "
     "COUNT(*) OVER (PARTITION BY productId ORDER BY discount "
     "RANGE BETWEEN CURRENT ROW AND 5 FOLLOWING), "
     "AVG(units) OVER (PARTITION BY productId ORDER BY units "
     "RANGE BETWEEN 2 PRECEDING AND 2 FOLLOWING), "
     "MIN(units) OVER (PARTITION BY productId ORDER BY discount "
     "RANGE BETWEEN UNBOUNDED PRECEDING AND 5 PRECEDING), "
     "MAX(units) OVER (PARTITION BY productId ORDER BY discount "
     "RANGE BETWEEN 5 FOLLOWING AND UNBOUNDED FOLLOWING) FROM s.sales",
     False),
    ("win_range_desc", build_frames_catalog,
     # DESC reverses what PRECEDING means: the larger salaries.
     "SELECT empid, SUM(sal) OVER (ORDER BY sal DESC "
     "RANGE BETWEEN 100 PRECEDING AND CURRENT ROW), "
     "SUM(sal) OVER (ORDER BY sal DESC "
     "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
     "COUNT(*) OVER (ORDER BY sal DESC "
     "RANGE BETWEEN 60 FOLLOWING AND 250 FOLLOWING) FROM s.e",
     False),
    ("win_range_desc_nulls", build_sales_catalog,
     # DESC puts the NULL discounts first, inside an UNBOUNDED
     # PRECEDING frame and outside an offset one.
     "SELECT saleId, COUNT(*) OVER (PARTITION BY productId "
     "ORDER BY discount DESC RANGE BETWEEN 5 PRECEDING AND 5 FOLLOWING), "
     "SUM(units) OVER (PARTITION BY productId ORDER BY discount DESC "
     "RANGE BETWEEN UNBOUNDED PRECEDING AND 5 FOLLOWING), "
     "AVG(units) OVER (PARTITION BY productId ORDER BY discount DESC "
     "RANGE BETWEEN 10 PRECEDING AND UNBOUNDED FOLLOWING), "
     "MIN(units) OVER (PARTITION BY productId ORDER BY units DESC "
     "RANGE BETWEEN CURRENT ROW AND 3 FOLLOWING), "
     "MAX(units) OVER (PARTITION BY productId ORDER BY units DESC "
     "RANGE BETWEEN 3 PRECEDING AND 1 PRECEDING) FROM s.sales",
     False),
    ("win_ranking_desc", build_sales_catalog,
     "SELECT saleId, "
     "ROW_NUMBER() OVER (PARTITION BY productId ORDER BY saleId DESC), "
     "RANK() OVER (PARTITION BY productId ORDER BY units DESC), "
     "LAG(units) OVER (PARTITION BY productId ORDER BY saleId DESC), "
     "LEAD(units, 1, -1) OVER (PARTITION BY productId ORDER BY saleId "
     "DESC) FROM s.sales",
     False),
    # -- partition-aware distinct set operations -----------------------
    ("setop_union_distinct", build_sales_catalog,
     "SELECT productId FROM s.sales WHERE units > 10 "
     "UNION SELECT productId FROM s.products",
     False),
    ("setop_union_computed", build_sales_catalog,
     # A computed column defeats scan elision: a real hash shuffle.
     "SELECT productId * 2 FROM s.products "
     "UNION SELECT productId FROM s.sales",
     False),
    ("setop_intersect_distinct", build_sales_catalog,
     "SELECT productId FROM s.sales WHERE units > 10 "
     "INTERSECT SELECT productId FROM s.sales WHERE discount IS NOT NULL",
     False),
    ("setop_except_distinct", build_sales_catalog,
     "SELECT productId FROM s.products "
     "EXCEPT SELECT productId FROM s.sales WHERE units > 15",
     False),
    # -- bag set operations ---------------------------------------------
    ("setop_intersect_all", build_frames_catalog,
     "SELECT x FROM s.a INTERSECT ALL SELECT x FROM s.b",
     False),
    ("setop_except_all", build_frames_catalog,
     "SELECT x FROM s.a EXCEPT ALL SELECT x FROM s.b",
     False),
    ("setop_intersect_all_join", build_sales_catalog,
     # At p=2 the join's rows are spread at random and then shuffled on
     # the full row: no per-partition dedup may drop copies first.
     "SELECT s.units FROM s.sales s JOIN s.products p "
     "ON s.productId = p.productId WHERE p.category = 'A' "
     "INTERSECT ALL SELECT units FROM s.sales WHERE discount > 5",
     False),
    ("setop_except_all_join", build_sales_catalog,
     "SELECT s.units FROM s.sales s JOIN s.products p "
     "ON s.productId = p.productId WHERE p.category = 'A' "
     "EXCEPT ALL SELECT units FROM s.sales WHERE discount > 5",
     False),
    # -- grouped and global aggregates ----------------------------------
    ("agg_nulls", build_frames_catalog,
     # g = NULL is one group; every k of g = 30 is NULL.
     "SELECT g, COUNT(*), COUNT(k), SUM(k), AVG(k), MIN(k), MAX(k) "
     "FROM s.m GROUP BY g",
     False),
    ("agg_global_empty", build_frames_catalog,
     "SELECT COUNT(*), COUNT(k), SUM(k), AVG(k), MIN(k), MAX(k) "
     "FROM s.m WHERE id > 99",
     False),
    ("agg_distinct", build_frames_catalog,
     "SELECT g, COUNT(DISTINCT k), SUM(DISTINCT k), COUNT(k) "
     "FROM s.m GROUP BY g",
     False),
    ("agg_distinct_global", build_frames_catalog,
     "SELECT COUNT(DISTINCT k), SUM(DISTINCT k), COUNT(*) FROM s.m",
     False),
    ("agg_strings", build_frames_catalog,
     "SELECT h, MIN(name), MAX(name), COUNT(name) FROM s.m GROUP BY h",
     False),
    ("agg_two_keys_having", build_frames_catalog,
     "SELECT g, h, COUNT(*), SUM(k) FROM s.m GROUP BY g, h "
     "HAVING COUNT(*) > 1",
     False),
    ("agg_sales_nulls", build_sales_catalog,
     # NULL discounts over 1 000 rows: at p=2 a partial/final split.
     "SELECT productId, COUNT(*), COUNT(discount), SUM(discount), "
     "AVG(discount), MIN(discount), MAX(units), AVG(units) "
     "FROM s.sales GROUP BY productId",
     False),
    ("count_two_args", build_frames_catalog,
     # sqlite has no two-argument COUNT, so no referee: at p=2 the
     # counts split into per-partition counts and their sum.
     "SELECT COUNT(k, name), COUNT(g, h) FROM s.m",
     False),
    # -- joins the batch hash join declines (VectorizedThetaJoin) ------
    ("join_theta", build_hr_catalog,
     "SELECT e.empid, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno < d.deptno",
     False),
    ("join_theta_filtered", build_hr_catalog,
     # The filter is pushed below the join, into the emps input.
     "SELECT e.empid, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno < d.deptno WHERE e.sal > 6000",
     False),
    ("join_cross", build_hr_catalog,
     "SELECT e.empid, d.dname FROM hr.emps e, hr.depts d",
     False),
] + [
    (f"join_residual_{kind.lower()}", build_hr_catalog,
     f"SELECT e.empid, d.dname FROM hr.emps e {kind} JOIN hr.depts d "
     "ON e.deptno = d.deptno AND e.sal > d.deptno * 200",
     False)
    for kind in ("LEFT", "RIGHT", "FULL")
]

#: The window, set-op, aggregate and join subsets additionally run on
#: both worker backends.
_WORKER_AXIS_CASES = [c for c in CASES
                      if c[0].startswith(("win_", "setop_", "agg_", "join_"))]


_CATALOG_CACHE = {}
_PARALLEL_CACHE = {}


def _planners(builder):
    """One (row, vectorized) planner pair per catalog, module-cached."""
    if builder not in _CATALOG_CACHE:
        catalog = builder()
        _CATALOG_CACHE[builder] = (
            Planner(FrameworkConfig(catalog)),
            Planner(FrameworkConfig(catalog, engine="vectorized")))
    return _CATALOG_CACHE[builder]


def _parallel_planner(builder, parallelism, partitioned_scans=True,
                      workers="thread"):
    """A parallel vectorized planner sharing the cached catalog."""
    key = (builder, parallelism, partitioned_scans, workers)
    if key not in _PARALLEL_CACHE:
        catalog = _planners(builder)[0].catalog
        _PARALLEL_CACHE[key] = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=parallelism,
            partitioned_scans=partitioned_scans, workers=workers))
    return _PARALLEL_CACHE[key]


@pytest.mark.parametrize(
    "builder,sql,ordered",
    [pytest.param(b, sql, ordered, id=case_id)
     for case_id, b, sql, ordered in CASES])
def test_row_and_vectorized_engines_agree(builder, sql, ordered):
    row_planner, vec_planner = _planners(builder)
    row_result = row_planner.execute(sql)
    vec_result = vec_planner.execute(sql)
    assert row_result.columns == vec_result.columns
    if ordered:
        assert row_result.rows == vec_result.rows
    else:
        assert sorted(row_result.rows, key=repr) == \
            sorted(vec_result.rows, key=repr)


#: Worker counts for the parallel axis; 4-worker runs are additionally
#: marked slow so quick runs stay bounded (-m "parallel and not slow").
PARALLELISMS = [
    pytest.param(2, id="p2"),
    pytest.param(4, id="p4", marks=pytest.mark.slow),
]


@pytest.mark.parallel
@pytest.mark.parametrize("parallelism", PARALLELISMS)
@pytest.mark.parametrize(
    "builder,sql,ordered",
    [pytest.param(b, sql, ordered, id=case_id)
     for case_id, b, sql, ordered in CASES])
def test_parallel_agrees_with_serial_and_row(builder, sql, ordered,
                                             parallelism):
    """The parallel axis of the differential harness: every case must
    produce identical rows under the row engine, the serial vectorized
    engine and the partitioned vectorized engine — exactly ordered
    where a collation is required, as multisets otherwise."""
    row_planner, vec_planner = _planners(builder)
    par_planner = _parallel_planner(builder, parallelism)
    row_result = row_planner.execute(sql)
    vec_result = vec_planner.execute(sql)
    par_result = par_planner.execute(sql)
    assert row_result.columns == par_result.columns
    if ordered:
        assert par_result.rows == row_result.rows
        assert par_result.rows == vec_result.rows
    else:
        expected = sorted(row_result.rows, key=repr)
        assert sorted(par_result.rows, key=repr) == expected
        assert sorted(vec_result.rows, key=repr) == expected


@pytest.mark.parallel
@pytest.mark.parametrize("workers", ["thread", "process"])
@pytest.mark.parametrize("parallelism", PARALLELISMS)
@pytest.mark.parametrize(
    "builder,sql,ordered",
    [pytest.param(b, sql, ordered, id=case_id)
     for case_id, b, sql, ordered in _WORKER_AXIS_CASES])
def test_window_and_setop_worker_backends_agree(builder, sql, ordered,
                                                parallelism, workers):
    """Windows, distinct set operations and the joins the hash join
    declines must be exact on both worker backends: thread partitions
    share batches in-process, process partitions cross the columnar
    wire format."""
    row_planner, _vec = _planners(builder)
    par_planner = _parallel_planner(builder, parallelism, workers=workers)
    row_result = row_planner.execute(sql)
    par_result = par_planner.execute(sql)
    assert row_result.columns == par_result.columns
    assert sorted(par_result.rows, key=repr) == \
        sorted(row_result.rows, key=repr)


def _residual_semi_join(catalog, join_type):
    """``emps`` SEMI/ANTI-joined to ``depts`` on equal keys plus a
    residual; SQL has no syntax for either join, so it is built."""
    from repro.core import rex
    from repro.core.builder import RelBuilder
    b = RelBuilder(catalog)
    b.scan("hr", "emps")
    b.scan("hr", "depts")
    condition = b.and_(
        b.equals(b.field2(0, "deptno"), b.field2(1, "deptno")),
        b.greater_than(b.field2(0, "sal"),
                       b.call(rex.TIMES, b.field2(1, "deptno"),
                              b.literal(200))))
    return b.join(join_type, condition).build()


@pytest.mark.parametrize("parallelism,workers", [
    pytest.param(1, "thread", id="p1"),
    pytest.param(2, "thread", id="p2-thread",
                 marks=pytest.mark.parallel),
    pytest.param(2, "process", id="p2-process",
                 marks=pytest.mark.parallel),
])
@pytest.mark.parametrize("join_type", ["SEMI", "ANTI"])
def test_residual_semi_and_anti_joins_agree(join_type, parallelism, workers):
    from repro.core.rel import JoinRelType
    join_type = JoinRelType[join_type]
    row_planner, vec_planner = _planners(build_hr_catalog)
    planner = (vec_planner if parallelism == 1 else _parallel_planner(
        build_hr_catalog, parallelism, workers=workers))
    catalog = row_planner.catalog
    expected = row_planner.execute(_residual_semi_join(catalog, join_type))
    result = planner.execute(_residual_semi_join(catalog, join_type))
    assert "VectorizedThetaJoin" in result.explain()
    assert expected.rows  # both kinds keep some employees
    assert sorted(result.rows, key=repr) == sorted(expected.rows, key=repr)


@pytest.mark.parallel
def test_window_plans_run_shard_local_on_copartitioned_input():
    """A window over a partitionable scan must elide the shuffle: the
    PARTITION BY keys are served co-partitioned by the backend, and no
    rows cross an exchange edge."""
    par = _parallel_planner(build_sales_catalog, 2)
    sql = ("SELECT saleId, SUM(units) OVER "
           "(PARTITION BY productId ORDER BY saleId) FROM s.sales")
    plan = par.optimize(par.rel(sql))
    text = plan.explain()
    assert "VectorizedWindow" in text
    assert "PartitionedScan" in text
    assert "HashExchange" not in text
    result = par.execute(sql)
    assert result.context.rows_shuffled == 0


@pytest.mark.parallel
def test_distinct_setop_plans_hash_exchange_not_gather():
    """Distinct UNION with a computed input column cannot elide: it
    must hash-exchange on the full row and dedup per worker, never
    gather the inputs to a single stream below the union."""
    par = _parallel_planner(build_sales_catalog, 2)
    plan = par.optimize(par.rel(
        "SELECT productId * 2 FROM s.products "
        "UNION SELECT productId FROM s.sales"))
    text = plan.explain()
    assert "HashExchange" in text
    union_pos = text.index("VectorizedUnion")
    # The only gather is the root one, above the union.
    assert "SingletonExchange" not in text[union_pos:]


@pytest.mark.parallel
def test_parallel_plans_actually_partition():
    """Guard against the parallel axis silently re-running the serial
    plan: a partitionable aggregation must plan into partitioned scans
    (the backend deals out shards directly) with a gathering exchange;
    when the backend cannot partition, a HashExchange shuffle."""
    par = _parallel_planner(build_sales_catalog, 2)
    plan = par.optimize(par.rel(
        "SELECT productId, SUM(units) FROM s.sales GROUP BY productId"))
    text = plan.explain()
    assert "PartitionedScan" in text or "HashExchange" in text
    assert "SingletonExchange" in text


@pytest.mark.parallel
def test_partitioned_scan_elision_is_optional():
    """partitioned_scans=False restores the gather-then-shard baseline
    (shuffle through a HashExchange instead of adapter partitions)."""
    par = _parallel_planner(build_sales_catalog, 2,
                            partitioned_scans=False)
    plan = par.optimize(par.rel(
        "SELECT productId, SUM(units) FROM s.sales GROUP BY productId"))
    text = plan.explain()
    assert "HashExchange" in text
    assert "PartitionedScan" not in text


# -- columnar scans of memory tables ------------------------------------------

#: joins, a multi-key window and a filter over one memory table, so the
#: column chunks reach every columnar kernel
COLUMNAR_SQL = (
    "SELECT s.saleId, p.name, "
    "RANK() OVER (PARTITION BY s.productId "
    "ORDER BY s.units DESC, s.discount) AS r "
    "FROM s.sales s JOIN s.products p ON s.productId = p.productId "
    "WHERE s.units > 3")


def test_insert_after_columnar_copy_is_seen():
    catalog = build_sales_catalog()
    row = Planner(FrameworkConfig(catalog))
    vec = Planner(FrameworkConfig(catalog, engine="vectorized"))
    sales = catalog.find_table(["s", "sales"])[0]
    before = vec.execute(COLUMNAR_SQL).rows
    assert sales._columnar  # the first vectorized scan built the copy
    sales.insert((1000, 3, None, 19))
    sales.insert((1001, 3, 5, 19))
    after = vec.execute(COLUMNAR_SQL).rows
    assert len(after) == len(before) + 2
    assert sorted(after, key=repr) == \
        sorted(row.execute(COLUMNAR_SQL).rows, key=repr)


def test_columnar_scan_is_a_snapshot_of_its_first_chunk():
    """An insert during a columnar scan replaces the copy; the scan keeps
    reading the one it started on."""
    sales = build_sales_catalog().find_table(["s", "sales"])[0]
    chunks = sales.scan_columns(300)
    first = next(chunks)
    sales.insert((1000, 3, None, 19))
    total = first[1] + sum(n for _, n in chunks)
    assert total == 1000
    rows = [row for columns, n in sales.scan_columns(300)
            for row in zip(*columns)]
    assert rows == sales.rows  # the rebuilt copy has the new row


def test_threads_share_one_cached_plan_while_the_copy_is_built():
    """Four threads execute one cached vectorized plan at once, racing
    to build the tables' columnar copies: every result must equal the
    row engine's."""
    catalog = build_sales_catalog()
    expected = sorted(Planner(FrameworkConfig(catalog))
                      .execute(COLUMNAR_SQL).rows, key=repr)
    server = QueryServer(engine="vectorized")
    server.register_catalog("default", catalog)
    server.connect().prepare(COLUMNAR_SQL)  # plans; scans nothing
    sales = catalog.find_table(["s", "sales"])[0]
    assert not sales._columnar
    barrier = threading.Barrier(4, timeout=30)
    results, errors = [], []

    def client():
        conn = server.connect()
        try:
            barrier.wait()
            for _ in range(3):
                cur = conn.execute(COLUMNAR_SQL)
                results.append((cur.cache_hit,
                                sorted(cur.fetchall(), key=repr)))
        except Exception as exc:  # surfaced below, not lost in a thread
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the build
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 12
    assert all(hit and rows == expected for hit, rows in results)


def test_vectorized_plans_actually_vectorize():
    """Guard against the differential suite silently comparing the row
    engine against itself: a single-backend aggregation must plan into
    vectorized operators."""
    _row, vec = _planners(build_sales_catalog)
    plan = vec.optimize(vec.rel(
        "SELECT category, COUNT(*) FROM s.products GROUP BY category"))
    assert "Vectorized" in plan.explain()


def test_engine_config_is_validated():
    with pytest.raises(ValueError, match="unknown engine"):
        Planner(FrameworkConfig(Catalog(), engine="turbo"))


# -- RANGE offset frames over NULL ORDER BY keys, against sqlite --------------

_RANGE_ROWS = [(1, 10, 5000), (2, 10, None), (3, 10, 5050), (4, 10, None),
               (5, 10, 5200), (6, 20, 5000), (7, 20, None), (8, 20, 5000),
               (9, 30, None), (10, 30, 7000)]


@pytest.mark.parametrize("frame", [
    "RANGE BETWEEN 100 PRECEDING AND CURRENT ROW",
    "RANGE BETWEEN CURRENT ROW AND 100 FOLLOWING",
    "RANGE BETWEEN 100 PRECEDING AND 200 FOLLOWING",
])
@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_range_offset_frame_over_null_keys_matches_sqlite(engine, frame):
    """A NULL ORDER BY value has no value to offset from: its frame is
    its NULL peers (SUM NULL, COUNT(*) the number of NULL peers), as
    sqlite has it; a non-NULL row's frame holds no NULL."""
    import sqlite3
    from repro import connect
    catalog = Catalog()
    hr = Schema("hr")
    catalog.add_schema(hr)
    hr.add_table(MemoryTable(
        "emps", ["empid", "deptno", "sal"],
        [F.integer(False), F.integer(False), F.integer()], _RANGE_ROWS))
    sql = (f"SELECT empid, SUM(sal) OVER (ORDER BY sal {frame}), "
           f"COUNT(*) OVER (ORDER BY sal {frame}), "
           f"COUNT(*) OVER (PARTITION BY deptno ORDER BY sal {frame}) "
           f"FROM hr.emps")
    got = connect(catalog, engine=engine).execute(sql).fetchall()
    referee = sqlite3.connect(":memory:")
    referee.execute("CREATE TABLE emps (empid INTEGER, deptno INTEGER, "
                    "sal INTEGER)")
    referee.executemany("INSERT INTO emps VALUES (?, ?, ?)", _RANGE_ROWS)
    expected = referee.execute(sql.replace("hr.emps", "emps")).fetchall()
    assert sorted(got) == sorted(expected)
    assert (2, None, 4, 2) in got  # the four NULLs; two in dept 10


@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_unimplemented_window_kind_fails_alike_on_both_engines(engine):
    """The vectorized planner has no row-engine window to fall back to,
    so it plans the window and fails at run time as the row engine
    does."""
    from repro.core.rex_eval import RexExecutionError
    row_planner, vec_planner = _planners(build_hr_catalog)
    planner = row_planner if engine == "row" else vec_planner
    with pytest.raises(RexExecutionError, match="COLLECT not supported"):
        planner.execute("SELECT empid, COLLECT(sal) OVER "
                        "(PARTITION BY deptno) FROM hr.emps")


@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_windowed_distinct_is_rejected_on_both_engines(engine):
    """The window kernels fold every row of the frame, so a windowed
    DISTINCT would count the repeated k = 5 of g = 10 twice (3, where
    the distinct count is 2): the validator refuses it."""
    from repro.sql.to_rel import ValidationError
    row_planner, vec_planner = _planners(build_frames_catalog)
    planner = row_planner if engine == "row" else vec_planner
    with pytest.raises(ValidationError, match="DISTINCT"):
        planner.execute("SELECT id, COUNT(DISTINCT k) OVER "
                        "(PARTITION BY g) FROM s.t")


# -- EXTRACT over DATE, TIMESTAMP and NULL ------------------------------------

#: 2024-01-07 is a Sunday, 2023-12-30 a Saturday
_EXTRACT_ROWS = [
    (1, "2024-01-07", (2024, 1, 7, 13, 45, 30)),
    (2, "2023-12-30", (2023, 12, 30, 0, 5, 59)),
    (3, None, None),
]

#: unit -> per row, (from the DATE, from the TIMESTAMP); DOW runs from
#: 1 (Sunday) to 7 (Saturday), and a DATE's time of day is midnight
_EXTRACTED = {
    "YEAR": [(2024, 2024), (2023, 2023)],
    "MONTH": [(1, 1), (12, 12)],
    "DAY": [(7, 7), (30, 30)],
    "HOUR": [(0, 13), (0, 0)],
    "MINUTE": [(0, 45), (0, 5)],
    "SECOND": [(0, 30), (0, 59)],
    "DOW": [(1, 1), (7, 7)],
}


@pytest.mark.parametrize("unit", list(_EXTRACTED))
@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_extract_every_unit_from_date_timestamp_and_null(engine, unit):
    from datetime import date, datetime
    from repro import connect
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "d", ["id", "dt", "ts"], [F.integer(False), F.date(), F.timestamp()],
        [(i, d and date.fromisoformat(d), ts and datetime(*ts))
         for i, d, ts in _EXTRACT_ROWS]))
    rows = connect(catalog, engine=engine).execute(
        f"SELECT id, EXTRACT({unit} FROM dt), EXTRACT({unit} FROM ts) "
        f"FROM s.d").fetchall()
    assert sorted(rows) == [(i + 1,) + pair for i, pair in
                            enumerate(_EXTRACTED[unit])] + [(3, None, None)]
