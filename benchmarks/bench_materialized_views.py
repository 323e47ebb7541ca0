"""P3 — materialized views and lattices (Section 6).

Query latency with (a) no precomputation, (b) view substitution over an
explicit materialization, (c) lattice tiles on a star schema.  Expected
shape: order-of-magnitude latency cuts on matching aggregates, with the
lattice matching a family of GROUP BY queries from one declaration.
"""

import time

import pytest

from repro.core.rel import LogicalTableScan
from repro.framework import FrameworkConfig, Planner
from repro.mv import Lattice, Materialization, Measure

from conftest import make_star_catalog, shape

QUERIES = [
    "SELECT region, SUM(amount) AS s FROM star.facts GROUP BY region",
    "SELECT customer, SUM(amount) AS s FROM star.facts GROUP BY customer",
    "SELECT region, customer, SUM(amount) AS s FROM star.facts "
    "GROUP BY region, customer",
    "SELECT COUNT(*) FROM star.facts",
    "SELECT region, COUNT(*) AS c FROM star.facts GROUP BY region",
]


def _with_lattice(catalog, planner):
    schema = catalog.resolve_schema(["star"])
    scan = LogicalTableScan(catalog.resolve_table(["star", "facts"]))
    lattice = Lattice("facts_lat", scan, dimension_columns=[1, 2, 3],
                      measures=[Measure("SUM", 4), Measure("COUNT", 4, "cnt")])
    lattice.materialize_tile(planner, [1, 2, 3])
    lattice.materialize_tile(planner, [2, 3])
    lattice.materialize_tile(planner, [3])
    schema.lattices.append(lattice)
    return lattice


def _with_materialization(catalog, planner):
    schema = catalog.resolve_schema(["star"])
    view = planner.rel(
        "SELECT region, customer, SUM(amount) AS s, COUNT(*) AS c "
        "FROM star.facts GROUP BY region, customer")
    schema.materializations.append(
        Materialization.create(planner, "facts_rc", view, ("star", "facts_rc")))


def _run_all(planner):
    t0 = time.perf_counter()
    results = [sorted(planner.execute(q).rows) for q in QUERIES]
    return time.perf_counter() - t0, results


def test_mv_and_lattice_latency_shape():
    base_catalog = make_star_catalog(n_rows=8000)
    base_planner = Planner(FrameworkConfig(base_catalog))
    t_base, rows_base = _run_all(base_planner)

    mv_catalog = make_star_catalog(n_rows=8000)
    mv_planner = Planner(FrameworkConfig(mv_catalog))
    _with_materialization(mv_catalog, mv_planner)
    t_mv, rows_mv = _run_all(mv_planner)

    lat_catalog = make_star_catalog(n_rows=8000)
    lat_planner = Planner(FrameworkConfig(lat_catalog))
    lattice = _with_lattice(lat_catalog, lat_planner)
    t_lat, rows_lat = _run_all(lat_planner)

    # correctness first: all three strategies agree
    assert rows_base == rows_mv == rows_lat

    shape("P3: latency over 5 OLAP queries (8k-row star)",
          f"no precomputation:   {t_base * 1000:8.1f} ms\n"
          f"materialized view:   {t_mv * 1000:8.1f} ms "
          f"(×{t_base / t_mv:.1f})\n"
          f"lattice tiles:       {t_lat * 1000:8.1f} ms "
          f"(×{t_base / t_lat:.1f}); tile rewrites = {lattice.rewrites}")
    # shape: precomputation wins clearly
    assert t_mv < t_base
    assert t_lat < t_base
    # the lattice answered most of the aggregate queries
    assert lattice.rewrites >= 3


def test_lattice_matching_rate():
    catalog = make_star_catalog(n_rows=2000)
    planner = Planner(FrameworkConfig(catalog))
    lattice = _with_lattice(catalog, planner)
    matched = 0
    for q in QUERIES:
        result = planner.execute(q)
        if "tile" in result.explain():
            matched += 1
    shape("P3: lattice tile matching rate",
          f"{matched}/{len(QUERIES)} queries answered from tiles")
    assert matched >= 3


def bench_aggregate_without_mv(benchmark):
    catalog = make_star_catalog(n_rows=8000)
    planner = Planner(FrameworkConfig(catalog))
    q = QUERIES[0]
    rows = benchmark(lambda: planner.execute(q).rows)
    assert rows


def bench_aggregate_with_mv(benchmark):
    catalog = make_star_catalog(n_rows=8000)
    planner = Planner(FrameworkConfig(catalog))
    _with_materialization(catalog, planner)
    q = QUERIES[0]
    rows = benchmark(lambda: planner.execute(q).rows)
    assert rows


def bench_aggregate_with_lattice(benchmark):
    catalog = make_star_catalog(n_rows=8000)
    planner = Planner(FrameworkConfig(catalog))
    _with_lattice(catalog, planner)
    q = QUERIES[0]
    rows = benchmark(lambda: planner.execute(q).rows)
    assert rows
