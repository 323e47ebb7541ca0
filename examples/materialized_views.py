"""Section 6: materialized views and lattices accelerating OLAP queries.

Builds a small star schema, registers (a) an explicit materialized view
and (b) a lattice with tiles, then shows queries being rewritten to
read the precomputed summaries instead of the base tables.

Run:  python examples/materialized_views.py
"""

import random
import time

from repro import Catalog, MemoryTable, Schema
from repro.core.rel import LogicalTableScan
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for
from repro.mv import Lattice, Materialization, Measure


def main() -> None:
    rng = random.Random(11)
    catalog = Catalog()
    sales = Schema("sales")
    catalog.add_schema(sales)
    n = 20_000
    rows = [(i, rng.randrange(50), rng.randrange(10), rng.randrange(1, 9))
            for i in range(n)]
    sales.add_table(MemoryTable(
        "orders", ["oid", "product", "region", "units"],
        [F.integer(False)] * 4, rows))
    planner = planner_for(catalog)

    query = ("SELECT region, SUM(units) AS total, COUNT(*) AS c "
             "FROM sales.orders GROUP BY region")

    t0 = time.perf_counter()
    base = planner.execute(query)
    base_time = time.perf_counter() - t0
    print(f"no MV:      {base_time * 1000:7.1f} ms   plan leaf = base table")

    # (a) View substitution: materialize a finer aggregate; the query
    # above rolls it up instead of scanning 20k rows.
    view = planner.rel("SELECT product, region, SUM(units) AS su, "
                       "COUNT(*) AS c FROM sales.orders GROUP BY product, region")
    sales.materializations.append(
        Materialization.create(planner, "orders_cube", view, ("sales", "orders_cube")))
    t0 = time.perf_counter()
    with_mv = planner.execute(query)
    mv_time = time.perf_counter() - t0
    assert sorted(with_mv.rows) == sorted(base.rows)
    print(f"with MV:    {mv_time * 1000:7.1f} ms   "
          f"speedup ×{base_time / mv_time:.1f}")
    print(with_mv.explain())

    # (b) Lattice tiles over the star.
    sales.materializations.clear()
    scan = LogicalTableScan(catalog.resolve_table(["sales", "orders"]))
    lattice = Lattice("star", scan, dimension_columns=[1, 2],
                      measures=[Measure("SUM", 3), Measure("COUNT", 3, "cnt")])
    lattice.materialize_tile(planner, [1, 2])
    lattice.materialize_tile(planner, [2])
    sales.lattices.append(lattice)
    t0 = time.perf_counter()
    with_tile = planner.execute(query)
    tile_time = time.perf_counter() - t0
    assert sorted(with_tile.rows) == sorted(base.rows)
    print(f"\nwith tile:  {tile_time * 1000:7.1f} ms   "
          f"speedup ×{base_time / tile_time:.1f}; "
          f"lattice rewrites so far: {lattice.rewrites}")
    print(with_tile.explain())


if __name__ == "__main__":
    main()
