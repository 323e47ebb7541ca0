"""Figure 2 — the query optimization process across engines.

Reproduces the walk-through: Orders in Splunk, Products in MySQL.  We
plan the join under three rule configurations and compare estimated
costs and actual work:

* plan A (baseline): each side converts to *enumerable*; the join runs
  client-side;
* plan B: inputs convert to the *spark* convention, Spark joins;
* plan C (the paper's winner): the filter is pushed into the Splunk
  search by an adapter-specific rule, and the join is pushed through
  the converter so it runs in the *splunk* convention via the MySQL
  ODBC lookup.
"""

import pytest

from repro import Catalog
from repro.adapters.jdbc import JdbcSchema, MiniDb
from repro.adapters.spark import spark_rules
from repro.adapters.splunk import SplunkSchema, SplunkStore
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner

from conftest import shape

SQL = ("SELECT o.rowtime, p.name, o.units FROM splunk.orders o "
       "JOIN mysql.products p ON o.productId = p.productId "
       "WHERE o.units > 20")


def build(n_orders: int = 2000, n_products: int = 100):
    db = MiniDb("mysql")
    store = SplunkStore()
    catalog = Catalog()
    mysql = JdbcSchema("mysql", db, dialect="mysql")
    splunk = SplunkSchema("splunk", store)
    catalog.add_schema(mysql)
    catalog.add_schema(splunk)
    mysql.add_jdbc_table(
        "products", ["productId", "name", "price"],
        [F.integer(False), F.varchar(), F.integer()],
        [(i, f"p{i}", i) for i in range(n_products)])
    splunk.add_splunk_table(
        "orders", ["rowtime", "productId", "units"],
        [F.timestamp(False), F.integer(False), F.integer(False)],
        [{"rowtime": t, "productId": t % n_products, "units": (t * 7) % 60}
         for t in range(n_orders)])
    store.register_lookup("products", ["productId", "name", "price"],
                          lambda: db.table("products").rows)
    return catalog, db, store


def _strip_splunk_rules(catalog, *ops):
    splunk = catalog.resolve_schema(["splunk"])
    splunk.rules = [r for r in splunk.rules
                    if getattr(r, "op", None) not in ops]


def _plan(catalog, extra_rules=()):
    planner = Planner(FrameworkConfig(catalog, rules=list(extra_rules)))
    physical = planner.optimize(planner.rel(SQL))
    cost = planner.last_volcano.best_cost()
    return planner, physical, cost


def test_fig2_winner_is_join_inside_splunk():
    catalog, db, store = build()
    # Plan A: no splunk push rules at all.
    cat_a, _, _ = build()
    _strip_splunk_rules(cat_a, "join", "filter")
    _, plan_a, cost_a = _plan(cat_a)
    # Plan B: spark available, still no splunk join.
    cat_b, _, _ = build()
    _strip_splunk_rules(cat_b, "join")
    _, plan_b, cost_b = _plan(cat_b, spark_rules())
    # Plan C: full rule set (the paper's winner).
    _, plan_c, cost_c = _plan(catalog)

    report = "\n".join([
        f"plan A (enumerable join):  cost={cost_a}",
        plan_a.explain(),
        f"\nplan B (spark engine available): cost={cost_b}",
        plan_b.explain(),
        f"\nplan C (join pushed into Splunk): cost={cost_c}",
        plan_c.explain(),
    ])
    shape("Figure 2: candidate plans and costs", report)

    # The paper's conclusion: C beats A and B.
    assert cost_c.value < cost_a.value
    assert cost_c.value < cost_b.value
    assert "lookup products" in plan_c.explain()
    assert "units>20" in plan_c.explain()


def _rows_out_of_leaves(plan) -> int:
    """Rows each adapter leaf ships into Calcite's own operators."""
    from repro.runtime.operators import ExecutionContext

    def walk(node) -> int:
        runner = getattr(node, "execute_rows", None)
        if runner is not None:
            return len(list(runner(ExecutionContext())))
        return sum(walk(i) for i in node.inputs)

    return walk(plan)


def test_fig2_execution_work_comparison():
    """Beyond cost estimates: measure rows actually moved."""
    cat_a, db_a, store_a = build()
    _strip_splunk_rules(cat_a, "join", "filter")
    planner_a = Planner(FrameworkConfig(cat_a))
    plan_a = planner_a.optimize(planner_a.rel(SQL))
    result_a = planner_a.execute(SQL)

    cat_c, db_c, store_c = build()
    planner_c = Planner(FrameworkConfig(cat_c))
    plan_c = planner_c.optimize(planner_c.rel(SQL))
    result_c = planner_c.execute(SQL)

    assert sorted(result_a.rows) == sorted(result_c.rows)
    # Plan A ships every order event (plus the products table) out of the
    # engines; plan C only the filtered, joined result rows.
    moved_a = _rows_out_of_leaves(plan_a)
    moved_c = _rows_out_of_leaves(plan_c)
    shape("Figure 2: rows moved out of the engines",
          f"plan A rows shipped into Calcite operators: {moved_a}\n"
          f"plan C rows shipped into Calcite operators: {moved_c}")
    assert moved_c < moved_a


def bench_fig2_plan_baseline(benchmark):
    catalog, db, store = build()
    _strip_splunk_rules(catalog, "join", "filter")
    planner = Planner(FrameworkConfig(catalog))

    def run():
        return planner.execute(SQL)

    result = benchmark(run)
    assert len(result.rows) > 0


def bench_fig2_plan_pushdown(benchmark):
    catalog, db, store = build()
    planner = Planner(FrameworkConfig(catalog))

    def run():
        return planner.execute(SQL)

    result = benchmark(run)
    assert len(result.rows) > 0


def bench_fig2_planning_time(benchmark):
    catalog, db, store = build()
    planner = Planner(FrameworkConfig(catalog))
    rel = planner.rel(SQL)

    def plan():
        return planner.optimize(rel)

    best = benchmark(plan)
    assert "SplunkQuery" in best.explain()
