"""P2 — the two planner engines (Section 6).

"The existence of two planners allows Calcite users to reduce the
overall optimization time by guiding the search for different query
plans."  We compare:

* the exhaustive Hep engine (fast, cost-blind),
* Volcano in exhaustive mode (fix point (i)),
* Volcano with the δ-threshold early stop (fix point (ii)),

on star joins of growing size.  Expected shape: Hep plans fastest but
Volcano finds cheaper plans once joins can be reordered; the δ stop
trades a little plan quality for less search.
"""

import time

import pytest

from repro import Catalog, MemoryTable, RelBuilder, Schema
from repro.core.hep import HepPlanner
from repro.core.metadata import RelMetadataQuery
from repro.core.rel import JoinRelType
from repro.core.rules import join_reorder_rules, standard_logical_rules
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.core.volcano import VolcanoPlanner
from repro.runtime import enumerable_rules
from repro.runtime.operators import execute_to_list

from conftest import shape


def _star_join(n_dims: int, fact_rows: int = 400):
    """fact ⋈ dim1 ⋈ dim2 ... with wildly different dimension sizes so
    join order matters."""
    catalog = Catalog()
    s = Schema("w")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "fact", ["fid"] + [f"d{i}" for i in range(n_dims)],
        [F.integer(False)] * (n_dims + 1),
        [tuple([j] + [j % (3 + i * 7) for i in range(n_dims)])
         for j in range(fact_rows)]))
    for i in range(n_dims):
        size = 3 + i * 7
        s.add_table(MemoryTable(
            f"dim{i}", [f"k{i}", f"name{i}"],
            [F.integer(False), F.varchar()],
            [(j, f"n{j}") for j in range(size)]))
    b = RelBuilder(catalog)
    b.scan("w", "fact")
    for i in range(n_dims):
        b.scan("w", f"dim{i}")
        cond = b.equals(b.field2(0, f"d{i}"), b.field2(1, f"k{i}"))
        b.join(JoinRelType.INNER, cond)
    return catalog, b.build()


#: far above what these searches need (809 matches for three joins): an
#: exhaustive run that reaches it was cut short, not finished
MAX_MATCHES = 4000


def _volcano(rel, exhaustive, delta=0.0, patience=40):
    planner = VolcanoPlanner(
        rules=standard_logical_rules() + join_reorder_rules() + enumerable_rules(),
        exhaustive=exhaustive, delta=delta, patience=patience,
        max_matches=MAX_MATCHES)
    t0 = time.perf_counter()
    best = planner.optimize(rel)
    elapsed = time.perf_counter() - t0
    return best, planner.best_cost().value, elapsed, planner.matches_fired


def test_planner_engine_tradeoff():
    lines = [f"{'joins':>5} {'hep ms':>9} {'volcano ms':>11} "
             f"{'volcano-δ ms':>13} {'hep cost':>12} {'volcano cost':>13}"]
    mq = RelMetadataQuery()
    for n_dims in (2, 3):
        catalog, rel = _star_join(n_dims)
        t0 = time.perf_counter()
        hep_plan = HepPlanner(rules=standard_logical_rules()).find_best_exp(rel)
        hep_time = time.perf_counter() - t0
        hep_cost = mq.cumulative_cost(hep_plan).value
        _, vol_cost, vol_time, _ = _volcano(rel, exhaustive=True)
        _, _, eager_time, eager_fired = _volcano(
            rel, exhaustive=False, delta=0.01, patience=30)
        lines.append(f"{n_dims:>5} {hep_time * 1000:>9.1f} "
                     f"{vol_time * 1000:>11.1f} {eager_time * 1000:>13.1f} "
                     f"{hep_cost:>12.1f} {vol_cost:>13.1f}")
        # the cost-based engine never does worse than heuristic rewriting
        assert vol_cost <= hep_cost * 1.01
        # hep is the fast-and-loose engine
        assert hep_time <= vol_time
    shape("P2: planner engines (planning time vs plan cost)", "\n".join(lines))


def test_delta_threshold_reduces_search():
    _catalog, rel = _star_join(3)
    _, cost_full, _, fired_full = _volcano(rel, exhaustive=True)
    _, cost_eager, _, fired_eager = _volcano(rel, exhaustive=False,
                                             delta=0.05, patience=20)
    shape("P2: δ early stop",
          f"exhaustive: fired={fired_full}, cost={cost_full:.1f}\n"
          f"δ=0.05:     fired={fired_eager}, cost={cost_eager:.1f}")
    assert fired_full < MAX_MATCHES  # a fix point, not the cap
    assert fired_eager <= fired_full

def test_multistage_program_combines_engines():
    """Section 6: "users may choose to generate multi-stage optimization
    logic" — a Hep pre-pass shrinks what Volcano must explore."""
    _catalog, rel = _star_join(3)
    pre = HepPlanner(rules=standard_logical_rules()).find_best_exp(rel)
    _, _, t_direct, fired_direct = _volcano(rel, exhaustive=True)
    _, _, t_staged, fired_staged = _volcano(pre, exhaustive=True)
    shape("P2: multi-stage (hep → volcano)",
          f"volcano alone:  fired={fired_direct}\n"
          f"hep then volcano: fired={fired_staged}")
    assert fired_direct < MAX_MATCHES  # both searches ran to a fix point
    assert fired_staged <= fired_direct


def test_plans_agree_on_results():
    _catalog, rel = _star_join(2, fact_rows=100)
    hep_plan = HepPlanner(rules=standard_logical_rules()).find_best_exp(rel)
    vol_plan, _, _, _ = _volcano(rel, exhaustive=True)
    assert sorted(execute_to_list(hep_plan)) == sorted(execute_to_list(vol_plan))


def bench_hep_planning(benchmark):
    _catalog, rel = _star_join(3)
    hep_rules = standard_logical_rules()

    def plan():
        return HepPlanner(rules=hep_rules).find_best_exp(rel)

    assert benchmark(plan) is not None


def bench_volcano_exhaustive(benchmark):
    _catalog, rel = _star_join(3)
    benchmark(lambda: _volcano(rel, exhaustive=True)[0])


def bench_volcano_delta_stop(benchmark):
    _catalog, rel = _star_join(3)
    benchmark(lambda: _volcano(rel, exhaustive=False, delta=0.05,
                               patience=20)[0])
