"""Window-function throughput: vectorized-parallel vs the row engine.

Times windowed workloads (running aggregate, ranking, LAG/LEAD) over
the sales catalog under three configurations:

* ``row`` — the enumerable engine's per-partition oracle (the bridge
  baseline every vectorized result is differentially pinned against);
* ``vectorized`` — serial columnar kernels;
* ``vectorized-pN`` — the parallel scheduler, where PARTITION BY keys
  become a hash-distribution requirement and the partitioned memory
  backend serves the shards directly.

Acceptance gates:

* correctness — every configuration must produce the same multiset of
  rows as the row engine;
* shuffle volume — the co-partitioned parallel plans must contain no
  ``HashExchange`` and report ``rows_shuffled == 0``: the window runs
  shard-local on backend-served partitions;
* speedup — on hardware where workers can actually run concurrently
  (≥4 cores, and a GIL-free build for the thread backend) the 4-worker
  run must beat serial vectorized by ≥1.8x; elsewhere the gate degrades
  to a bounded scheduler overhead plus an explicit skip.
"""

import os
import sys
import time

import pytest

from repro.core.rel import RelNode
from repro.framework import FrameworkConfig, Planner
from repro.runtime.operators import ExecutionContext, execute
from repro.runtime.vectorized.parallel_process import process_backend_available

from conftest import make_sales_catalog, record_result

N_SALES = 40_000
N_PRODUCTS = 200
WORKER_COUNTS = (1, 2, 4)
#: Bounded scheduler overhead where parallel speedup is impossible.
MAX_SERIAL_OVERHEAD = 2.5
#: Process workers additionally pay fork + wire encode/decode.
PROCESS_MAX_OVERHEAD = 4.0
#: Required 4-worker speedup over serial vectorized on capable hosts.
MIN_PARALLEL_SPEEDUP = 1.8

WORKLOADS = {
    "running_sum": (
        "SELECT saleId, productId, "
        "SUM(units) OVER (PARTITION BY productId ORDER BY saleId), "
        "AVG(units) OVER (PARTITION BY productId ORDER BY saleId "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM s.sales"),
    "ranking": (
        "SELECT saleId, productId, "
        "ROW_NUMBER() OVER (PARTITION BY productId ORDER BY saleId), "
        "RANK() OVER (PARTITION BY productId ORDER BY units DESC, saleId) "
        "FROM s.sales"),
    "lag_lead": (
        "SELECT saleId, productId, "
        "LAG(units) OVER (PARTITION BY productId ORDER BY saleId), "
        "LEAD(units, 2, 0) OVER (PARTITION BY productId ORDER BY saleId) "
        "FROM s.sales"),
}

_catalog = None


def _get_catalog():
    global _catalog
    if _catalog is None:
        _catalog = make_sales_catalog(n_sales=N_SALES, n_products=N_PRODUCTS)
    return _catalog


def _plan(sql: str, engine: str, parallelism: int = 1) -> RelNode:
    planner = Planner(FrameworkConfig(
        _get_catalog(), engine=engine, parallelism=parallelism))
    return planner.optimize(planner.rel(sql))


def _run(plan: RelNode, backend: str = "thread"):
    return list(execute(plan, ExecutionContext(workers=backend)))


def _time_execution(plan: RelNode, backend: str = "thread",
                    repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        rows = _run(plan, backend)
        best = min(best, time.perf_counter() - t0)
    assert rows
    return best


def _parallel_hardware() -> "tuple[bool, str]":
    cores = os.cpu_count() or 1
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    if cores < 4:
        return False, f"only {cores} CPU core(s)"
    if gil:
        return False, "GIL-enabled build (threads cannot run Python concurrently)"
    return True, ""


def _process_hardware() -> "tuple[bool, str]":
    if not process_backend_available():
        return False, "no fork start method (process backend unavailable)"
    cores = os.cpu_count() or 1
    if cores < 4:
        return False, f"only {cores} CPU core(s)"
    return True, ""


def _window_curve(name: str, sql: str, backend: str = "thread") -> dict:
    """Time row baseline + vectorized at every worker count; record all.

    The row engine's rows are the reference.  It runs the same window
    kernels over list columns, so this checks the typed kernels and the
    parallel plans against the list kernels; ``tests/test_sqlite_referee.py``
    checks the kernels themselves against sqlite."""
    row_plan = _plan(sql, "row")
    reference = sorted(execute(row_plan, ExecutionContext()), key=repr)
    times = {"row": _time_execution(row_plan)}
    for workers in WORKER_COUNTS:
        plan = _plan(sql, "vectorized", workers)
        got = sorted(_run(plan, backend), key=repr)
        assert got == reference, (
            f"{name}: parallelism={workers} workers={backend} "
            f"diverged from the row engine")
        times[workers] = _time_execution(plan, backend)
    record_result(
        f"bench_window/{name}", "row", rows=N_SALES,
        seconds=round(times["row"], 4),
        rows_per_sec=int(N_SALES / times["row"]))
    for workers in WORKER_COUNTS:
        record_result(
            f"bench_window/{name}", f"vectorized-{backend}-p{workers}",
            rows=N_SALES, workers=workers, backend=backend,
            seconds=round(times[workers], 4),
            rows_per_sec=int(N_SALES / times[workers]),
            speedup_vs_serial=round(times[1] / times[workers], 2),
            speedup_vs_row=round(times["row"] / times[workers], 2))
    return times


@pytest.mark.parallel
class TestWindowThroughput:
    def test_running_sum_curve(self):
        times = _window_curve("running_sum", WORKLOADS["running_sum"])
        assert times[4] <= times[1] * MAX_SERIAL_OVERHEAD

    def test_ranking_curve(self):
        times = _window_curve("ranking", WORKLOADS["ranking"])
        assert times[4] <= times[1] * MAX_SERIAL_OVERHEAD

    def test_lag_lead_curve(self):
        times = _window_curve("lag_lead", WORKLOADS["lag_lead"])
        assert times[4] <= times[1] * MAX_SERIAL_OVERHEAD

    def test_parallel_speedup_where_possible(self):
        """Hardware-gated acceptance: ≥1.8x at 4 thread workers over
        serial vectorized on the running-aggregate workload."""
        capable, reason = _parallel_hardware()
        times = _window_curve("running_sum-gate", WORKLOADS["running_sum"])
        speedup = times[1] / times[4]
        assert times[4] <= times[1] * MAX_SERIAL_OVERHEAD
        if not capable:
            pytest.skip(
                f"parallel speedup not demonstrable on this host ({reason}); "
                f"overhead bound enforced instead; observed {speedup:.2f}x")
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"expected >={MIN_PARALLEL_SPEEDUP}x at 4 workers, "
            f"got {speedup:.2f}x")

    def test_process_backend_curve(self):
        if not process_backend_available():
            pytest.skip("no fork start method (process backend unavailable)")
        capable, reason = _process_hardware()
        times = _window_curve("running_sum-process",
                              WORKLOADS["running_sum"], backend="process")
        speedup = times[1] / times[4]
        assert times[4] <= times[1] * PROCESS_MAX_OVERHEAD
        if not capable:
            pytest.skip(
                f"process speedup not demonstrable on this host ({reason}); "
                f"overhead bound enforced instead; observed {speedup:.2f}x")
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"expected >={MIN_PARALLEL_SPEEDUP}x at 4 process workers, "
            f"got {speedup:.2f}x")


@pytest.mark.parallel
class TestWindowShuffleVolume:
    """PARTITION BY keys are satisfied by the partitioned backend: the
    parallel window plans must move zero rows across exchange edges."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_copartitioned_window_shuffles_nothing(self, name):
        planner = Planner(FrameworkConfig(
            _get_catalog(), engine="vectorized", parallelism=4))
        plan = planner.optimize(planner.rel(WORKLOADS[name]))
        text = plan.explain()
        assert "VectorizedWindow" in text
        assert "HashExchange" not in text
        result = planner.execute(WORKLOADS[name])
        assert result.context.rows_shuffled == 0
        record_result(
            f"bench_window/{name}-shuffle", "vectorized-thread-p4",
            rows=N_SALES, rows_shuffled=result.context.rows_shuffled)
