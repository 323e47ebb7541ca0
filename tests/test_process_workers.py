"""The process worker backend: differential, engagement and chaos.

Three axes:

* **differential** — every cross-engine case from
  ``test_engine_differential`` must produce identical rows when the
  exchange edges run over forked worker processes instead of threads
  (same multiset; exactly ordered where a collation is required);
* **engagement** — guards against the process backend silently falling
  back to threads: partitionable plans must actually fork
  (``processes_spawned > 0``) and fold the children's counters back
  into the statement context over the wire;
* **chaos** — a SIGKILLed worker surfaces as a typed
  :class:`~repro.errors.WorkerCrashed` (not a hang, not a pickle
  error), deadlines propagate into children, and cancellation through
  the query server reclaims every process and admission slot.

The whole module is skipped where ``fork`` is unavailable (the
scheduler would resolve ``workers="process"`` to threads there, which
``test_parallel_agrees_with_serial_and_row`` already covers).
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.adapters.chaos import ChaosTable
from repro.avatica import OperationalError, QueryServer
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.errors import BackendError, DeadlineExceeded, WorkerCrashed
from repro.framework import FrameworkConfig, Planner
from repro.runtime.vectorized.parallel_process import process_backend_available
from repro.schema.core import Table

from test_engine_differential import (
    CASES,
    PARALLELISMS,
    _planners,
    build_sales_catalog,
)

pytestmark = pytest.mark.skipif(
    not process_backend_available(),
    reason="no fork start method (process backend unavailable)")

GROUP_SQL = "SELECT k, SUM(v) AS total FROM s.t GROUP BY k"

#: keep injected-fault retries fast, as in test_resilience.py
FAST_RETRY = dict(scan_retry_backoff=0.001, scan_retry_backoff_max=0.002)

_PROCESS_CACHE = {}


def _process_planner(builder, parallelism):
    """A process-backed parallel planner sharing the cached catalog."""
    key = (builder, parallelism)
    if key not in _PROCESS_CACHE:
        catalog = _planners(builder)[0].catalog
        _PROCESS_CACHE[key] = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=parallelism,
            workers="process"))
    return _PROCESS_CACHE[key]


def _make_catalog(n=2000, wrap=None, **chaos_kwargs):
    """One table ``s.t``; optionally chaos- or kamikaze-wrapped."""
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    table = MemoryTable(
        "t", ["id", "k", "v"],
        [F.integer(False), F.integer(False), F.integer(False)],
        [(i, i % 7, (i * 13) % 101) for i in range(n)])
    if chaos_kwargs:
        table = ChaosTable(table, **chaos_kwargs)
    if wrap is not None:
        table = wrap(table)
    s.add_table(table)
    # a small healthy side table for post-fault follow-up statements
    s.add_table(MemoryTable(
        "tiny", ["id"], [F.integer(False)], [(i,) for i in range(5)]))
    return catalog


def _await_no_children(timeout=10.0):
    """Every forked worker must be reaped within ``timeout``."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        kids = multiprocessing.active_children()  # reaps as a side effect
        if not kids:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"worker processes leaked: {multiprocessing.active_children()}")


class KamikazeTable(Table):
    """A proxy whose scans SIGKILL any *forked* process that runs them.

    The parent records its pid at construction; scans in the parent
    stay healthy, scans in a worker child die without cleanup — the
    shape of an OOM-killed or segfaulted worker."""

    def __init__(self, inner: Table) -> None:
        super().__init__(inner.name, inner.row_type, inner.statistic)
        self.inner = inner
        self._parent = os.getpid()

    def capabilities(self):
        return self.inner.capabilities()

    def scan(self):
        return self._boom(self.inner.scan())

    def scan_partition(self, partition_id, n_partitions, keys=()):
        return self._boom(
            self.inner.scan_partition(partition_id, n_partitions, keys))

    def scan_columns(self, batch_size, shard=None):
        chunks = self.inner.scan_columns(batch_size, shard)
        return None if chunks is None else self._boom(chunks)

    def _boom(self, rows):
        if os.getpid() != self._parent:
            os.kill(os.getpid(), signal.SIGKILL)
        yield from rows

    def __getattr__(self, name):
        return getattr(self.inner, name)


# ---------------------------------------------------------------------------
# Differential: the process axis of the cross-engine harness
# ---------------------------------------------------------------------------

@pytest.mark.parallel
@pytest.mark.parametrize("parallelism", PARALLELISMS)
@pytest.mark.parametrize(
    "builder,sql,ordered",
    [pytest.param(b, sql, ordered, id=case_id)
     for case_id, b, sql, ordered in CASES])
def test_process_workers_agree_with_row_engine(builder, sql, ordered,
                                               parallelism):
    row_planner, vec_planner = _planners(builder)
    proc_planner = _process_planner(builder, parallelism)
    row_result = row_planner.execute(sql)
    vec_result = vec_planner.execute(sql)
    proc_result = proc_planner.execute(sql)
    assert row_result.columns == proc_result.columns
    if ordered:
        assert proc_result.rows == row_result.rows
        assert proc_result.rows == vec_result.rows
    else:
        expected = sorted(row_result.rows, key=repr)
        assert sorted(proc_result.rows, key=repr) == expected
        assert sorted(vec_result.rows, key=repr) == expected
    _await_no_children()


# ---------------------------------------------------------------------------
# Engagement: the backend must actually fork and fold stats home
# ---------------------------------------------------------------------------

@pytest.mark.parallel
class TestProcessEngagement:
    def test_partitionable_aggregate_forks_workers(self):
        planner = _process_planner(build_sales_catalog, 2)
        result = planner.execute(
            "SELECT productId, SUM(units) AS su FROM s.sales "
            "GROUP BY productId")
        ctx = result.context
        assert ctx.processes_spawned > 0
        # the children's scan counters crossed the wire back home
        assert ctx.rows_scanned >= 1000  # the sales table's cardinality
        assert ctx.worker_crashes == 0
        _await_no_children()

    def test_partition_assignment_is_built_once_in_the_parent(
            self, monkeypatch):
        """The scheduler opens each memory shard in the parent before it
        forks, so the table's partition assignment lives in the parent:
        a second statement reuses it and builds nothing."""
        from repro.adapters import memory
        catalog = _make_catalog()
        planner = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=2, workers="process"))
        first = planner.execute(GROUP_SQL)
        assert first.context.processes_spawned > 0
        table = catalog.find_table(["s", "t"])[0]
        assert table._partitions  # held by the parent, not a worker

        def rebuilt(*args):
            raise AssertionError("partition assignment rebuilt")
        monkeypatch.setattr(memory, "assign_partitions", rebuilt)
        second = planner.execute(GROUP_SQL)
        assert sorted(second.rows) == sorted(first.rows)
        _await_no_children()

    def test_serial_plans_do_not_fork(self):
        """Plans without exchange edges stay in-process even under
        ``workers="process"`` (forking would be pure overhead)."""
        planner = _process_planner(build_sales_catalog, 2)
        result = planner.execute("SELECT name FROM s.products WHERE "
                                 "productId < 3")
        assert result.context.processes_spawned == 0

    def test_workers_and_batch_size_change_the_cache_key(self):
        catalog = _planners(build_sales_catalog)[0].catalog
        sql = "SELECT COUNT(*) FROM s.sales"
        base = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=2))
        proc = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=2, workers="process"))
        small = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=2, batch_size=64))
        assert base.cache_key(sql) != proc.cache_key(sql)
        assert base.cache_key(sql) != small.cache_key(sql)
        assert proc.cache_key(sql) != small.cache_key(sql)

    def test_auto_resolution(self):
        catalog = _planners(build_sales_catalog)[0].catalog
        serial = Planner(FrameworkConfig(
            catalog, engine="vectorized", workers="auto"))
        assert serial.resolved_workers() == "thread"  # nothing to gain
        par = Planner(FrameworkConfig(
            catalog, engine="vectorized", parallelism=2, workers="auto"))
        gil = getattr(sys, "_is_gil_enabled", lambda: True)()
        assert par.resolved_workers() == ("process" if gil else "thread")
        row = Planner(FrameworkConfig(catalog, workers="process"))
        assert row.resolved_workers() == "thread"  # row engine: no edges

    def test_server_stats_report_execution_profile(self):
        server = QueryServer(engine="vectorized", parallelism=2,
                             workers="process", batch_size=512)
        assert server.stats()["execution"] == {
            "workers": "process", "batch_size": 512, "parallelism": 2}


# ---------------------------------------------------------------------------
# Chaos: crashes, deadlines, cancellation
# ---------------------------------------------------------------------------

@pytest.mark.parallel
@pytest.mark.chaos
class TestProcessChaos:
    def _planner(self, catalog, **kwargs):
        opts = dict(FAST_RETRY, engine="vectorized", parallelism=2,
                    workers="process")
        opts.update(kwargs)
        return Planner(FrameworkConfig(catalog, **opts))

    def test_killed_worker_surfaces_typed_error(self):
        """SIGKILL mid-scan: the consumer sees EOF before EOS and must
        raise a typed, non-retryable WorkerCrashed — no hang, no
        partial result, and every surviving process reclaimed."""
        planner = self._planner(_make_catalog(wrap=KamikazeTable),
                                statement_timeout=30.0)
        started = time.monotonic()
        with pytest.raises(WorkerCrashed) as info:
            planner.execute(GROUP_SQL)
        assert time.monotonic() - started < 20.0
        assert isinstance(info.value, BackendError)
        assert info.value.retryable is False
        _await_no_children()

    def test_killed_worker_counts_in_server_stats(self):
        server = QueryServer(**FAST_RETRY, engine="vectorized",
                             parallelism=2, workers="process")
        server.register_catalog("default",
                                _make_catalog(wrap=KamikazeTable))
        conn = server.connect()
        with pytest.raises((OperationalError, WorkerCrashed)):
            conn.execute(GROUP_SQL).fetchall()
        assert server.stats()["resilience"]["worker_crashes"] >= 1
        assert server.stats()["statements"]["active"] == 0
        _await_no_children()

    def test_deadline_propagates_into_workers(self):
        """A slow scan inside a forked worker must still honour the
        statement deadline: children inherit the remaining budget and
        the statement fails within it, not at stream exhaustion."""
        planner = self._planner(
            _make_catalog(n=20_000, latency_per_row=0.005),
            statement_timeout=0.5)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            planner.execute(GROUP_SQL)
        assert time.monotonic() - started < 10.0
        _await_no_children()

    def test_cancellation_reclaims_processes_and_slots(self):
        """Server-side cancel of a process-backed statement: the row
        stream dies typed, every forked worker is reclaimed within the
        join budget, and the admission slot frees (a follow-up
        statement on the same 1-slot server is admitted)."""
        server = QueryServer(max_concurrent_statements=1,
                             admission_timeout=5.0, **FAST_RETRY,
                             engine="vectorized", parallelism=2,
                             workers="process")
        server.register_catalog(
            "default", _make_catalog(n=50_000, latency_per_row=0.002))
        conn = server.connect()
        cur = conn.execute(GROUP_SQL)
        failure = {}
        done = threading.Event()

        def drain():
            try:
                cur.fetchall()
            except OperationalError as exc:
                failure["error"] = exc
            finally:
                done.set()

        threading.Thread(target=drain, daemon=True).start()
        # wait for the scheduler to actually fork before killing it
        end = time.monotonic() + 10.0
        while (not multiprocessing.active_children()
               and not done.is_set() and time.monotonic() < end):
            time.sleep(0.02)
        assert multiprocessing.active_children(), "workers never forked"
        cur.cancel()
        assert done.wait(15.0), "cancelled statement failed to unwind"
        assert "error" in failure
        _await_no_children()
        assert server.stats()["resilience"]["cancelled"] == 1
        # zero admission-slot leaks: the single slot is free again
        assert conn.execute("SELECT COUNT(*) FROM s.tiny").fetchone() == (5,)
        assert server.stats()["statements"]["active"] == 0
