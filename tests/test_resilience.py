"""The resilience layer under fault injection: deadlines, retries,
circuit breakers, cancellation, and the no-leak guarantees.

Every integration test drives faults through
:class:`repro.adapters.chaos.ChaosTable` — deterministic injection, so
each scenario replays exactly.  The ``chaos`` marker arms a hard
SIGALRM wall-clock guard (see ``conftest.py``): the suite's contract
is *zero hangs*, so a regression that reintroduces an unbounded wait
fails loudly instead of wedging CI.
"""

import gc
import multiprocessing
import threading
import time

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.adapters.chaos import ChaosTable
from repro.adapters.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    RetryPolicy,
)
from repro.avatica import OperationalError, QueryServer
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    Deadline,
    PermanentBackendError,
    StatementCancelled,
    TransientBackendError,
    is_backend_fault,
    is_transient,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner
from repro.runtime.operators import ExecutionContext
from repro.runtime.vectorized.batch import pylist
from repro.runtime.vectorized.parallel import Region, region_for
from repro.runtime.vectorized.parallel_process import (
    ProcessRegion,
    process_backend_available,
)

N_ROWS = 300
GROUP_SQL = "SELECT k, SUM(v) AS total FROM s.t GROUP BY k"
ORDERED_SQL = ("SELECT k, SUM(v) AS total FROM s.t "
               "GROUP BY k ORDER BY total DESC, k")

#: retry knobs that keep injected-fault tests fast
FAST_RETRY = dict(scan_retry_backoff=0.001, scan_retry_backoff_max=0.002)

#: the two exchange transports; a forked worker's ChaosTable counters
#: stay in the child, so process variants assert through the counters
#: the child folds into the statement context instead
WORKERS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not process_backend_available(), reason="no fork start method"))]


def table_rows(n=N_ROWS):
    return [(i, i % 7, (i * 13) % 101) for i in range(n)]


def make_catalog(n=N_ROWS, **chaos_kwargs):
    """A catalog with one (optionally chaos-wrapped) table ``s.t``."""
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    table = MemoryTable(
        "t", ["id", "k", "v"],
        [F.integer(False), F.integer(False), F.integer(False)],
        table_rows(n))
    if chaos_kwargs:
        table = ChaosTable(table, **chaos_kwargs)
    s.add_table(table)
    return catalog, table


def expected_groups(n=N_ROWS):
    out = {}
    for _, k, v in table_rows(n):
        out[k] = out.get(k, 0) + v
    return sorted(out.items())


def planner_for(catalog, **kwargs):
    opts = dict(FAST_RETRY)
    opts.update(kwargs)
    return Planner(FrameworkConfig(catalog, **opts))


def live_workers():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-worker") and t.is_alive()]


def assert_no_workers(timeout=10.0):
    """No scheduler thread alive, and every forked worker reaped."""
    assert not live_workers()
    end = time.monotonic() + timeout
    while multiprocessing.active_children():  # reaps as a side effect
        assert time.monotonic() < end, "worker processes leaked"
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Unit tests: the taxonomy and primitives
# ---------------------------------------------------------------------------

class TestPrimitives:
    def test_deadline_none_is_unbounded(self):
        assert Deadline.after(None) is None

    def test_deadline_expiry(self):
        d = Deadline.after(0.01)
        assert d.remaining() <= 0.01
        assert not d.expired()
        time.sleep(0.02)
        assert d.expired()
        assert d.remaining() < 0

    def test_taxonomy_classifiers(self):
        assert is_transient(TransientBackendError("x"))
        assert is_transient(ConnectionError("x"))
        assert not is_transient(PermanentBackendError("x"))
        assert not is_transient(ValueError("x"))
        assert is_backend_fault(TransientBackendError("x"))
        assert is_backend_fault(PermanentBackendError("x"))
        # Control errors are never charged to a backend's breaker.
        assert not is_backend_fault(DeadlineExceeded("x"))
        assert not is_backend_fault(StatementCancelled("x"))
        assert not is_backend_fault(CircuitOpenError("x"))
        assert not is_backend_fault(ValueError("x"))

    def test_retry_policy_deterministic(self):
        p = RetryPolicy(base_delay=0.1, max_delay=1.0)
        assert p.delay(1, token=3) == p.delay(1, token=3)
        assert p.delay(1, token=3) != p.delay(1, token=4)
        assert p.delay(2, token=3) != p.delay(1, token=3)

    def test_retry_policy_capped_exponential(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.3)
        for attempt, cap in [(1, 0.1), (2, 0.2), (3, 0.3), (6, 0.3)]:
            d = p.delay(attempt)
            assert 0.5 * cap <= d <= cap

    def test_circuit_breaker_transitions(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=2, recovery_timeout=10.0,
                           clock=lambda: now[0])
        assert b.state == b.CLOSED and b.allow()
        assert not b.record_failure()         # 1/2
        assert b.record_failure()             # trips
        assert b.state == b.OPEN and not b.allow()
        now[0] = 9.0
        assert not b.allow()                  # still cooling off
        now[0] = 10.0
        assert b.allow()                      # half-open probe admitted
        assert b.state == b.HALF_OPEN
        assert b.record_failure()             # probe failed: re-open
        assert b.state == b.OPEN
        now[0] = 20.0
        assert b.allow()
        b.record_success()                    # probe succeeded: re-close
        assert b.state == b.CLOSED
        assert b.trips == 2

    def test_breaker_registry_scopes_are_independent(self):
        reg = BreakerRegistry(failure_threshold=1)
        backend = object()
        reg.breaker_for(backend, "partition").record_failure()
        assert not reg.breaker_for(backend, "partition").allow()
        assert reg.breaker_for(backend, "scan").allow()

    @pytest.mark.chaos
    @pytest.mark.parametrize("workers", WORKERS)
    def test_iter_queue_raises_deadline_not_hangs(self, workers):
        """A starved edge — its producer never delivers — raises the
        typed deadline error at the receiver on either transport."""
        ctx = ExecutionContext(deadline=Deadline.after(0.05), workers=workers)
        region = region_for(ctx)
        assert isinstance(region, {"thread": Region,
                                   "process": ProcessRegion}[workers])
        _, (receiver,) = region.edge(1, 1)
        try:
            with pytest.raises(DeadlineExceeded):
                next(region.receive(receiver, ctx))
        finally:
            region.shutdown()
        assert ctx.deadline_misses == 1


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestRetries:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_transient_failure_is_retried(self, engine):
        catalog, chaos = make_catalog(fail_after_rows=10, fail_times=1)
        planner = planner_for(catalog, engine=engine)
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups()
        assert result.context.retries == 1
        assert chaos.faults_injected == 1
        assert chaos.scans_started == 2  # original + one re-run

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_permanent_failure_is_not_retried(self, engine):
        catalog, chaos = make_catalog(
            fail_after_rows=10, fail_times=-1,
            error_factory=lambda t, p, r: PermanentBackendError("backend gone"))
        planner = planner_for(catalog, engine=engine)
        with pytest.raises(PermanentBackendError):
            planner.execute(GROUP_SQL)
        assert chaos.scans_started == 1

    def test_retry_exhaustion_surfaces_transient_error(self):
        catalog, chaos = make_catalog(fail_after_rows=0, fail_times=-1)
        planner = planner_for(catalog, scan_retry_attempts=3)
        with pytest.raises(TransientBackendError):
            planner.execute(GROUP_SQL)
        assert chaos.scans_started == 3  # max_attempts counts the first try

    def test_plain_bug_is_not_retried(self):
        catalog, chaos = make_catalog(
            fail_after_rows=5, fail_times=-1,
            error_factory=lambda t, p, r: ValueError("boom"))
        planner = planner_for(catalog)
        with pytest.raises(ValueError, match="boom"):
            planner.execute(GROUP_SQL)
        assert chaos.scans_started == 1

    def test_no_duplicate_rows_after_mid_stream_retry(self):
        # The retry skips already-emitted rows: SUM would inflate if
        # the first 20 rows were double-counted.
        catalog, _ = make_catalog(fail_after_rows=20, fail_times=1)
        planner = planner_for(catalog)
        result = planner.execute("SELECT id FROM s.t")
        ids = [r[0] for r in result.rows]
        assert sorted(ids) == list(range(N_ROWS))
        assert len(ids) == len(set(ids))


@pytest.mark.chaos
class TestKeyLookups:
    """A key lookup reads the backend like a scan does: a chaos-wrapped
    table must inject its faults into lookups too, and the lookup must
    get the scan's retry, replay-skip and breaker treatment."""

    SQL = "SELECT id, k, v FROM s.t WHERE k = ?"

    def test_lookup_fault_is_injected_and_retried(self):
        catalog, chaos = make_catalog(fail_after_rows=10, fail_times=1)
        planner = planner_for(catalog)
        prepared = planner.prepare(self.SQL)
        assert "lookup=[$1 = ?0]" in prepared.plan.explain()
        result = planner.execute_plan(prepared, [3])
        expected = [row for row in table_rows() if row[1] == 3]
        # Replay-skip: the ten rows emitted before the fault are neither
        # duplicated nor dropped, and table order is kept.
        assert result.rows == expected
        assert chaos.faults_injected == 1
        assert chaos.scans_started == 2  # original + one re-run
        assert result.context.retries == 1
        assert result.context.rows_scanned == len(expected)

    def test_open_breaker_fails_lookup_fast(self):
        catalog, chaos = make_catalog(fail_after_rows=0, fail_times=-1)
        planner = planner_for(catalog, scan_retry_attempts=1,
                              breaker_failure_threshold=1)
        prepared = planner.prepare(self.SQL)
        with pytest.raises(TransientBackendError):
            planner.execute_plan(prepared, [3])
        assert chaos.faults_injected == 1
        scans_before = chaos.scans_started
        with pytest.raises(CircuitOpenError):
            planner.execute_plan(prepared, [4])
        assert chaos.scans_started == scans_before


def rows_forbidden(chaos):
    """Make the wrapped table's row scan fail, so a passing test proves
    the engine read it through the columnar path."""
    def no_rows():
        raise AssertionError("scanned by rows, not by column chunks")
    chaos.inner.scan = no_rows


@pytest.mark.chaos
class TestColumnarScans:
    """Vectorized plans read a chaos-wrapped memory table as column
    chunks; faults, retries, breakers and cancellation act per chunk."""

    N = 3000  # three chunks of the default 1 024 rows

    def test_chaos_injects_at_the_exact_row_of_a_chunk(self):
        _, chaos = make_catalog(n=10, fail_after_rows=6, fail_times=1)
        chunks = chaos.scan_columns(4)
        assert next(chunks)[1] == 4
        columns, n = next(chunks)  # the chunk the fault falls in, cut
        assert n == 2 and pylist(columns[0]) == [4, 5]
        with pytest.raises(TransientBackendError):
            next(chunks)
        assert chaos.faults_injected == 1

    def test_slow_or_row_only_tables_fall_back_to_rows(self):
        from repro.schema.core import MemoryTable as RowOnlyTable
        _, slow = make_catalog(latency_per_row=0.001)
        assert slow.scan_columns(1024) is None
        assert slow.scan_columns(1024, (0, 2, (1,))) is None
        row_only = ChaosTable(RowOnlyTable(
            "t", ["id"], [F.integer(False)], [(1,), (2,)]))
        assert row_only.scan_columns(1024) is None
        assert row_only.scan_columns(1024, (0, 2, ())) is None
        assert slow.scans_started == row_only.scans_started == 0
        assert slow.partition_scans_started == 0

    def test_shard_chunks_are_injected_on_their_partition_only(self):
        _, chaos = make_catalog(fail_after_rows=3, fail_times=-1,
                                only_partition=1)
        healthy = chaos.scan_columns(4, (0, 2, (1,)))
        faulty = chaos.scan_columns(4, (1, 2, (1,)))
        assert chaos.partition_scans_started == 0  # opened, not read
        assert sum(n for _, n in healthy) == len(list(
            chaos.inner.scan_partition(0, 2, (1,))))
        assert next(faulty)[1] == 3  # the chunk the fault falls in, cut
        with pytest.raises(TransientBackendError, match="shard 1"):
            next(faulty)
        assert chaos.partition_scans_started == 2
        assert chaos.scans_started == 0 and chaos.faults_injected == 1

    def test_mid_chunk_failure_retries_with_replay_skip(self):
        catalog, chaos = make_catalog(n=self.N, fail_after_rows=1500,
                                      fail_times=1)
        rows_forbidden(chaos)
        planner = planner_for(catalog, engine="vectorized")
        result = planner.execute("SELECT id, k, v FROM s.t")
        # Table order, each row once: the 1 500 rows emitted before the
        # fault (half of the second chunk) are skipped on the re-run.
        assert result.rows == table_rows(self.N)
        assert result.context.rows_scanned == len(result.rows)
        assert result.context.retries == 1
        assert chaos.faults_injected == 1
        assert chaos.scans_started == 2

    def test_open_breaker_fails_before_the_first_chunk(self):
        catalog, chaos = make_catalog(n=self.N, fail_after_rows=0,
                                      fail_times=-1)
        rows_forbidden(chaos)
        planner = planner_for(catalog, engine="vectorized",
                              scan_retry_attempts=1,
                              breaker_failure_threshold=1)
        with pytest.raises(TransientBackendError):
            planner.execute(GROUP_SQL)
        scans_before = chaos.scans_started
        running = planner.bind(planner.prepare(GROUP_SQL))
        with pytest.raises(CircuitOpenError):
            list(running.rows)
        assert chaos.scans_started == scans_before
        assert running.context.rows_scanned == 0

    def test_cancel_between_chunks(self):
        catalog, chaos = make_catalog(n=self.N, fail_after_rows=None)
        rows_forbidden(chaos)
        server = QueryServer(engine="vectorized", **FAST_RETRY)
        server.register_catalog("default", catalog)
        cur = server.connect().execute("SELECT id FROM s.t")
        assert cur.fetchone() == (0,)  # the first chunk is out
        cur.cancel()
        with pytest.raises(OperationalError) as info:
            cur.fetchall()
        assert isinstance(info.value.__cause__, StatementCancelled)
        assert server.stats()["statements"]["active"] == 0


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestDeadlines:
    @pytest.mark.parametrize("kwargs", [
        dict(engine="row"),
        dict(engine="vectorized"),
        dict(engine="vectorized", parallelism=4),
    ])
    def test_slow_backend_hits_deadline(self, kwargs):
        # ~3s of injected latency against a 0.15s budget: the statement
        # must fail with the typed error well before the scan finishes.
        catalog, _ = make_catalog(fail_after_rows=None, latency_per_row=0.01)
        planner = planner_for(catalog, statement_timeout=0.15, **kwargs)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            planner.execute(GROUP_SQL)
        assert time.monotonic() - start < 2.0
        assert not live_workers()

    def test_deadline_miss_counted_once(self):
        catalog, _ = make_catalog(latency_per_row=0.01)
        planner = planner_for(catalog, statement_timeout=0.1)
        running = planner.bind(planner.prepare(GROUP_SQL))
        with pytest.raises(DeadlineExceeded):
            list(running.rows)
        assert running.context.deadline_misses == 1

    def test_per_statement_timeout_override_dbapi(self):
        catalog, _ = make_catalog(latency_per_row=0.01)
        server = QueryServer(**FAST_RETRY)
        server.register_catalog("default", catalog)
        conn = server.connect()
        cur = conn.cursor()
        with pytest.raises(OperationalError) as info:
            cur.execute("SELECT * FROM s.t", timeout=0.1).fetchall()
        assert isinstance(info.value.__cause__, DeadlineExceeded)
        # No configured timeout: the same statement completes.
        assert len(conn.execute("SELECT id FROM s.t").fetchall()) == N_ROWS


# ---------------------------------------------------------------------------
# Per-shard retry and the partition breaker fallback
# ---------------------------------------------------------------------------

def partition_breaker_open(planner) -> bool:
    return planner.breakers.snapshot()["t/partition"]["state"] == "open"


@pytest.mark.chaos
@pytest.mark.parametrize("workers", WORKERS)
class TestShardResilience:
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_only_failed_shard_is_rescanned(self, parallelism, workers):
        catalog, chaos = make_catalog(
            fail_after_rows=5, fail_times=1, only_partition=1)
        planner = planner_for(catalog, engine="vectorized",
                              parallelism=parallelism, workers=workers)
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups()
        assert result.context.retries == 1
        # The failed attempt's five rows are the only ones read twice:
        # a restarted sibling shard would add all of its rows again.
        assert result.context.rows_scanned == N_ROWS + 5
        if workers == "thread":
            # Every shard scanned once, plus exactly one re-run of the
            # failed shard — siblings were not restarted.
            assert chaos.partition_scans_started == parallelism + 1
            assert chaos.scans_started == 0  # pushdown actually happened
        else:
            assert result.context.processes_spawned == parallelism
        assert_no_workers()

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_windowed_query_survives_transient_shard_failure(
            self, parallelism, workers):
        """A shard-local window over a chaos-partitioned scan: the
        failed shard's retry replays with the already-emitted rows
        skipped, so the window's gathered partition input must contain
        each row exactly once — a duplicated or dropped row would shift
        every running-sum frame and LAG offset after it."""
        sql = ("SELECT id, "
               "SUM(v) OVER (PARTITION BY k ORDER BY id), "
               "LAG(v) OVER (PARTITION BY k ORDER BY id), "
               "ROW_NUMBER() OVER (PARTITION BY k ORDER BY id) "
               "FROM s.t")
        clean_catalog, _ = make_catalog()
        expected = sorted(planner_for(clean_catalog).execute(sql).rows)
        catalog, chaos = make_catalog(
            fail_after_rows=5, fail_times=1, only_partition=1)
        planner = planner_for(catalog, engine="vectorized",
                              parallelism=parallelism, workers=workers)
        plan = planner.optimize(planner.rel(sql))
        assert "VectorizedWindow" in plan.explain()
        assert "HashExchange" not in plan.explain()
        result = planner.execute(sql)
        assert sorted(result.rows) == expected
        assert result.context.retries == 1
        # Only the failed shard re-ran; the window saw no shuffle.
        assert result.context.rows_scanned == N_ROWS + 5
        assert result.context.rows_shuffled == 0
        if workers == "thread":
            assert chaos.partition_scans_started == parallelism + 1
            assert chaos.scans_started == 0
        assert_no_workers()

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_shards_are_read_as_column_chunks(self, parallelism, workers):
        catalog, chaos = make_catalog(fail_after_rows=None)
        rows_forbidden(chaos)

        def no_row_shards(*args):
            raise AssertionError("shard read by rows, not column chunks")
        chaos.inner.scan_partition = no_row_shards
        planner = planner_for(catalog, engine="vectorized",
                              parallelism=parallelism, workers=workers)
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups()
        assert result.context.rows_scanned == N_ROWS
        if workers == "thread":
            assert chaos.partition_scans_started == parallelism
        assert_no_workers()

    def test_open_partition_breaker_degrades_to_gather_then_shard(
            self, workers):
        catalog, chaos = make_catalog(
            fail_after_rows=0, fail_times=-1, only_partition=0)
        planner = planner_for(catalog, engine="vectorized", parallelism=2,
                              workers=workers, scan_retry_attempts=1,
                              breaker_failure_threshold=1)
        with pytest.raises(TransientBackendError):
            planner.execute(GROUP_SQL)
        # Under process workers the shard failed in a forked worker,
        # whose breaker outcomes came home with its counters.
        assert partition_breaker_open(planner)
        # The "partition" breaker is now open; the next statement must
        # degrade to the serial-scan-then-reshard baseline and succeed
        # (the plain scan path is healthy).
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups()
        assert result.context.shard_fallbacks == 1
        assert result.context.breaker_rejections == 1
        # The in-engine re-shard moves every row across one edge.
        assert result.context.rows_shuffled == N_ROWS
        snap = planner.breakers.snapshot()
        assert snap["t/partition"]["state"] == "open"
        assert_no_workers()


# ---------------------------------------------------------------------------
# Circuit breaker across statements
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestBreakers:
    def test_fail_fast_then_half_open_recovery(self):
        catalog, chaos = make_catalog(fail_after_rows=0, fail_times=-1)
        planner = planner_for(catalog, scan_retry_attempts=1,
                              breaker_failure_threshold=1,
                              breaker_recovery_timeout=0.05)
        with pytest.raises(TransientBackendError):
            planner.execute(GROUP_SQL)
        assert planner.breakers.snapshot()["t/scan"]["state"] == "open"
        # Open: fails fast without touching the backend.
        scans_before = chaos.scans_started
        with pytest.raises(CircuitOpenError):
            planner.execute(GROUP_SQL)
        assert chaos.scans_started == scans_before
        # Backend recovers; after the cool-off the half-open probe
        # succeeds and the breaker re-closes.
        chaos.heal()
        time.sleep(0.06)
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups()
        assert planner.breakers.snapshot()["t/scan"]["state"] == "closed"


# ---------------------------------------------------------------------------
# Error propagation through nested exchange regions (satellite 3)
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestExchangeErrorPropagation:
    """A scan raising mid-stream below exchanges must surface the
    ORIGINAL exception at the gather — never ``queue.Empty``, never a
    hang — and leave no worker thread or process behind."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("parallelism", [2, 4])
    @pytest.mark.parametrize("sql", [GROUP_SQL, ORDERED_SQL],
                             ids=["hash-exchange", "ordered-merge"])
    def test_original_error_surfaces(self, sql, parallelism, workers):
        catalog, _ = make_catalog(
            fail_after_rows=50, fail_times=-1,
            error_factory=lambda t, p, r: ValueError("boom"))
        planner = planner_for(catalog, engine="vectorized",
                              parallelism=parallelism, workers=workers,
                              partitioned_scans=False)
        with pytest.raises(ValueError, match="boom"):
            planner.execute(sql)
        assert_no_workers()


# ---------------------------------------------------------------------------
# Leak regressions (satellites 1 + 2)
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestNoLeaks:
    def test_no_worker_threads_after_completion(self):
        catalog, _ = make_catalog(n=2000)
        planner = planner_for(catalog, engine="vectorized", parallelism=4,
                              partitioned_scans=False)
        result = planner.execute(GROUP_SQL)
        assert sorted(result.rows) == expected_groups(2000)
        assert not live_workers()

    def test_no_worker_threads_after_abandoned_cursor(self):
        catalog, _ = make_catalog(n=5000)
        server = QueryServer(engine="vectorized", parallelism=4,
                             partitioned_scans=False, **FAST_RETRY)
        server.register_catalog("default", catalog)
        conn = server.connect()
        cur = conn.execute("SELECT id, k, v FROM s.t")
        for _ in range(3):
            assert cur.fetchone() is not None
        cur.close()  # abandon mid-stream: shutdown joins the region
        assert not live_workers()
        assert server.stats()["resilience"]["worker_leaks"] == 0

    def test_admission_slot_released_when_statement_errors(self):
        catalog, chaos = make_catalog(
            fail_after_rows=10, fail_times=1,
            error_factory=lambda t, p, r: PermanentBackendError("dead"))
        server = QueryServer(max_concurrent_statements=1,
                             admission_timeout=0.3, **FAST_RETRY)
        server.register_catalog("default", catalog)
        conn = server.connect()
        with pytest.raises(OperationalError):
            conn.execute("SELECT id FROM s.t").fetchall()
        # The only slot must be free again, or this admission times out.
        assert len(conn.execute("SELECT id FROM s.t").fetchall()) == N_ROWS
        assert server.stats()["statements"]["active"] == 0

    def test_admission_slot_released_when_cursor_is_garbage_collected(self):
        catalog, _ = make_catalog(n=2000)
        server = QueryServer(max_concurrent_statements=1,
                             admission_timeout=0.3, **FAST_RETRY)
        server.register_catalog("default", catalog)
        conn = server.connect()
        cur = conn.execute("SELECT id FROM s.t")
        assert cur.fetchone() is not None  # slot held, stream live
        del cur
        gc.collect()
        assert len(conn.execute("SELECT id FROM s.t").fetchall()) == 2000
        assert server.stats()["statements"]["active"] == 0


# ---------------------------------------------------------------------------
# Cancellation: client-side and server-side kill
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestCancellation:
    def _serve(self, n=5000, **server_kwargs):
        catalog, _ = make_catalog(n=n, latency_per_row=0.0005)
        server = QueryServer(**FAST_RETRY, **server_kwargs)
        server.register_catalog("default", catalog)
        return server, server.connect()

    def test_cursor_cancel(self):
        server, conn = self._serve()
        cur = conn.execute("SELECT id FROM s.t")
        for _ in range(3):
            assert cur.fetchone() is not None
        cur.cancel()
        with pytest.raises(OperationalError) as info:
            cur.fetchall()
        assert isinstance(info.value.__cause__, StatementCancelled)
        assert server.stats()["resilience"]["cancelled"] == 1
        assert server.stats()["statements"]["active"] == 0
        assert not live_workers()

    def test_server_side_kill_by_statement_id(self):
        server, conn = self._serve(parallelism=2, engine="vectorized")
        cur = conn.execute("SELECT id FROM s.t")
        assert cur.fetchone() is not None
        sid = cur.statement_id
        assert sid in server.statements()
        assert server.cancel_statement(sid) is True
        with pytest.raises(OperationalError):
            cur.fetchall()
        assert server.cancel_statement(sid) is False  # already finished
        assert server.statements() == {}
        assert not live_workers()

    def test_cancel_all(self):
        server, conn = self._serve()
        cursors = [conn.execute("SELECT id FROM s.t") for _ in range(3)]
        for cur in cursors:
            assert cur.fetchone() is not None
        assert server.cancel_all() == 3
        for cur in cursors:
            with pytest.raises(OperationalError):
                cur.fetchall()
        assert server.stats()["resilience"]["cancelled"] == 3

    def test_unknown_statement_id(self):
        server, _ = self._serve(n=10)
        assert server.cancel_statement(999) is False


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestStats:
    def test_resilience_counters_surface_in_server_stats(self):
        catalog, _ = make_catalog(fail_after_rows=10, fail_times=1)
        server = QueryServer(**FAST_RETRY)
        server.register_catalog("default", catalog)
        conn = server.connect()
        assert sorted(conn.execute(GROUP_SQL).fetchall()) == expected_groups()
        stats = server.stats()
        assert stats["resilience"]["retries"] == 1
        assert stats["resilience"]["deadline_misses"] == 0
        assert stats["breakers"]["t/scan"]["state"] == "closed"
        assert stats["statements"]["live"] == 0
