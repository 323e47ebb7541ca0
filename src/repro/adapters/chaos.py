"""Seeded fault injection: the chaos adapter wrapper.

:class:`ChaosTable` wraps any adapter table and injects failures and
latency into its scans — deterministically, so the resilience test
suite and ``benchmarks/bench_resilience.py`` replay exactly:

* ``fail_after_rows=k`` raises after the k-th row of a scan (0 fails
  before the first row);
* ``fail_times=n`` arms the fault for the first *n* injectable scans
  and then heals (−1: never heals) — the shape of a transient blip vs
  a dead backend;
* ``only_partition=p`` confines the fault to shard *p* of partitioned
  scans (plain scans stay healthy), the scenario behind per-shard
  retry and the gather-then-shard breaker fallback;
* ``latency_per_row`` sleeps on every row — a slow-but-alive backend,
  the scenario behind statement deadlines;
* ``error_factory`` builds the injected exception (default
  :class:`~repro.errors.TransientBackendError`), so permanent-failure
  and arbitrary-bug propagation are injectable too.

Capabilities, row type and statistics delegate to the wrapped table,
so a chaos-wrapped table plans identically to the healthy one —
including partition pushdown and key lookups, which is the point: the
fault surfaces *inside* the resilient execution paths, not at planning
time.  Every access path (``scan``, ``scan_partition``, ``lookup``,
``scan_columns``, whole or one shard) is proxied explicitly and
injectable; a columnar read is injected at the exact row, cutting the
chunk it falls in, and a table with ``latency_per_row`` serves no
columnar path, so the engine reads it by rows and checks its deadline
per row.
"""

from __future__ import annotations

import threading
import time
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import TransientBackendError
from ..schema.core import Shard, Table


def _default_error(table: "ChaosTable", partition_id: Optional[int],
                   row: int) -> Exception:
    where = ("scan" if partition_id is None
             else f"shard {partition_id}")
    return TransientBackendError(
        f"chaos: injected failure on {table.name} ({where}) after {row} rows")


class ChaosTable(Table):
    """A fault-injecting proxy around another adapter table."""

    def __init__(self, inner: Table, *,
                 fail_after_rows: Optional[int] = None,
                 fail_times: int = 1,
                 only_partition: Optional[int] = None,
                 latency_per_row: float = 0.0,
                 error_factory: Callable[..., Exception] = _default_error,
                 ) -> None:
        super().__init__(inner.name, inner.row_type, inner.statistic)
        self.inner = inner
        self.fail_after_rows = fail_after_rows
        self.only_partition = only_partition
        self.latency_per_row = latency_per_row
        self.error_factory = error_factory
        self._lock = threading.Lock()
        self._faults_left = fail_times
        #: instrumentation for the chaos suite
        self.scans_started = 0
        self.partition_scans_started = 0
        self.faults_injected = 0

    # -- fault control --------------------------------------------------------

    def heal(self) -> None:
        """Disarm any remaining faults (the backend recovered)."""
        with self._lock:
            self._faults_left = 0

    def arm(self, fail_times: int = 1) -> None:
        """(Re-)arm the fault for the next ``fail_times`` scans."""
        with self._lock:
            self._faults_left = fail_times

    def _claim_fault(self, partition_id: Optional[int]) -> bool:
        """Atomically consume one armed fault for this scan, if any."""
        if self.fail_after_rows is None:
            return False
        if self.only_partition is not None and partition_id != self.only_partition:
            return False
        with self._lock:
            if self._faults_left == 0:
                return False
            if self._faults_left > 0:
                self._faults_left -= 1
            return True

    # -- the adapter contract, proxied ---------------------------------------

    def capabilities(self):
        return self.inner.capabilities()

    def scan(self) -> Iterable[tuple]:
        with self._lock:
            self.scans_started += 1
        return self._inject(self.inner.scan(), None)

    def scan_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> Iterable[tuple]:
        with self._lock:
            self.partition_scans_started += 1
        return self._inject(
            self.inner.scan_partition(partition_id, n_partitions, keys),
            partition_id)

    def lookup(self, column: int, value: Any) -> Iterable[tuple]:
        # A key lookup is a scan of the backend like any other: it must
        # not slip past the faults through ``__getattr__``.
        with self._lock:
            self.scans_started += 1
        return self._inject(self.inner.lookup(column, value), None)

    def scan_columns(self, batch_size: int, shard: Optional[Shard] = None
                     ) -> Optional[Iterator[Tuple[List[list], int]]]:
        # Latency is injected per row, and chunk-granular checks would
        # let a slow backend overrun its deadline by a whole chunk: a
        # slow table, like one with no columnar path, is read by rows.
        if self.latency_per_row:
            return None
        chunks = self.inner.scan_columns(batch_size, shard)
        if chunks is None:
            return None
        return self._inject_chunks(chunks,
                                   None if shard is None else shard[0])

    def _inject(self, rows: Iterable[tuple],
                partition_id: Optional[int]) -> Iterator[tuple]:
        fail_now = self._claim_fault(partition_id)
        emitted = 0
        for row in rows:
            if fail_now and emitted >= self.fail_after_rows:
                with self._lock:
                    self.faults_injected += 1
                raise self.error_factory(self, partition_id, emitted)
            if self.latency_per_row:
                time.sleep(self.latency_per_row)
            emitted += 1
            yield row
        if fail_now:
            # Table shorter than the trigger point: fail at end-of-scan
            # so an armed fault is never silently skipped.
            with self._lock:
                self.faults_injected += 1
            raise self.error_factory(self, partition_id, emitted)

    def _inject_chunks(self, chunks: Iterable[Tuple[List[list], int]],
                       partition_id: Optional[int]
                       ) -> Iterator[Tuple[List[list], int]]:
        """:meth:`_inject` for column chunks of a scan or of shard
        ``partition_id``: the fault fires after exactly
        ``fail_after_rows`` rows, cutting the chunk it falls in.  The
        read counts as started when it is first read, as a row scan
        does when the engine opens it: a breaker that fails fast reads
        neither, and neither does a scheduler that only opens a shard
        read to have the table build its partition assignment."""
        with self._lock:
            if partition_id is None:
                self.scans_started += 1
            else:
                self.partition_scans_started += 1
        fail_now = self._claim_fault(partition_id)
        emitted = 0
        for columns, n in chunks:
            if fail_now and emitted + n > self.fail_after_rows:
                head = self.fail_after_rows - emitted
                if head > 0:
                    yield [col[:head] for col in columns], head
                    emitted += head
                with self._lock:
                    self.faults_injected += 1
                raise self.error_factory(self, partition_id, emitted)
            emitted += n
            yield columns, n
        if fail_now:
            with self._lock:
                self.faults_injected += 1
            raise self.error_factory(self, partition_id, emitted)

    def __getattr__(self, name: str) -> Any:
        # Adapter-specific extras (insert, bucket probes, ...) proxy
        # through so tests can keep driving the wrapped table.
        return getattr(self.inner, name)
