"""Set-up, the closed-loop load generator and the end-to-end metrics.

Every operation is *statement in, rows out through the server*:
``QueryServer.connect(tenant)`` then ``cursor().execute`` or
``prepare().execute``, then ``fetchall``/``fetchmany`` until the last row.
The loop is closed: a client sends its next statement only when the
previous one has returned, from one process with at most ``nproc`` client
threads.  A run measures whole cycles of its workload's statement list
until ``--seconds`` have passed, so the statement mix of two runs is the
same even when their lengths differ.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.avatica import QueryServer

from .data import Statement, Workload, build_catalog
from .referee import Digest, Referee, digest

TENANT = "biblio"
#: a statement that runs longer fails with ``OperationalError``
STATEMENT_TIMEOUT_S = 30.0
#: ``setup_s`` is the median of at least this many set-ups ...
SETUP_REPEATS = 3
#: ... and of as many more as fit in this time, up to the maximum: a
#: 0.1 s set-up needs more repeats than a 3 s one for a steady median
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX_REPEATS = 9


@dataclass
class Op:
    statement: Statement
    start: float
    end: float
    #: None when the statement raised
    digest: Optional[Digest]
    error: Optional[str] = None
    #: set by :func:`check`: it returned and the referee agrees
    ok: bool = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Client:
    """One connection; times a statement from the execute call to the
    last row fetched and reduces the rows after the end timestamp."""

    def __init__(self, server: QueryServer, workload: Workload) -> None:
        self.workload = workload
        self.connection = server.connect(TENANT)
        self._prepared: Dict[str, object] = {}

    def plan(self, statements: Sequence[Statement]) -> None:
        """Prepare ahead of the measured window: pins the plan for a
        prepared workload, fills the shared plan cache otherwise."""
        for sql in dict.fromkeys(s.sql for s in statements):
            handle = self.connection.prepare(sql)
            if self.workload.prepared:
                self._prepared[sql] = handle

    def execute(self, statement: Statement):
        """Send the statement; returns the cursor its rows stream from."""
        handle = self._prepared.get(statement.sql)
        if handle is not None:
            return handle.execute(statement.params)
        cursor = self.connection.cursor()
        cursor.execute(statement.sql, statement.params)
        return cursor

    def fetch(self, cursor) -> List[tuple]:
        """Every row, in pages of ``workload.page`` if it sets one."""
        page = self.workload.page
        if not page:
            return cursor.fetchall()
        rows: List[tuple] = []
        while True:
            chunk = cursor.fetchmany(page)
            if not chunk:
                return rows
            rows += chunk

    def run(self, statement: Statement) -> Op:
        start = time.perf_counter()
        try:
            cursor = self.execute(statement)
            rows = self.fetch(cursor)
            end = time.perf_counter()
            cursor.close()
        except Exception as exc:  # the op failed; the loop must go on
            return Op(statement, start, time.perf_counter(), None,
                      f"{type(exc).__name__}: {exc}")
        return Op(statement, start, end, digest(rows, statement.ordered))

    def close(self) -> None:
        self.connection.close()


@dataclass
class Served:
    """A loaded, warmed-up server and its clients."""
    server: QueryServer
    clients: List[Client]
    warmup: List[Op]

    def close(self) -> None:
        for client in self.clients:
            client.close()


def client_count(workload: Workload) -> int:
    return min(workload.clients, os.cpu_count() or 1)


def set_up(workload: Workload, tables: Dict[str, List[tuple]], seed: int,
           clients: Optional[int] = None) -> Served:
    """Catalog and adapter load, server construction, warm-up statements.
    This is what ``setup_s`` times; data generation and the referee are
    outside it.

    It ends as a long-running server's start-up would, with
    ``gc.freeze()``: full collections during the window then walk only
    what statements allocated, not the catalog and the imported modules.
    Without it a cold 35 ms statement takes 35 or 44 ms depending on
    whether a full collection lands in it, and a median over ~20 of them
    flips between the two."""
    gc.unfreeze()  # an earlier set-up's server must stay collectable
    server = QueryServer(statement_timeout=STATEMENT_TIMEOUT_S,
                         **workload.server_options)
    server.register_catalog(TENANT, build_catalog(tables))
    clients = [Client(server, workload)
               for _ in range(clients or client_count(workload))]
    for client in clients:
        client.plan(workload.pool(seed))
    # Cycle 0 is the warm-up; measured cycles start at 1.  One client is
    # enough to finish lazy imports and fill per-table partition buckets.
    warmup = [clients[0].run(s) for s in workload.cycle(seed, 0, 0)]
    gc.collect()
    gc.freeze()
    return Served(server, clients, warmup)


class SetUpFailed(Exception):
    """An operation failed before the measured window."""


def check_warmup(served: Served, referee: Referee) -> None:
    """The referee's verdict on the warm-up, outside what ``setup_s``
    times; a failure here ends the run."""
    failed = check(served.warmup, referee)
    if failed:
        served.close()
        raise SetUpFailed("\n".join(failed))


def check(ops: Sequence[Op], referee: Referee) -> List[str]:
    """Mark each op ``ok`` or not; one line per failed op (it raised, or
    the referee disagrees)."""
    out = []
    for op in ops:
        if op.error is not None:
            out.append(f"{op.statement.template}: {op.error}")
            continue
        expected = referee.expected(op.statement)
        op.ok = op.digest == expected
        if not op.ok:
            out.append(f"{op.statement.template}: referee mismatch, got "
                       f"{op.digest[:2]} expected {expected[:2]}: "
                       f"{op.statement.sql} {op.statement.params}")
    return out


def run_clients(served: Served, workload: Workload, seed: int,
                seconds: float) -> List[List[Op]]:
    """The measured window: every client runs whole cycles until
    ``seconds`` have passed.  Returns the ops of each client."""
    deadline = time.perf_counter() + seconds
    per_client: List[List[Op]] = [[] for _ in served.clients]

    def loop(client_id: int) -> None:
        client, ops = served.clients[client_id], per_client[client_id]
        index = 1
        while time.perf_counter() < deadline:
            for statement in workload.cycle(seed, client_id, index):
                ops.append(client.run(statement))
            index += 1

    if len(served.clients) == 1:
        loop(0)  # in the main thread: process workers fork from it
    else:
        threads = [threading.Thread(target=loop, args=(i,), daemon=True)
                   for i in range(len(served.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return per_client


def _rank(n: int, pct: float) -> int:
    """Nearest rank (1-based) of the ``pct`` percentile among ``n``."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    return n - _rank(n, pct)


def supported_tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max((p for p in range(1, 100) if samples_beyond(n, p) >= 10),
               default=0)


def end_to_end(per_client: Sequence[Sequence[Op]],
               tail_pct: int) -> Dict[str, float]:
    """``qps``, ``p50_ms``, ``tail_ms`` over the verified ops.

    ``qps`` is the sum over clients of verified ops per second of the
    time that client spent waiting on statements: the clock stops while a
    client reduces and stores a result, so checking 90 k rows does not
    count against the server.  A failed op adds its time and no
    completion.
    """
    qps = 0.0
    latencies: List[float] = []
    for ops in per_client:
        ok = [op.ms for op in ops if op.ok]
        busy = sum(op.ms for op in ops) / 1e3
        if busy:
            qps += len(ok) / busy
        latencies += ok
    latencies.sort()
    return {"qps": qps, "p50_ms": statistics.median(latencies),
            "tail_ms": percentile(latencies, tail_pct)}


def host_profile() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
    }
