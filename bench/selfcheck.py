"""``python -m bench.run --selfcheck``: the benchmark checks its own
arithmetic and failure accounting, in a few seconds.  Not collected by
pytest."""

from __future__ import annotations

import dataclasses
import os
import threading
import traceback

from . import driver
from .data import WORKLOADS, Statement, generate
from .referee import Referee
from .trace import Span, layer_table, self_times


def check_percentiles() -> None:
    values = [float(v) for v in range(1, 101)]
    assert driver.percentile(values, 50) == 50.0
    assert driver.percentile(values, 90) == 90.0
    assert driver.percentile(values, 99) == 99.0
    assert driver.percentile([7.0], 99) == 7.0
    assert driver.samples_beyond(100, 90) == 10
    assert driver.samples_beyond(75, 90) == 7
    # the highest percentile with at least ten samples beyond it
    assert driver.supported_tail_pct(1000) == 99
    assert driver.supported_tail_pct(100) == 90
    assert driver.supported_tail_pct(50) == 80
    assert driver.supported_tail_pct(10) == 0


def check_span_self_time() -> None:
    spans = [
        Span("statement", 0.0, 10.0, None, 0),
        Span("plan", 1.0, 4.0, 0, 0),
        Span("volcano", 2.0, 3.5, 1, 0),
        Span("execute", 4.0, 9.0, 0, 0),
        Span("scan", 5.0, 7.0, 3, 0),
        Span("scan", 6.0, 8.0, 3, 0),      # overlaps its sibling
        Span("late", 9.5, 12.0, 0, 0),     # runs past its parent
    ]
    selfs = self_times(spans)
    # statement: 10 - (3 + 5 + 0.5 inside the parent)
    assert abs(selfs[0] - 1.5) < 1e-9, selfs
    assert abs(selfs[1] - 1.5) < 1e-9, selfs
    # execute: 5 - union([5,7],[6,8]) = 5 - 3
    assert abs(selfs[3] - 2.0) < 1e-9, selfs
    scan = next(r for r in layer_table(spans) if r["layer"] == "scan")
    assert scan["count"] == 2 and abs(scan["total_ms"] - 4000.0) < 1e-6
    assert abs(scan["share"] - 0.4) < 1e-9


def check_failure_accounting() -> None:
    workload = WORKLOADS["serve_cached"]
    tables = generate(workload.scale, 1)
    referee = Referee(tables)
    served = driver.set_up(workload, tables, 1, clients=1)
    client = served.clients[0]
    good = [client.run(s) for s in workload.cycle(1, 0, 1)]
    assert driver.check(good, referee) == [] and all(op.ok for op in good)

    # a deliberately corrupted row is flagged by the referee
    corrupted = client.run(workload.cycle(1, 0, 1)[0])
    count, checksum, rows = corrupted.digest
    corrupted.digest = (count, checksum ^ 1, rows)
    assert len(driver.check([corrupted], referee)) == 1 and not corrupted.ok
    ordered = client.run(next(s for s in workload.cycle(1, 0, 1)
                              if s.ordered))
    ordered.digest[2][0] = ordered.digest[2][0][:1] + (-1,)
    assert len(driver.check([ordered], referee)) == 1 and not ordered.ok

    # a raising statement is an attempted, failed op and no completion
    raising = client.run(Statement("broken", "SELECT nope FROM lib.document"))
    assert raising.error is not None and raising.digest is None
    assert len(driver.check([raising], referee)) == 1 and not raising.ok
    with_failure = driver.end_to_end([good + [raising]], 90)
    busy = sum(op.ms for op in good + [raising]) / 1e3
    assert abs(with_failure["qps"] - len(good) / busy) < 1e-9
    assert with_failure["qps"] < driver.end_to_end([good], 90)["qps"]
    served.close()
    referee.close()


def check_closed_loop_thread_cap() -> None:
    nproc = os.cpu_count() or 1
    greedy = dataclasses.replace(WORKLOADS["serve_cached"], clients=4 * nproc)
    tables = generate(greedy.scale, 1)
    served = driver.set_up(greedy, tables, 1)
    assert len(served.clients) <= nproc
    threads = set()
    for client in served.clients:
        def run(statement, _run=client.run):
            threads.add(threading.get_ident())
            return _run(statement)
        client.run = run
    per_client = driver.run_clients(served, greedy, 1, 0.3)
    served.close()
    assert 1 <= len(threads) <= nproc, threads
    for ops in per_client:
        assert ops, "a client ran nothing"
        # closed loop: the next statement starts after the previous returned
        assert all(a.end <= b.start for a, b in zip(ops, ops[1:]))


CHECKS = [check_percentiles, check_span_self_time, check_failure_accounting,
          check_closed_loop_thread_cap]


def main() -> int:
    failed = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL  {fn.__name__}")
            traceback.print_exc()
    return int(bool(failed))
