#!/usr/bin/env bash
# Smoke check: the tier-1 suite plus the cross-engine differential
# suite and the vectorized throughput bench (the two-engine acceptance
# gates).  Quick mode (SMOKE_QUICK=1) skips tests marked `slow`.
#
# Every leg runs, even after an earlier one failed, so a red leg never
# hides the verdict of the gates after it; the script exits non-zero
# if any leg failed, naming each.
set -euo pipefail
cd "$(dirname "$0")/.."

FAILED_LEGS=()
# leg NAME COMMAND...: run one gate and remember NAME if it fails.
leg() {
    local name=$1
    shift
    if ! "$@"; then
        FAILED_LEGS+=("$name")
    fi
}

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

MARKER_ARGS=()
# The cross-engine leg leaves the worker matrix to the dedicated
# parallel leg below, so the (slow) multi-worker tests run once.
CROSS_ENGINE_MARKER="not parallel"
PARALLEL_MARKER="parallel"
if [[ -n "${SMOKE_QUICK:-}" ]]; then
    MARKER_ARGS=(-m "not slow")
    CROSS_ENGINE_MARKER="not parallel and not slow"
    # Quick runs bound the worker matrix to the 2-worker axis.
    PARALLEL_MARKER="parallel and not slow"
fi

# (the ${arr[@]+...} form keeps empty-array expansion safe under
# `set -u` on bash <= 4.3)

# Tier-1: the full repository suite.
leg tier-1 python -m pytest -x -q ${MARKER_ARGS[@]+"${MARKER_ARGS[@]}"}

# Cross-engine gates: row and vectorized engines must agree everywhere,
# the window, set-operation and aggregate cases must agree with
# sqlite3, typed (numpy) column kernels must agree with the list
# kernels and the row engine, and the vectorized engine must win the
# scan+filter+aggregate bench.
leg cross-engine python -m pytest -q -m "$CROSS_ENGINE_MARKER" \
    tests/test_engine_differential.py \
    tests/test_sqlite_referee.py \
    tests/test_vectorized_property.py \
    tests/test_typed_kernels.py \
    benchmarks/bench_vectorized.py

# Parallelism matrix: the multi-worker axis (parallelism 2, and 4 when
# not in quick mode) of the differential suite and of the sqlite
# referee, the parallel runtime tests, and the worker-scaling bench.
leg parallel python -m pytest -q -m "$PARALLEL_MARKER" \
    tests/test_engine_differential.py \
    tests/test_sqlite_referee.py \
    tests/test_parallel_execution.py \
    benchmarks/bench_parallel.py

# Worker-backend matrix: the same differential cases again, but with
# the exchange edges running over forked worker processes and the
# columnar wire format (thread vs process at parallelism 2, and 4 when
# not in quick mode), plus the wire round-trip property suite and the
# thread-vs-process scaling curves.  Auto-skipped where fork is
# unavailable (the scheduler degrades to threads there).
leg wire python -m pytest -q ${MARKER_ARGS[@]+"${MARKER_ARGS[@]}"} \
    tests/test_wire.py
leg process-workers python -m pytest -q -m "$PARALLEL_MARKER" \
    tests/test_process_workers.py \
    benchmarks/bench_parallel.py::TestProcessBackendScaling

# Federated-parallel gates: partition-pushdown scans across adapters —
# the partitioned federated join must shuffle strictly fewer rows than
# the gather-then-shard baseline (the wall-clock win is hardware-gated
# inside the bench), and the multi-adapter differential tests must
# agree with the serial engines at every parallelism.
leg federated python -m pytest -q -m "$PARALLEL_MARKER" \
    tests/test_federated_parallel.py \
    benchmarks/bench_federated.py

# Query-server gates: plan-cache semantics (hit/invalidate/isolation,
# cache-on/off differential), the DB-API serving layer, and the
# cached-vs-cold QPS bench (cached must be >= 10x cold).
leg server python -m pytest -q ${MARKER_ARGS[@]+"${MARKER_ARGS[@]}"} \
    tests/test_plan_cache.py \
    tests/test_avatica_server.py \
    benchmarks/bench_server.py

# Window gates: the window/set-op slice of the differential suite and
# the property oracle (already covered above serially), plus the window
# throughput bench — every parallel window plan over the partitioned
# memory backend must run shard-local (no HashExchange, zero rows
# shuffled) and stay within the scheduler-overhead envelope (the
# speedup gates are hardware-gated inside the bench).
leg window python -m pytest -q -m "$PARALLEL_MARKER" \
    benchmarks/bench_window.py

# Resilience gates: the chaos suite (deadlines, retries, breakers,
# cancellation, leak regressions — each test under a hard wall-clock
# guard, so a reintroduced hang fails loudly) and the fault-overhead
# bench (one injected transient shard failure must finish within 3x
# the fault-free wall clock).
leg resilience python -m pytest -q -m "chaos" \
    tests/test_resilience.py \
    tests/test_process_workers.py \
    benchmarks/bench_resilience.py

# Benchmark gates: the served end-to-end benchmark must pass its own
# self-check, and a short run of each workload must exit zero with
# every operation verified by the sqlite referee (the last output line
# is the result object): `serve_cached`, prepared key lookups on the
# default row engine, `adhoc_cold`, where every statement is planned
# from scratch on the vectorized engine, `analytic_scan`, cached
# vectorized plans over column chunks of 100 k-row memory tables, and
# `federated_parallel`, jdbc-with-memory joins and partitioned windows
# on two process workers.
leg bench-selfcheck python3 -m bench.run --selfcheck
served_run() {
    python3 -m bench.run --workload "$1" --seconds 5 | tail -n 1 \
        | WORKLOAD="$1" python3 -c '
import json, os, sys
result = json.load(sys.stdin)
print("bench", os.environ["WORKLOAD"] + ":",
      {k: result[k] for k in ("correct", "attempted", "failed")})
sys.exit(0 if result["correct"] and result["attempted"] and result["failed"] == 0 else 1)'
}
for workload in serve_cached adhoc_cold analytic_scan federated_parallel; do
    leg "bench-$workload" served_run "$workload"
done

# Access-path gate: the traced `serve_cached` run (its fixed 40 prepared
# statements at the default seed) must read rows through key lookups.
# The count is exact: 820 with lookups, 28 850 when every lookup is a
# full scan.
serve_cached_traced() {
    python3 -m bench.run --workload serve_cached --trace 1 | tail -n 1 \
        | python3 -c '
import json, sys
scanned = json.load(sys.stdin)["metrics"]["runtime.execute.rows_scanned"]["value"]
print("bench serve_cached traced: rows_scanned", scanned)
sys.exit(0 if scanned <= 1000 else 1)'
}
leg serve_cached-traced serve_cached_traced

# Columnar-scan gate: the traced `analytic_scan` run (its fixed 21
# statements at the default seed) must scan and emit exactly as many
# rows as the row-at-a-time path did, so a chunk path that counts a
# chunk twice or drops one fails here.
analytic_scan_traced() {
    python3 -m bench.run --workload analytic_scan --trace 1 | tail -n 1 \
        | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
scanned = metrics["runtime.execute.rows_scanned"]["value"]
emitted = metrics["runtime.execute.rows_emitted"]["value"]
print("bench analytic_scan traced: rows_scanned", scanned,
      "rows_emitted", emitted)
sys.exit(0 if (scanned, emitted) == (2400000, 574521) else 1)'
}
leg analytic_scan-traced analytic_scan_traced

# Shard-path gate: the traced `federated_parallel` run (its fixed 20
# statements at the default seed) must scan, emit and shuffle exactly as
# many rows as before shards were read as column chunks and jdbc shards
# as flat, trimmed SQL, so a shard that drops or double-counts a chunk
# fails here.
federated_parallel_traced() {
    python3 -m bench.run --workload federated_parallel --trace 1 \
        | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
counts = tuple(metrics[name]["value"] for name in (
    "runtime.execute.rows_scanned", "runtime.execute.rows_emitted",
    "vectorized.parallel.rows_shuffled"))
print("bench federated_parallel traced: rows_scanned, rows_emitted,"
      " rows_shuffled", counts)
sys.exit(0 if counts == (1400160, 778964, 55528) else 1)'
}
leg federated_parallel-traced federated_parallel_traced

if [[ ${#FAILED_LEGS[@]} -gt 0 ]]; then
    echo "smoke: failed legs: ${FAILED_LEGS[*]}" >&2
    exit 1
fi
