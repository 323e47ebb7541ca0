"""``python -m bench.run`` — the benchmark's single entry point.

    python -m bench.run [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--agree] [--selfcheck]

Prints every metric by name with its unit, one row per workload, then a
one-line JSON summary (host profile, per-workload detail, ``"claim":
null``), then one result line per workload in the form the benchmark
contract reads: ``{"correct", "attempted", "failed", "metrics"}``.  With
one ``--workload`` that line is the last line of output.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Exits non-zero, without a result line, when an operation fails during
set-up or warm-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from . import driver, trace
from .data import WORKLOADS, Workload, generate
from .referee import Referee

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def measure(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: set up several times, measure once."""
    tables = generate(workload.scale, seed)
    referee = Referee(tables)
    setups: List[float] = []
    served = None
    while len(setups) < driver.SETUP_REPEATS or (
            sum(setups) < driver.SETUP_MIN_TOTAL_S
            and len(setups) < driver.SETUP_MAX_REPEATS):
        if served is not None:
            served.close()
        start = time.perf_counter()
        served = driver.set_up(workload, tables, seed)
        setups.append(time.perf_counter() - start)
        driver.check_warmup(served, referee)
    start = time.perf_counter()
    per_client = driver.run_clients(served, workload, seed, seconds)
    window = time.perf_counter() - start
    cache = served.server.stats()["plan_cache"]
    served.close()
    ops = [op for client_ops in per_client for op in client_ops]
    failed = driver.check(ops, referee)
    referee.close()
    verified = len(ops) - len(failed)
    metrics = driver.end_to_end(per_client, workload.tail_pct)
    metrics["setup_s"] = statistics.median(setups)
    by_template: Dict[str, List[float]] = {}
    for op in ops:
        by_template.setdefault(op.statement.template, []).append(op.ms)
    return result(workload, failed, len(ops), metrics, {
        "clients": len(per_client), "window_s": window,
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": driver.samples_beyond(verified,
                                                     workload.tail_pct),
        "supported_tail_pct": driver.supported_tail_pct(verified),
        "setups_s": setups, "plan_cache": cache,
        "template_p50_ms": {t: statistics.median(v)
                            for t, v in by_template.items()},
    })


def traced(workload: Workload, seed: int) -> Dict[str, Any]:
    tables = generate(workload.scale, seed)
    referee = Referee(tables)
    out = trace.run(workload, tables, seed, referee)
    referee.close()
    return result(workload, out["failed"], out["attempted"], out["metrics"],
                  {"layers": out["layers"], "trace_file": out["trace_file"]})


def result(workload: Workload, failed: List[str], attempted: int,
           metrics: Dict[str, float], detail: Dict[str, Any]) -> Dict[str, Any]:
    for line in failed[:10]:
        print(f"FAILED {workload.name}: {line}", file=sys.stderr)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics, "detail": detail}


def units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_row(name: str, result: Dict[str, Any], unit: Dict[str, str]) -> None:
    cells = "  ".join(f"{metric}={value:.4f} {unit[metric]}"
                      for metric, value in result["metrics"].items())
    detail = result["detail"]
    print(f"{name:20s}{cells}  (p{detail['tail_pct']}, "
          f"{detail['tail_samples_beyond']} samples beyond)  "
          f"ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']}")


def print_trace(name: str, result: Dict[str, Any], unit: Dict[str, str]) -> None:
    print(f"{name}: layers of the traced statements "
          f"({result['detail']['trace_file']})")
    print(trace.format_table(result["detail"]["layers"]))
    for metric, value in result["metrics"].items():
        print(f"  {metric:46s}{value:16.4f} {unit[metric]}")


def contract_line(result: Dict[str, Any], unit: Dict[str, str]) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()}})


def run_set(names: List[str], seed: int, seconds: float, trace_on: bool,
            spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    unit = units(spec)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        if trace_on:
            results[name] = traced(workload, seed)
            print_trace(name, results[name], unit)
        else:
            results[name] = measure(workload, seed, seconds)
            print_row(name, results[name], unit)
        sys.stdout.flush()
    return results


def agree(names: List[str], seed: int, seconds: float,
          spec: Dict[str, Any]) -> int:
    """Run the set twice; fail if a gating metric differs by more than its
    bound (``setup_s``: or by more than 0.2 s, whichever is larger)."""
    first = run_set(names, seed, seconds, False, spec)
    second = run_set(names, seed, seconds, False, spec)
    worst = 0
    for name in names:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            share = abs(b - a) / a
            allowed = metric["bound"]
            within = share <= allowed or (
                metric["name"] == "setup_s" and abs(b - a) <= 0.2)
            print(f"{name:20s}{metric['name']:10s}{a:12.4f}{b:12.4f} "
                  f"{metric['unit']:4s} differ {100 * share:5.1f}% "
                  f"(bound {100 * allowed:.0f}%) "
                  f"{'ok' if within else 'DISAGREE'}")
            worst |= not within
        worst |= not (first[name]["correct"] and second[name]["correct"])
    print(json.dumps({"agree": not worst, "first": _summary(first),
                      "second": _summary(second), "claim": None}))
    return int(worst)


def _summary(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {name: {"ops_attempted": r["attempted"], "ops_failed": r["failed"],
                   "metrics": r["metrics"],
                   **{k: v for k, v in r["detail"].items() if k != "layers"}}
            for name, r in results.items()}


def main(argv: List[str]) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(prog="python -m bench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS), metavar="NAME")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        from . import selfcheck
        return selfcheck.main()
    if args.agree:
        return agree(args.workload, args.seed, args.seconds, spec)
    try:
        results = run_set(args.workload, args.seed, args.seconds,
                          bool(args.trace), spec)
    except driver.SetUpFailed as exc:
        print(f"set-up or warm-up failed:\n{exc}", file=sys.stderr)
        return 1
    print(json.dumps({"host": driver.host_profile(), "seed": args.seed,
                      "seconds": args.seconds, "trace": bool(args.trace),
                      "workloads": _summary(results), "claim": None}))
    unit = units(spec)
    for result in results.values():
        print(contract_line(result, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
