"""The traced run: per-layer times and counts, one client, spans in memory.

Every layer is measured from outside, by timing calls into its public
functions from this file — ``Planner`` exposes its stages one by one.  Each
traced statement is run twice: once through the server (root span
``served``: ``avatica.execute`` then ``avatica.fetch``), which says whether
the plan was reused, and once stage by stage on a bare ``Planner`` (root
span ``statement``, children in pipeline order), skipping the planning
stages when the server reused a plan (a plan the server made during
set-up is made here under a root span ``prepare``, so the planner layers
of a cached workload show what its set-up paid, and
``trace.planner_share_pct`` counts only planning inside statements).
Layer metrics named ``*.ms`` are totals divided by the number of traced
statements; counts are totals over the traced statements,
whose number is fixed per workload (not by ``--seconds``) so that counts
repeat exactly.  Spans are recorded only here, around the calls, so the
traced and the untraced server path differ by the span bookkeeping alone:
``trace.overhead_pct`` is that bookkeeping, measured on empty spans, as a
share of the traced statements' time.

End-to-end numbers never come from here.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.adapters.jdbc.adapter import JdbcQuery
from repro.avatica import normalize_sql
from repro.core.metadata import RelMetadataQuery
from repro.framework import FrameworkConfig, Planner, PreparedPlan
from repro.runtime.vectorized.batch import DEFAULT_BATCH_SIZE, batches_from_rows
from repro.runtime.vectorized.exchange import exchanges_in
from repro.runtime.vectorized.parallel_rules import insert_exchanges
from repro.runtime.vectorized.partitioned import PartitionedScan
from repro.runtime.vectorized.wire import decode_batch, encode_batch
from repro.sql.lexer import tokenize

from .data import Statement, Workload
from .driver import (STATEMENT_TIMEOUT_S, TENANT, Client, check_warmup,
                     host_profile, set_up)
from .referee import Referee, digest

OUT_DIR = Path(__file__).resolve().parent / "out"
#: batches per scanned table pushed through the wire codec
WIRE_BATCHES = 16

#: every per-layer metric and its unit, in report order (BENCHMARK.json
#: lists the same names)
LAYER_METRICS = {
    "sql.lexer.ms": "ms", "sql.lexer.tokens": "count",
    "sql.parser.ms": "ms",
    "sql.to_rel.ms": "ms", "sql.to_rel.nodes": "count",
    "core.hep.ms": "ms", "mv.ms": "ms",
    "core.volcano.ms": "ms", "core.volcano.matches_fired": "count",
    "core.volcano.registrations": "count", "core.volcano.sets": "count",
    "vectorized.parallel_rules.ms": "ms",
    "vectorized.parallel_rules.exchanges": "count",
    "vectorized.parallel_rules.partitioned_scans": "count",
    "avatica.cache.normalize_ms": "ms", "avatica.cache.hit_rate": "ratio",
    "avatica.cache.evictions": "count",
    "framework.bind.ms": "ms", "avatica.server.overhead_ms": "ms",
    "runtime.execute.ms": "ms", "runtime.execute.rows_scanned": "count",
    "runtime.execute.rows_emitted": "count",
    "runtime.execute.rows_per_s": "1/s", "avatica.fetch.ms": "ms",
    "vectorized.parallel.rows_shuffled": "count",
    "vectorized.parallel.processes_spawned": "count",
    "vectorized.parallel.serial_ms": "ms",
    "vectorized.parallel.speedup_thread": "x",
    "vectorized.parallel.speedup_process": "x",
    "adapters.jdbc.scan_ms": "ms", "adapters.jdbc.rows": "count",
    "adapters.jdbc.shard_work_ratio": "ratio",
    "vectorized.wire.encode_mb_s": "MB/s", "vectorized.wire.decode_mb_s": "MB/s",
    "vectorized.wire.bytes_per_row": "bytes",
    "process.peak_rss_mb": "MB", "trace.overhead_pct": "%",
    "trace.planner_share_pct": "%", "trace.execute_share_pct": "%",
    "trace.statements": "count",
}

#: layers counted as "the planner" in ``trace.planner_share_pct``
PLANNER_LAYERS = ("sql.", "core.")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: index of the span that caused this one, None for a root
    parent: Optional[int]
    statement_id: int


class Tracer:
    """In-memory spans; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.statement_id = -1
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.statement_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent,
                                     self.statement_id)

    def total_ms(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name) * 1e3


def span_cost_ms(samples: int = 2000) -> float:
    """What recording one span costs, measured on empty spans."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / samples * 1e3


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_table(spans: List[Span]) -> List[Dict[str, Any]]:
    """layer -> count, total ms, self ms, share of ``statement`` time."""
    selfs = self_times(spans)
    statement_s = sum(s.end - s.start for s in spans if s.name == "statement")
    rows: Dict[str, Dict[str, Any]] = {}
    for span, own in zip(spans, selfs):
        row = rows.setdefault(span.name, {"layer": span.name, "count": 0,
                                          "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (span.end - span.start) * 1e3
        row["self_ms"] += own * 1e3
    for row in rows.values():
        row["share"] = (row["total_ms"] / 1e3 / statement_s
                        if statement_s else 0.0)
    served = [r for r in rows.values() if r["layer"] in
              ("served", "avatica.execute", "avatica.fetch")]
    return [r for r in rows.values() if r not in served] + served


def walk(rel) -> Iterable[Any]:
    yield rel
    for child in rel.inputs:
        yield from walk(child)


def bare_planner(served, workload: Workload, **overrides: Any) -> Planner:
    """A planner configured like the server's connections, outside it."""
    options = {k: v for k, v in workload.server_options.items()
               if k != "plan_cache_size"}
    options.update(overrides)
    return Planner(FrameworkConfig(
        served.server.catalog(TENANT), plan_cache=False,
        statement_timeout=STATEMENT_TIMEOUT_S, **options))


class StagedRunner:
    """Runs statements stage by stage on a bare planner, under spans."""

    def __init__(self, planner: Planner, tracer: Tracer) -> None:
        self.planner = planner
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(float)
        self.plans: Dict[str, PreparedPlan] = {}

    def plan(self, sql: str) -> PreparedPlan:
        """What ``Planner.prepare`` does on a cache miss, one stage per
        span.  ``sql.parser`` includes the parser's own tokenize call;
        ``sql.lexer`` is the separate call that counts ``?`` markers."""
        planner, span, counts = self.planner, self.tracer.span, self.counts
        config = planner.config
        with span("sql.parser"):
            ast = planner.parse(sql)
        with span("sql.to_rel"):
            rel = planner.converter.convert(ast)
        counts["sql.to_rel.nodes"] += sum(1 for _ in walk(rel))
        with span("core.hep"):
            rel = planner.rewrite_with_hep(rel)
        with span("mv"):
            rel = planner.apply_materializations(rel)
        with span("core.volcano"):
            rel = planner.optimize_with_volcano(rel)
        volcano = planner.last_volcano
        counts["core.volcano.matches_fired"] += volcano.matches_fired
        counts["core.volcano.registrations"] += volcano.registrations
        counts["core.volcano.sets"] += len(volcano.sets)
        if config.engine == "vectorized" and config.parallelism > 1:
            with span("vectorized.parallel_rules"):
                rel = insert_exchanges(
                    rel, config.parallelism,
                    mq=RelMetadataQuery(config.metadata_providers,
                                        caching=config.metadata_caching),
                    broadcast_threshold=config.broadcast_join_threshold,
                    partitioned_scans=config.partitioned_scans)
            counts["vectorized.parallel_rules.exchanges"] += len(
                exchanges_in(rel))
            counts["vectorized.parallel_rules.partitioned_scans"] += sum(
                isinstance(n, PartitionedScan) for n in walk(rel))
        with span("sql.lexer"):
            tokens = tokenize(sql)
        counts["sql.lexer.tokens"] += len(tokens)
        n_params = sum(t.kind == "OP" and t.value == "?" for t in tokens)
        return PreparedPlan(sql, rel, list(rel.row_type.field_names),
                            parameter_count=n_params)

    def run(self, statement: Statement, reuse_plan: bool):
        """One ``statement`` root span; returns the rows' digest."""
        span, counts = self.tracer.span, self.counts
        if reuse_plan and statement.sql not in self.plans:
            # the server planned this one during set-up: plan it under a
            # root of its own, so it is attributed but not to a statement
            with span("prepare"):
                self.plans[statement.sql] = self.plan(statement.sql)
        with span("statement"):
            with span("avatica.cache.normalize"):
                normalize_sql(statement.sql)
            prepared = self.plans.get(statement.sql) if reuse_plan else None
            if prepared is None:
                prepared = self.plans[statement.sql] = self.plan(statement.sql)
            with span("framework.bind"):
                running = self.planner.bind(prepared, statement.params)
            with span("runtime.execute"):
                rows = list(running.rows)
        context = running.context
        counts["runtime.execute.rows_scanned"] += context.rows_scanned
        counts["runtime.execute.rows_emitted"] += len(rows)
        counts["vectorized.parallel.rows_shuffled"] += context.rows_shuffled
        counts["vectorized.parallel.processes_spawned"] += \
            context.processes_spawned
        return digest(rows, statement.ordered)


def served_traced(client: Client, statement: Statement, tracer: Tracer):
    """The server path under spans; returns (digest, plan reused)."""
    with tracer.span("served"):
        with tracer.span("avatica.execute"):
            cursor = client.execute(statement)
        with tracer.span("avatica.fetch"):
            rows = client.fetch(cursor)
    reused = cursor.cache_hit
    cursor.close()
    return digest(rows, statement.ordered), reused


# -- probes: layers no statement span can isolate from outside --------------

def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def wire_probe(plans: Iterable[PreparedPlan]) -> Dict[str, float]:
    """``encode_batch``/``decode_batch`` over the scan batches of the
    workload's own tables (the first ``WIRE_BATCHES`` of each)."""
    sources = {}
    for prepared in plans:
        for node in walk(prepared.plan):
            table = getattr(node, "table", None)
            if table is not None and table.source is not None:
                sources[id(table.source)] = (table.source,
                                             node.row_type.field_count)
    raw = rows = 0
    encode_s = decode_s = 0.0
    for source, field_count in sources.values():
        batches = batches_from_rows(source.scan(), field_count,
                                    DEFAULT_BATCH_SIZE)
        for _, batch in zip(range(WIRE_BATCHES), batches):
            payload, dt = _timed(encode_batch, batch)
            encode_s += dt
            decode_s += _timed(decode_batch, payload)[1]
            raw += len(payload)
            rows += batch.live_count
    if not rows:
        return {}
    return {"vectorized.wire.encode_mb_s": raw / 1e6 / encode_s,
            "vectorized.wire.decode_mb_s": raw / 1e6 / decode_s,
            "vectorized.wire.bytes_per_row": raw / rows}


def _leaf(rel):
    while rel.inputs:
        rel = rel.inputs[0]
    return rel


def jdbc_probe(plans: Iterable[PreparedPlan]) -> Dict[str, float]:
    """Time each distinct pushed-down query on its backend, and, where a
    plan shards it, every shard's query against the unsharded one."""
    whole: Dict[str, float] = {}
    rows = 0
    shard_s = sharded_whole_s = 0.0
    sharded = set()
    for prepared in plans:
        for node in walk(prepared.plan):
            query = _leaf(node) if isinstance(node, PartitionedScan) else node
            if not isinstance(query, JdbcQuery):
                continue
            sql, db = query.sql(), query.schema.db
            if sql not in whole:
                (_, result), whole[sql] = _timed(db.execute, sql)
                rows += len(result)
            if node is not query and sql not in sharded:
                sharded.add(sql)
                sharded_whole_s += whole[sql]
                for p in range(node.n_partitions):
                    shard_sql = _leaf(node.partition_rel(p)).sql()
                    shard_s += _timed(db.execute, shard_sql)[1]
    out: Dict[str, float] = {}
    if whole:
        out["adapters.jdbc.scan_ms"] = statistics.mean(whole.values()) * 1e3
        out["adapters.jdbc.rows"] = rows
    if sharded:
        out["adapters.jdbc.shard_work_ratio"] = shard_s / sharded_whole_s
    return out


def speedup_probe(served, workload: Workload,
                  statements: Iterable[Statement]) -> Dict[str, float]:
    """The same statements at ``parallelism=1`` and at the workload's
    parallelism on thread and on process workers; base = serial ms."""
    parallelism = workload.server_options.get("parallelism", 1)
    if parallelism <= 1:
        return {}
    distinct = list({s.template: s for s in statements}.values())
    totals = {}
    for label, overrides in (("serial", {"parallelism": 1}),
                             ("thread", {"workers": "thread"}),
                             ("process", {"workers": "process"})):
        planner = bare_planner(served, workload, **overrides)
        total = 0.0
        for statement in distinct:
            prepared = planner.prepare(statement.sql)
            running = planner.bind(prepared, statement.params)
            total += _timed(list, running.rows)[1]
        totals[label] = total
    return {
        "vectorized.parallel.serial_ms": totals["serial"] / len(distinct) * 1e3,
        "vectorized.parallel.speedup_thread": totals["serial"] / totals["thread"],
        "vectorized.parallel.speedup_process":
            totals["serial"] / totals["process"],
    }


# -- the run ------------------------------------------------------------------

def traced_statements(workload: Workload, seed: int) -> List[Statement]:
    out: List[Statement] = []
    index = 1
    while len(out) < workload.trace_statements:
        out += workload.cycle(seed, 0, index)
        index += 1
    return out[:workload.trace_statements]


def run(workload: Workload, tables: Dict[str, List[tuple]], seed: int,
        referee: Referee) -> Dict[str, Any]:
    """Trace ``workload``; returns metrics, the layer table and failures,
    and writes ``out/trace_<workload>.json``."""
    statements = traced_statements(workload, seed)
    n = len(statements)

    served = set_up(workload, tables, seed, clients=1)
    check_warmup(served, referee)
    failed: List[str] = []
    client = served.clients[0]
    tracer = Tracer()
    staged = StagedRunner(bare_planner(served, workload), tracer)
    evictions_before = served.server.stats()["plan_cache"]["evictions"]
    reused_count = 0
    for statement_id, statement in enumerate(statements):
        tracer.statement_id = statement_id
        expected = referee.expected(statement)
        got, reused = served_traced(client, statement, tracer)
        reused_count += reused
        if got != expected:
            failed.append(f"{statement.template}: served path disagrees "
                          f"with the referee")
        if staged.run(statement, reused) != expected:
            failed.append(f"{statement.template}: staged path disagrees "
                          f"with the referee")
    tracer.statement_id = -1
    evictions = (served.server.stats()["plan_cache"]["evictions"]
                 - evictions_before)

    plans = list(staged.plans.values())
    metrics: Dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(staged.counts)
    metrics.update(wire_probe(plans))
    metrics.update(jdbc_probe(plans))
    metrics.update(speedup_probe(served, workload, statements))
    served.close()

    per_statement = lambda name: tracer.total_ms(name) / n
    for layer in ("sql.lexer", "sql.parser", "sql.to_rel", "core.hep", "mv",
                  "core.volcano", "vectorized.parallel_rules",
                  "framework.bind", "runtime.execute"):
        metrics[f"{layer}.ms"] = per_statement(layer)
    metrics["avatica.cache.normalize_ms"] = per_statement(
        "avatica.cache.normalize")
    metrics["avatica.cache.hit_rate"] = reused_count / n
    metrics["avatica.cache.evictions"] = evictions
    statement_ms = tracer.total_ms("statement")
    execute_ms = tracer.total_ms("runtime.execute")
    metrics["avatica.server.overhead_ms"] = (
        tracer.total_ms("served") - statement_ms) / n
    metrics["avatica.fetch.ms"] = (
        tracer.total_ms("avatica.fetch") - execute_ms) / n
    if execute_ms:
        metrics["runtime.execute.rows_per_s"] = (
            metrics["runtime.execute.rows_scanned"] / (execute_ms / 1e3))
    planner_ms = sum((s.end - s.start) * 1e3 for s in tracer.spans
                     if s.name.startswith(PLANNER_LAYERS)
                     and tracer.spans[s.parent].name == "statement")
    metrics["trace.planner_share_pct"] = 100.0 * planner_ms / statement_ms
    metrics["trace.execute_share_pct"] = 100.0 * execute_ms / statement_ms
    metrics["trace.overhead_pct"] = (
        100.0 * span_cost_ms() * len(tracer.spans)
        / (statement_ms + tracer.total_ms("served")))
    metrics["trace.statements"] = n
    # ru_maxrss is in KiB on Linux; forked workers are children
    metrics["process.peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    table = layer_table(tracer.spans)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    with open(path, "w") as out:
        json.dump({"workload": workload.name, "seed": seed,
                   "host": host_profile(),
                   "span_fields": list(Span._fields),
                   "spans": tracer.spans, "counts": dict(staged.counts),
                   "layers": table}, out)
    return {"metrics": metrics, "layers": table, "failed": failed,
            "attempted": len(served.warmup) + 2 * n,
            "trace_file": str(path)}


def format_table(layers: List[Dict[str, Any]]) -> str:
    lines = [f"  {'layer':28s}{'count':>7s}{'total ms':>12s}{'self ms':>12s}"
             f"{'share':>8s}"]
    for row in layers:
        lines.append(f"  {row['layer']:28s}{row['count']:7d}"
                     f"{row['total_ms']:12.2f}{row['self_ms']:12.2f}"
                     f"{100 * row['share']:7.1f}%")
    return "\n".join(lines)
