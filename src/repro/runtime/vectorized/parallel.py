"""The exchange scheduler: parallel partitioned execution.

Gives the exchange operators of :mod:`.exchange` their multi-worker
semantics.  A plan is cut at exchange boundaries into *fragments*;
between two exchanges every operator is partition-local ("narrow"), so
the scheduler runs one copy of the fragment per partition, each over
its own ``ColumnBatch`` stream:

* a :class:`~.exchange.RandomExchange` splits a stream round-robin
  into N partitions;
* a :class:`~.exchange.HashExchange` re-buckets every batch row-wise by
  a hash of its key columns, so equal keys co-locate;
* a :class:`~.exchange.BroadcastExchange` replicates batches to every
  partition;
* a :class:`~.exchange.SingletonExchange` gathers the partitions back
  into one stream — concatenating as results arrive, or running an
  ordered k-way merge when a collation must be preserved.

Where exchanges sit is the planner's decision; how batches cross them
is the *transport's*.  One topology builder, :func:`_build`, turns the
region below a gather into per-partition subtrees whose leaves
(:class:`~.exchange.InjectedStream`) stand in for incoming edges or
adapter-served shards, and registers one producer per child partition
of every edge; one router, :func:`_route`, drives a producer's batches
into its edge and meters every shuffled row.  A transport supplies
only an edge (``edge``), a receiver drain (``receive``), a worker start
(``start`` runs each of ``workers``) and a bounded ``shutdown``:

* :class:`Region` (here) — worker threads sharing the statement
  context, bounded queues as edges (backpressure keeps at most a few
  batches in flight per edge).  Batches are immutable once emitted, so
  a broadcast batch is shared, not copied, and a hash bucket is a
  selection vector over the producer's batch.
* :class:`~.parallel_process.ProcessRegion` — forked worker processes
  with fresh contexts, pipe matrices carrying wire frames.

Errors propagate through the edges and cancel the whole region;
abandoning the gather iterator (e.g. a LIMIT upstream) cancels it too,
and ``shutdown`` reclaims its workers within a bounded budget, so no
worker outlives its consumer.

Resilience: every receiver poll loop checks the statement's deadline
and cancellation flag (:meth:`ExecutionContext.checkpoint`), so a stuck
producer turns into a typed :class:`~repro.errors.DeadlineExceeded` at
the consumer within the deadline instead of a hang.  Adapter-served
shards (:class:`~.partitioned.PartitionedScan`) retry transient
failures per shard — only the failed shard's ``partition_rel(p)``
subtree is re-run — under the statement's
:class:`~repro.adapters.resilience.RetryPolicy`, and a backend whose
``"partition"``-scope circuit breaker is open degrades to the
gather-then-shard baseline (serial template scan re-sharded in-engine)
instead of failing outright.

Worker threads parallelise across cores only on GIL-free builds;
under the GIL the scheduler still provides the partitioned execution
semantics (and the two-phase plans it executes) at a bounded overhead.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from functools import partial
from typing import Iterator, List, Optional, Sequence

from ...adapters.resilience import backoff_sleep, handle_scan_failure
from ...core.rel import RelNode
from ..operators import ExecutionContext, row_sort_key
from .batch import ColumnBatch, batches_from_rows, pylist
from .exchange import (
    BroadcastExchange,
    Exchange,
    HashExchange,
    InjectedStream,
    RandomExchange,
    SingletonExchange,
)
from .partitioned import PartitionedScan

#: Maximum batches in flight per exchange edge (backpressure bound).
QUEUE_CAP = 8

#: Queue item tags.
_BATCH, _ERROR, _EOS = 0, 1, 2

#: Seconds between cancellation checks while blocked on a queue.
_POLL = 0.05

#: Seconds :meth:`Region.shutdown` waits for its workers to finish.
#: A worker still alive past this is stuck inside a blocking backend
#: call we cannot interrupt; it is daemonic, counted on the context
#: as a leak, and abandoned rather than wedging the statement.
SHUTDOWN_JOIN_TIMEOUT = 2.0

#: Routing of a gather's producers: every batch to the one out, unmetered.
_DRAIN = ("drain", None)


# ---------------------------------------------------------------------------
# The thread transport
# ---------------------------------------------------------------------------

class Region:
    """One thread-backed parallel region: the worker threads feeding a
    single gather and the bounded queues between them.  Workers share
    the statement's context, so their counters need no folding."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.cancel = threading.Event()
        self.threads: List[threading.Thread] = []
        self.ctx = ctx
        #: ``(tree, routing, outbox)`` per worker, started by :meth:`start`
        self.workers: List[tuple] = []

    def edge(self, n_producers: int, n_consumers: int):
        """An exchange edge: one bounded queue per consumer, fed by
        every producer.  Returns ``(outboxes, receivers)``, one outbox
        per producer and one receiver per consumer."""
        queues = [queue.Queue(QUEUE_CAP) for _ in range(n_consumers)]
        outbox = _QueueOutbox(queues, self)
        return [outbox] * n_producers, [(q, n_producers) for q in queues]

    def receive(self, receiver, ctx: ExecutionContext,
                batch_size: Optional[int] = None) -> Iterator[ColumnBatch]:
        """Drain a queue fed by ``n_producers`` workers, re-raising errors.

        While blocked, checks the statement's deadline and cancellation
        flag: a producer that never delivers becomes a typed control
        error here (at the consumer) within the deadline, never a silent
        hang or ``queue.Empty`` starvation."""
        q, n_producers = receiver
        done = 0
        while done < n_producers:
            try:
                tag, payload = q.get(timeout=_POLL)
            except queue.Empty:
                if self.cancel.is_set():
                    return
                ctx.checkpoint()
                continue
            if tag == _EOS:
                done += 1
            elif tag == _ERROR:
                raise payload
            else:
                yield payload

    def start(self, batch_size: int) -> None:
        for tree, routing, outbox in self.workers:
            t = threading.Thread(
                target=run_worker,
                args=(tree, routing, outbox, self.ctx, batch_size),
                daemon=True, name=f"repro-worker-{len(self.threads)}")
            self.threads.append(t)
            t.start()

    def should_stop(self) -> bool:
        """Workers poll this: region cancelled, statement cancelled,
        or statement deadline expired."""
        if self.cancel.is_set() or self.ctx.cancel_event.is_set():
            return True
        d = self.ctx.deadline
        return d is not None and d.expired()

    def shutdown(self, join_timeout: float = SHUTDOWN_JOIN_TIMEOUT) -> int:
        """Cancel and join every worker (bounded); returns the number
        of workers that failed to stop within the budget."""
        self.cancel.set()
        budget_end = time.monotonic() + join_timeout
        leaked = 0
        for t in self.threads:
            t.join(max(0.0, budget_end - time.monotonic()))
            if t.is_alive():
                leaked += 1
        if leaked:
            self.ctx.note_worker_leak(leaked)
        return leaked


class _QueueOutbox:
    """A producer's send side of a queue edge; ``send`` is False once
    the region must stop."""

    def __init__(self, queues: Sequence["queue.Queue"], region: Region) -> None:
        self.queues = queues
        self.region = region

    def __len__(self) -> int:
        return len(self.queues)

    def send(self, j: int, batch: ColumnBatch) -> bool:
        return self._put(self.queues[j], (_BATCH, batch))

    def send_all(self, batch: ColumnBatch) -> bool:
        return all(self._put(q, (_BATCH, batch)) for q in self.queues)

    def finish(self, error: Optional[BaseException],
               ctx: ExecutionContext) -> None:
        for q in self.queues:
            if error is not None:
                self._put(q, (_ERROR, error))
            self._put(q, (_EOS, None))

    def _put(self, q: "queue.Queue", item) -> bool:
        """Stop-aware blocking put; False if the region must stop."""
        while not self.region.should_stop():
            try:
                q.put(item, timeout=_POLL)
                return True
            except queue.Full:
                continue
        return False


def region_for(ctx: ExecutionContext):
    """The transport a statement's parallel regions run on: forked
    worker processes when it asked for them and ``fork`` exists (plan
    shipping and hash-seed agreement rely on it), threads otherwise."""
    if ctx.workers == "process":
        from .parallel_process import ProcessRegion, process_backend_available
        if process_backend_available():
            return ProcessRegion(ctx)
    return Region(ctx)


# ---------------------------------------------------------------------------
# Transport-independent scheduling
# ---------------------------------------------------------------------------

def run_worker(tree: RelNode, routing: tuple, outbox,
               ctx: ExecutionContext, batch_size: int) -> None:
    """One worker's body on either transport: route ``tree``'s batches
    into its edge, then end every out's stream — after the error, if
    one was raised, so each consumer re-raises it."""
    from .executor import execute_batches
    error: Optional[BaseException] = None
    try:
        _route(execute_batches(tree, ctx, batch_size), routing, outbox, ctx)
    except BaseException as e:  # propagated to consumers, not lost
        error = e
    finally:
        outbox.finish(error, ctx)


def _route(stream: Iterator[ColumnBatch], routing: tuple, outbox,
           ctx: ExecutionContext) -> None:
    """Drive one producer's batch stream into its edge's outbox.

    ``("drain", None)`` sends every batch to every out (a gather's
    producers; unmetered); ``("broadcast", None)`` does the same,
    metered once per out; ``("rr", offset)`` round-robins batches,
    producers staggered by ``offset`` so partitions fill evenly; and
    ``("hash", keys)`` re-buckets rows by ``hash(keys) % N`` — each
    bucket a selection vector over the compacted batch, so the split
    copies no column.  Every row entering an exchange is metered here,
    once; elided-shuffle plans never route rows through here.
    """
    kind, arg = routing
    n_out = len(outbox)
    for batch in stream:
        ctx.checkpoint()
        if kind == "hash":
            batch = batch.compact()
            n = batch.num_rows
            if n == 0:
                continue
            ctx.add_shuffled(n)
            key_cols = [pylist(batch.columns[k]) for k in arg]
            buckets: List[List[int]] = [[] for _ in range(n_out)]
            for i in range(n):
                h = hash(tuple(col[i] for col in key_cols))
                buckets[h % n_out].append(i)
            for j, sel in enumerate(buckets):
                if sel and not outbox.send(j, batch.with_selection(sel)):
                    return
        elif kind == "rr":
            ctx.add_shuffled(batch.live_count)
            if not outbox.send(arg % n_out, batch):
                return
            arg += 1
        else:
            if kind == "broadcast":
                ctx.add_shuffled(batch.live_count * n_out)
            if not outbox.send_all(batch):
                return


def _fans_out(rel: RelNode) -> bool:
    """True when the subtree is parallel below this point — it contains
    an exchange edge or an adapter-partitioned scan.  A nested gather
    does not: it runs its own region when drained."""
    if isinstance(rel, SingletonExchange):
        return False
    if isinstance(rel, (Exchange, PartitionedScan)):
        return True
    return any(_fans_out(i) for i in rel.inputs)


def _partition_breaker(scan: PartitionedScan, ctx: ExecutionContext):
    res = ctx.resilience
    if res is None:
        return None
    return res.breaker_for(scan.backend_key(), "partition")


def _connect(region, producers: List[RelNode], routings: Sequence[tuple],
             n_consumers: int) -> list:
    """One edge from a routed worker per producer subtree to
    ``n_consumers`` consumers; returns the consumers' receivers."""
    outboxes, receivers = region.edge(len(producers), n_consumers)
    region.workers += zip(producers, routings, outboxes)
    return receivers


def _build(rel: RelNode, ctx: ExecutionContext, region) -> List[RelNode]:
    """The per-partition subtrees produced by ``rel``.

    The one walk of the exchange topology: exchange edges become
    ``region`` edges with one routed producer per child partition,
    adapter-served shards become :class:`InjectedStream` leaves, and a
    partition-local operator is copied once per partition over its
    per-partition inputs.  A serial section (or nested gather, which
    runs its own region inside whatever worker it lands in)
    contributes itself as a single partition.
    """
    if not _fans_out(rel):
        return [rel]

    if isinstance(rel, PartitionedScan):
        # Elided exchange: the backend serves each shard directly, so
        # the partitions exist without any inter-worker edge (and
        # contribute nothing to ``rows_shuffled``).
        breaker = _partition_breaker(rel, ctx)
        if breaker is None or breaker.allow():
            rel.prepare()  # here, before any worker starts or forks
            return [InjectedStream(rel.row_type, partial(_shard_stream, rel, p))
                    for p in range(rel.n_partitions)]
        # Partitioned serving is circuit-open for this backend: degrade
        # to the gather-then-shard baseline — one producer runs the
        # serial template and re-shards in-engine; plain scans may well
        # be healthy when shard serving is not.
        ctx.note_breaker_rejection()
        ctx.note_shard_fallback()
        producers = [rel.input]
        routings = [("hash", rel.keys) if rel.keys else ("rr", 0)]
        n_out = rel.n_partitions
    elif isinstance(rel, (HashExchange, RandomExchange, BroadcastExchange)):
        producers = _build(rel.input, ctx, region)
        if isinstance(rel, HashExchange):
            routings = [("hash", rel.keys)] * len(producers)
        elif isinstance(rel, RandomExchange):
            routings = [("rr", i) for i in range(len(producers))]
        else:
            routings = [("broadcast", None)] * len(producers)
        n_out = rel.parallelism
    else:
        # Partition-local operator: one copy per partition, fused with
        # its per-partition inputs.
        input_parts = [_build(child, ctx, region) for child in rel.inputs]
        counts = {len(parts) for parts in input_parts}
        if len(counts) != 1:
            raise RuntimeError(
                f"mis-partitioned plan: {rel.rel_name} inputs have "
                f"{sorted(len(parts) for parts in input_parts)} partitions")
        return [rel.copy(inputs=[parts[p] for parts in input_parts])
                for p in range(counts.pop())]
    return [InjectedStream(rel.row_type, partial(region.receive, r), r)
            for r in _connect(region, producers, routings, n_out)]


def _shard_stream(scan: PartitionedScan, p: int, ctx: ExecutionContext,
                  batch_size: int) -> Iterator[ColumnBatch]:
    """One adapter-served shard, with per-shard transient retry.

    A transient failure re-runs only this shard's ``partition_rel(p)``
    subtree (never the sibling shards or the whole region), skipping
    the rows already emitted so downstream operators see each row
    exactly once.  Success and failure are charged to the backend's
    ``"partition"``-scope circuit breaker in ``ctx``'s registry."""
    from .executor import execute_batches

    breaker = _partition_breaker(scan, ctx)
    attempt = 1
    emitted = 0
    while True:
        try:
            ctx.checkpoint()
            skip = emitted
            for batch in execute_batches(scan.partition_rel(p), ctx,
                                         batch_size):
                compacted = batch.compact()
                n = compacted.num_rows
                if skip:
                    if n <= skip:
                        skip -= n
                        continue
                    compacted = ColumnBatch(
                        [col[skip:] for col in compacted.columns], n - skip)
                    n -= skip
                    skip = 0
                if n == 0:
                    continue
                ctx.checkpoint()
                emitted += n
                yield compacted
            if breaker is not None:
                breaker.record_success()
            return
        except BaseException as exc:
            if isinstance(exc, GeneratorExit):
                raise
            delay = handle_scan_failure(ctx, exc, breaker, attempt, token=p)
            backoff_sleep(ctx, delay)
            attempt += 1


def _rows_of(batches: Iterator[ColumnBatch]) -> Iterator[tuple]:
    for batch in batches:
        yield from batch.iter_rows()


def gather_batches(exch: SingletonExchange, ctx: ExecutionContext,
                   batch_size: int) -> Iterator[ColumnBatch]:
    """Execute a gather: build the parallel region below ``exch`` on
    the statement's transport (:func:`region_for`), run one drain
    worker per final partition, and merge their streams into one — an
    ordered k-way merge when a collation must survive, otherwise
    batches as they arrive on one fan-in edge."""
    if not _fans_out(exch.input):
        from .executor import execute_batches
        yield from execute_batches(exch.input, ctx, batch_size)
        return
    region = region_for(ctx)
    try:
        sources = _build(exch.input, ctx, region)
        if exch.collation.field_collations and len(sources) > 1:
            # Each partition stream is sorted by the collation; the
            # k-way merge preserves it globally.
            receivers = [_connect(region, [src], [_DRAIN], 1)[0]
                         for src in sources]
        else:
            receivers = _connect(region, sources, [_DRAIN] * len(sources), 1)
        region.start(batch_size)
        streams = [region.receive(r, ctx) for r in receivers]
        if len(streams) == 1:
            yield from streams[0]
            return
        merged = heapq.merge(*map(_rows_of, streams),
                             key=row_sort_key(exch.collation))
        yield from batches_from_rows(merged, exch.row_type.field_count,
                                     batch_size)
    finally:
        region.shutdown()
