"""The process transport: true multicore exchange edges.

The scheduler in :mod:`.parallel` builds one region topology for
either transport; on a GIL-enabled CPython its thread workers
time-slice one core.  :class:`ProcessRegion` runs the same topology on
**forked worker processes** connected by ``multiprocessing`` pipes:
each exchange edge becomes a producer×consumer matrix of one-way pipes
carrying wire-encoded :class:`ColumnBatch` frames (:mod:`.wire` — no
per-row pickling, selection vectors applied at encode time), and each
partition-local operator chain is fused into a single worker process.

Plan shipping is by **fork**: the scheduler builds the complete
topology — every pipe and every worker's subtree, with pipe-crossing
edges and adapter-served shards as
:class:`~.exchange.InjectedStream` leaves (shards re-planned from the
:meth:`~.partitioned.PartitionedScan.partition_rel` template inside
the worker) — and only then does :meth:`ProcessRegion.start` fork.
Nothing is pickled: closures, compiled kernels and adapter handles all
arrive in the child via copy-on-write memory.  Fork also guarantees
every worker inherits the parent's string-hash seed, so the in-engine
hash split, the backend's ``partition_of`` buckets and every sibling
worker agree on row placement.  On platforms without ``fork`` the
scheduler stays on the thread transport.

Each forked child first closes every inherited pipe end it does not
own — EOF detection depends on it — and runs with a **fresh**
:class:`ExecutionContext`: the statement's remaining deadline, the
same parameters and retry policy, its own (fresh) breaker registry,
``workers="thread"`` (a nested parallel region inside a worker uses
threads, never grandchild processes), and its own counters, which it
ships home in a STATS frame before end-of-stream so ``rows_scanned`` /
``rows_shuffled`` / retry counts fold transitively into the statement
context.  Its breaker registry has the statement registry's settings
and journals every outcome; the journal rides the same STATS frame and
is replayed into the statement's registry, so a shard that keeps
failing in a worker opens the parent's ``"partition"`` breaker.

The resilience contract holds across the process boundary:

* *Deadlines propagate* — children enforce the remaining budget
  themselves, and every parent-side pipe wait polls
  :meth:`ExecutionContext.checkpoint`.
* *Cancellation reclaims workers* — :meth:`ProcessRegion.shutdown`
  closes the parent's pipe ends (blocked writers get ``EPIPE`` and
  wind down), then terminates and finally kills survivors within the
  join budget, counting anything unkillable as a worker leak.
* *A dead worker is a typed error* — a pipe reaching EOF before the
  worker's end-of-stream frame raises
  :class:`~repro.errors.WorkerCrashed` (counted in resilience stats)
  at the consumer, never a hang.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing import connection as _mp_connection
from typing import Iterator, List, Optional, Sequence

from ...adapters.resilience import BreakerRegistry, ResilienceContext, RetryPolicy
from ...core.rel import RelNode
from ...errors import Deadline, WorkerCrashed
from ..operators import ExecutionContext
from .batch import ColumnBatch
from .exchange import InjectedStream
from .parallel import SHUTDOWN_JOIN_TIMEOUT, run_worker
from .wire import decode_batch, encode_batch

#: Message tags, prefixed to every pipe payload.
_F_DATA = b"D"
_F_EOS = b"E"
_F_ERROR = b"X"
_F_STATS = b"S"

#: Seconds between cancellation/deadline checks while blocked on a pipe.
_POLL = 0.05


def process_backend_available() -> bool:
    """Is the process backend usable here?  Requires the ``fork``
    start method: plan shipping and hash-seed agreement both rely on
    forked copy-on-write memory."""
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _PipeOutbox:
    """A producer's write ends: one pipe to each consumer of its edge."""

    def __init__(self, conns: List) -> None:
        self.conns = conns

    def __len__(self) -> int:
        return len(self.conns)

    def send(self, j: int, batch: ColumnBatch) -> bool:
        self.conns[j].send_bytes(_F_DATA + encode_batch(batch))
        return True

    def send_all(self, batch: ColumnBatch) -> bool:
        payload = _F_DATA + encode_batch(batch)  # encoded once for all outs
        for conn in self.conns:
            conn.send_bytes(payload)
        return True

    def finish(self, error: Optional[BaseException],
               ctx: ExecutionContext) -> None:
        if isinstance(error, OSError):
            return  # consumer gone (cancel, LIMIT): wind down quietly
        frames = [_F_EOS]
        if error is not None:
            frames.insert(0, _F_ERROR + _encode_error(error))
        try:
            # STATS to one consumer only (it folds and forwards).
            self.conns[0].send_bytes(
                _F_STATS + pickle.dumps(ctx.child_stats()))
            for frame in frames:
                for conn in self.conns:
                    conn.send_bytes(frame)
        except OSError:
            pass


def _encode_error(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(RuntimeError(f"worker error: {exc!r}"))


def _decode_error(payload: bytes) -> BaseException:
    try:
        return pickle.loads(payload)
    except Exception:
        return RuntimeError("worker raised an error that could not be "
                            "decoded from its pipe")


def _close(conns: Sequence) -> None:
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _worker_main(tree: RelNode, routing: tuple, outbox: _PipeOutbox,
                 close_conns: Sequence, parameters: Sequence,
                 deadline_remaining: Optional[float],
                 policy: Optional[RetryPolicy],
                 breakers: Optional[BreakerRegistry],
                 batch_size: int) -> None:
    """Entry point of one forked worker process."""
    # Close every inherited pipe end this worker does not own: EOF
    # detection (crash surfacing, clean teardown) depends on each fd
    # being open only in its owner.
    _close(close_conns)
    ctx = ExecutionContext(
        parameters=parameters,
        deadline=Deadline.after(deadline_remaining),
        resilience=ResilienceContext(
            policy, (breakers or BreakerRegistry()).for_worker()),
        batch_size=batch_size,
        workers="thread",  # nested regions fan out threads, not processes
    )
    try:
        run_worker(tree, routing, outbox, ctx, batch_size)
    finally:
        _close(outbox.conns)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _tree_conns(rel: RelNode) -> List:
    """Every pipe receive end a worker subtree reads."""
    out: List = []
    if isinstance(rel, InjectedStream) and rel.receiver is not None:
        out.extend(rel.receiver)
    for child in rel.inputs:
        out.extend(_tree_conns(child))
    return out


class ProcessRegion:
    """One process-backed parallel region: the forked workers feeding
    a single gather, plus every pipe between them.

    The full topology (pipes + worker subtrees) is built first; only
    :meth:`start` forks.  Each child closes every pipe end but its own,
    and after forking the parent closes every end a child owns, keeping
    only the gather's receive ends — the fd discipline EOF semantics
    require.
    """

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self._mp = multiprocessing.get_context("fork")
        self.all_conns: List = []
        #: ``(tree, routing, outbox)`` per worker, forked by :meth:`start`
        self.workers: List[tuple] = []
        self.procs: List = []

    def edge(self, n_producers: int, n_consumers: int):
        """An exchange edge: one pipe per (producer, consumer) pair.
        Returns ``(outboxes, receivers)``; a receiver is the list of
        one consumer's receive ends, one per producer."""
        matrix = [[self._mp.Pipe(duplex=False) for _ in range(n_consumers)]
                  for _ in range(n_producers)]
        for row in matrix:
            for r, w in row:
                self.all_conns += [r, w]
        outboxes = [_PipeOutbox([w for _, w in row]) for row in matrix]
        receivers = [[row[p][0] for row in matrix] for p in range(n_consumers)]
        return outboxes, receivers

    def receive(self, receiver, ctx: ExecutionContext,
                batch_size: Optional[int] = None) -> Iterator[ColumnBatch]:
        """Drain wire frames from one consumer's producer pipes,
        multiplexed.

        The pipe twin of :meth:`.parallel.Region.receive`: STATS frames
        fold into ``ctx``, ERROR frames re-raise the worker's exception,
        EOF before EOS becomes a typed :class:`WorkerCrashed`, and every
        wait checks the statement's deadline and cancellation flag.
        """
        pending = list(receiver)
        while pending:
            ctx.checkpoint()
            ready = _mp_connection.wait(pending, timeout=_POLL)
            for conn in ready:
                try:
                    msg = conn.recv_bytes()
                except (EOFError, OSError):
                    ctx.note_worker_crash()
                    raise WorkerCrashed(
                        "worker process died before end-of-stream (pipe "
                        "closed mid-statement)")
                tag = msg[:1]
                if tag == _F_DATA:
                    yield decode_batch(memoryview(msg)[1:])
                elif tag == _F_STATS:
                    ctx.merge_child_stats(pickle.loads(msg[1:]))
                elif tag == _F_ERROR:
                    raise _decode_error(msg[1:])
                else:  # _F_EOS
                    pending.remove(conn)
                    conn.close()

    def start(self, batch_size: int) -> None:
        ctx = self.ctx
        deadline = ctx.deadline
        remaining = deadline.remaining() if deadline is not None else None
        res = ctx.resilience
        policy = res.policy if res is not None else None
        breakers = res.breakers if res is not None else None
        owned: List = []
        for idx, (tree, routing, outbox) in enumerate(self.workers):
            mine = outbox.conns + _tree_conns(tree)
            keep = {id(c) for c in mine}
            close = [c for c in self.all_conns if id(c) not in keep]
            proc = self._mp.Process(
                target=_worker_main,
                args=(tree, routing, outbox, close, list(ctx.parameters),
                      remaining, policy, breakers, batch_size),
                daemon=True, name=f"repro-pworker-{idx}")
            self.procs.append(proc)
            proc.start()
            owned += mine
        # All children forked: the parent now drops every end a child
        # owns, so EOF propagates the moment a child exits.
        _close(owned)
        ctx.note_processes_spawned(len(self.procs))

    def shutdown(self, join_timeout: float = SHUTDOWN_JOIN_TIMEOUT) -> int:
        """Reclaim every worker within the join budget; returns the
        number (if any) that survived even SIGKILL, counted on the
        context as leaks."""
        _close(self.all_conns)
        budget_end = time.monotonic() + join_timeout
        for proc in self.procs:  # grace: most workers have already exited
            proc.join(max(0.0, min(0.1, budget_end - time.monotonic())))
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        leaked = 0
        for proc in self.procs:
            proc.join(max(0.0, budget_end - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(0.5)
                if proc.is_alive():  # pragma: no cover - unkillable
                    leaked += 1
        if leaked:
            self.ctx.note_worker_leak(leaked)
        return leaked
