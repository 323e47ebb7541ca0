"""Retries, backoff and circuit breakers for federated scans.

The adapter side of the resilience layer (the taxonomy itself lives in
:mod:`repro.errors`).  Three pieces:

* :class:`RetryPolicy` — capped exponential backoff with
  *deterministic* jitter: the delay for (attempt, token) is a pure
  function of the policy seed, so chaos tests and benchmarks replay
  identically.  ``token`` is the retry site's identity (e.g. the shard
  id), decorrelating concurrent retries without randomness.
* :class:`CircuitBreaker` / :class:`BreakerRegistry` — classic
  closed → open → half-open per-backend breakers.  A registry is owned
  by a :class:`~repro.framework.Planner` (or shared server-wide by a
  :class:`~repro.avatica.server.QueryServer`, like the plan cache), so
  breaker state persists across statements: after
  ``failure_threshold`` consecutive failures a backend fails fast with
  :class:`~repro.errors.CircuitOpenError` until ``recovery_timeout``
  elapses, then a single half-open probe decides re-close vs re-open.
  Breakers are keyed per (backend object, scope): scope ``"scan"``
  guards plain scans, scope ``"partition"`` guards partitioned serving
  — kept separate so the scheduler can degrade a broken partitioned
  path to the still-healthy gather-then-shard baseline.
* :func:`resilient_rows` — the one scan wrapper both engines use: it
  re-runs the scan factory on transient failure (skipping rows already
  emitted, so consumers never see duplicates), charges the breaker,
  honours the statement deadline during backoff sleeps, and checks for
  cancellation on every row.  :func:`resilient_chunks` is its sibling
  for columnar scans (``Table.scan_columns``): the same treatment with
  every check, count and replay-skip done once per chunk.

Everything here is configuration-driven through
:class:`ResilienceContext`, which :meth:`Planner.bind` attaches to the
:class:`~repro.runtime.operators.ExecutionContext`; with no resilience
context attached (bare engine use), the wrappers degrade to plain
deadline/cancellation checking.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import (
    CONTROL_ERRORS,
    CircuitOpenError,
    is_backend_fault,
    is_transient,
)

#: Rows between deadline checks on a scan (cancellation is checked on
#: every row; the deadline needs a clock read, so it is amortised).
DEADLINE_CHECK_EVERY = 64

#: Longest single sleep slice during a retry backoff, so cancellation
#: and deadline expiry interrupt a waiting retry promptly.
_BACKOFF_SLICE = 0.02


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: 3 means "two retries".
    ``delay(attempt, token)`` for attempt ``n`` (1-based) is
    ``min(max_delay, base_delay * 2**(n-1))`` scaled into
    ``[0.5, 1.0]`` by a jitter fraction derived *only* from
    (seed, attempt, token) — no global RNG state, so runs replay.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter_seed: int = 0x5EED

    def delay(self, attempt: int, token: int = 0) -> float:
        cap = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        seed = (self.jitter_seed * 1_000_003 + attempt) * 1_000_003 + token
        fraction = random.Random(seed).random()
        return cap * (0.5 + 0.5 * fraction)


class CircuitBreaker:
    """One backend's closed/open/half-open failure gate.

    * CLOSED — requests flow; ``failure_threshold`` consecutive
      failures trip it OPEN.
    * OPEN — :meth:`allow` is False (fail fast) until
      ``recovery_timeout`` elapses, then the next :meth:`allow`
      transitions to HALF_OPEN and admits one probe.
    * HALF_OPEN — a success re-closes (count reset); a failure
      re-opens and restarts the recovery clock.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, failure_threshold: int = 5,
                 recovery_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request proceed right now?"""
        with self._lock:
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.recovery_timeout:
                    self._state = self.HALF_OPEN
                    return True
                return False
            return True

    def record_failure(self) -> bool:
        """Charge one failure; True when this call tripped it open."""
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                    self._state == self.CLOSED
                    and self._failures >= self.failure_threshold):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1
                return True
            if self._state == self.OPEN:
                # Late failure from a concurrent scan: restart recovery.
                self._opened_at = self._clock()
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == self.OPEN:
                # A straggler admitted before the trip (e.g. a healthy
                # sibling shard): recovery is decided by the half-open
                # probe, never by late successes.
                return
            self._state = self.CLOSED
            self._failures = 0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"state": self._state, "failures": self._failures,
                    "trips": self.trips}


class _JournaledBreaker(CircuitBreaker):
    """A breaker that also appends each outcome it is charged to a
    journal, as ``(backend id, scope, ok)``."""

    def __init__(self, key: Tuple[int, str], journal: list, *args) -> None:
        super().__init__(*args)
        self._key = key
        self._journal = journal

    def record_failure(self) -> bool:
        self._journal.append((*self._key, False))
        return super().record_failure()

    def record_success(self) -> None:
        self._journal.append((*self._key, True))
        super().record_success()


class BreakerRegistry:
    """Per-backend circuit breakers, keyed by (backend object, scope).

    Owned by a planner or shared across a query server's connections
    (like the plan cache), so state survives individual statements.
    The backend key is the adapter's table-source object — the thing
    whose health the breaker tracks; it is held strongly, which is
    fine because sources are owned by catalogs for the server's life.

    A forked worker process charges a registry of its own
    (:meth:`for_worker`), which journals every outcome; the journal
    travels home with the worker's counters and :meth:`replay` charges
    it to the statement's registry, so a shard failing in a worker opens
    the same breaker a failure in the parent would.
    """

    def __init__(self, failure_threshold: int = 5,
                 recovery_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 journal: Optional[list] = None) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[int, str], Tuple[Any, CircuitBreaker]] = {}
        #: outcomes charged here, to ship home; None outside workers
        self.journal = journal

    def for_worker(self) -> "BreakerRegistry":
        """A fresh, journaling registry with this one's settings, for a
        forked worker (which must not touch locks it inherited)."""
        return BreakerRegistry(self.failure_threshold, self.recovery_timeout,
                               self._clock, journal=[])

    def breaker_for(self, backend: Any, scope: str = "scan") -> CircuitBreaker:
        key = (id(backend), scope)
        with self._lock:
            entry = self._breakers.get(key)
            if entry is None:
                args = (self.failure_threshold, self.recovery_timeout,
                        self._clock)
                breaker = (CircuitBreaker(*args) if self.journal is None
                           else _JournaledBreaker(key, self.journal, *args))
                entry = (backend, breaker)
                self._breakers[key] = entry
            return entry[1]

    def replay(self, outcomes: Sequence[Tuple[int, str, bool]]) -> None:
        """Charge a worker's journaled ``"partition"``-scope outcomes to
        this registry's breakers for the same backends — a journaling
        registry passes them on instead.  A forked worker sees every
        object its parent held at the parent's address, so the backend
        id names the backend this registry holds; outcomes for backends
        it holds no breaker for are dropped.  Trips are not counted
        again: the worker counted its own."""
        if self.journal is not None:
            self.journal.extend(outcomes)
            return
        for backend_id, scope, ok in outcomes:
            if scope != "partition":
                continue
            with self._lock:
                entry = self._breakers.get((backend_id, scope))
            if entry is None:
                continue
            if ok:
                entry[1].record_success()
            else:
                entry[1].record_failure()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Breaker states keyed by a human-readable backend label."""
        with self._lock:
            entries = list(self._breakers.items())
        out: Dict[str, Dict[str, Any]] = {}
        for (_, scope), (backend, breaker) in entries:
            name = getattr(backend, "name", None) or type(backend).__name__
            out[f"{name}/{scope}"] = breaker.snapshot()
        return out

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()


class ResilienceContext:
    """Per-statement resilience configuration carried on the
    :class:`~repro.runtime.operators.ExecutionContext`: the retry
    policy plus the (statement-spanning) breaker registry."""

    __slots__ = ("policy", "breakers")

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 breakers: Optional[BreakerRegistry] = None) -> None:
        self.policy = policy
        self.breakers = breakers

    def breaker_for(self, backend: Any,
                    scope: str = "scan") -> Optional[CircuitBreaker]:
        if self.breakers is None or backend is None:
            return None
        return self.breakers.breaker_for(backend, scope)


def backoff_sleep(ctx, delay: float) -> None:
    """Sleep ``delay`` seconds in small slices, aborting promptly (via
    ``ctx.checkpoint()``'s typed raise) on cancellation or deadline
    expiry — a retry never outlives its statement's budget."""
    end = time.monotonic() + delay
    while True:
        ctx.checkpoint()
        now = time.monotonic()
        if now >= end:
            return
        time.sleep(min(_BACKOFF_SLICE, end - now))


def check_breaker(ctx, breaker: Optional[CircuitBreaker],
                  backend: Any) -> None:
    """Raise :class:`CircuitOpenError` (fail fast) when ``breaker`` is
    open, counting the rejection on the context."""
    if breaker is not None and not breaker.allow():
        ctx.note_breaker_rejection()
        name = getattr(backend, "name", None) or type(backend).__name__
        raise CircuitOpenError(
            f"circuit open for backend {name!r}: failing fast "
            f"(recovery in <= {breaker.recovery_timeout}s)")


def handle_scan_failure(ctx, exc: BaseException,
                        breaker: Optional[CircuitBreaker],
                        attempt: int, token: int) -> float:
    """Shared failure bookkeeping for the scan/shard retry loops.

    Charges the breaker for backend faults, decides whether attempt
    ``attempt`` may retry, and returns the backoff delay to sleep;
    re-raises ``exc`` (by returning control to the caller's bare
    ``raise``) via raising it when no retry is allowed.
    """
    if isinstance(exc, CONTROL_ERRORS):
        raise exc
    if breaker is not None and is_backend_fault(exc):
        if breaker.record_failure():
            ctx.note_breaker_trip()
    policy = ctx.resilience.policy if ctx.resilience is not None else None
    if not is_transient(exc) or policy is None or attempt >= policy.max_attempts:
        raise exc
    ctx.note_retry()
    return policy.delay(attempt, token)


def resilient_rows(ctx, backend: Any,
                   factory: Callable[[], Iterable[tuple]],
                   scope: str = "scan", token: int = 0,
                   count_scanned: bool = True) -> Iterator[tuple]:
    """Iterate ``factory()`` rows with the full resilience treatment.

    Cancellation is checked on every row and the deadline every
    :data:`DEADLINE_CHECK_EVERY` rows (both raise typed control
    errors).  A transient failure re-runs the factory, skipping the
    rows already emitted — sound for the deterministic scans adapters
    produce — after a deterministic-jitter backoff that respects the
    deadline.  Success/failure is charged to the backend's circuit
    breaker; an open breaker fails fast before the first row.
    """
    res = getattr(ctx, "resilience", None)
    breaker = res.breaker_for(backend, scope) if res is not None else None
    check_breaker(ctx, breaker, backend)
    cancel_event = ctx.cancel_event
    deadline = ctx.deadline
    attempt = 1
    emitted = 0
    while True:
        try:
            ctx.checkpoint()
            skip = emitted
            until_check = DEADLINE_CHECK_EVERY
            for row in factory():
                if skip:
                    skip -= 1
                    continue
                if cancel_event.is_set() or deadline is not None:
                    until_check -= 1
                    if cancel_event.is_set() or until_check <= 0:
                        until_check = DEADLINE_CHECK_EVERY
                        ctx.checkpoint()
                if count_scanned:
                    ctx.rows_scanned += 1
                emitted += 1
                yield tuple(row)
            if breaker is not None:
                breaker.record_success()
            return
        except BaseException as exc:
            if isinstance(exc, GeneratorExit):
                raise
            delay = handle_scan_failure(ctx, exc, breaker, attempt, token)
            backoff_sleep(ctx, delay)
            attempt += 1


def resilient_chunks(ctx, backend: Any,
                     factory: Callable[[], Iterable[Tuple[List[list], int]]]
                     ) -> Iterator[Tuple[List[list], int]]:
    """Iterate ``factory()``'s ``(columns, n)`` chunks with the
    treatment :func:`resilient_rows` gives rows, at chunk granularity.

    Cancellation and the deadline are checked before every chunk and
    ``rows_scanned`` grows by the chunk's row count.  A transient
    failure re-runs the factory and skips the rows already emitted,
    slicing the chunk the failure interrupted.  Only backends that
    produce a chunk cheaply should be read this way: a slow chunk delays
    the next check by the whole chunk.
    """
    res = getattr(ctx, "resilience", None)
    breaker = res.breaker_for(backend) if res is not None else None
    check_breaker(ctx, breaker, backend)
    attempt = 1
    emitted = 0
    while True:
        try:
            skip = emitted
            for columns, n in factory():
                ctx.checkpoint()
                if skip:
                    if n <= skip:
                        skip -= n
                        continue
                    columns = [col[skip:] for col in columns]
                    n -= skip
                    skip = 0
                ctx.rows_scanned += n
                emitted += n
                yield columns, n
            if breaker is not None:
                breaker.record_success()
            return
        except BaseException as exc:
            if isinstance(exc, GeneratorExit):
                raise
            delay = handle_scan_failure(ctx, exc, breaker, attempt, 0)
            backoff_sleep(ctx, delay)
            attempt += 1
