"""The multi-tenant query server behind the DB-API facade.

A :class:`QueryServer` owns the pieces every connection shares:

* **tenants** — named catalogs registered with
  :meth:`QueryServer.register_catalog`; each connection is opened
  against exactly one tenant and can never see another tenant's plans
  (the plan-cache key carries the catalog's identity token).
* **the plan cache** — one LRU of prepared plans shared by all of a
  server's connections, keyed on (catalog token, catalog version,
  planning fingerprint, normalized SQL).  See
  :mod:`repro.avatica.cache`.
* **admission control** — a semaphore bounding how many statements
  execute concurrently.  Each executing statement occupies one slot
  from bind until its row stream is drained or its cursor closed, which
  in turn bounds the worker threads the parallel vectorized scheduler
  may spawn.  When no slot frees within ``admission_timeout`` seconds
  the statement is rejected with
  :class:`~repro.avatica.OperationalError` instead of queueing without
  bound.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..adapters.resilience import BreakerRegistry
from ..runtime.vectorized.batch import DEFAULT_BATCH_SIZE
from ..schema.core import Catalog
from .cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache


class AdmissionSlot:
    """One admitted statement; release exactly once (idempotent).

    ``context`` carries the statement's ExecutionContext once bound, so
    the GC safety net can stop its workers too.  ``__del__`` releases
    the slot if the owner was dropped without closing — an abandoned
    cursor must never shrink the server's admission capacity."""

    __slots__ = ("_server", "_released", "context", "__weakref__")

    def __init__(self, server: "QueryServer") -> None:
        self._server = server
        self._released = False
        self.context = None

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        ctx, self.context = self.context, None
        if ctx is not None:
            ctx.cancel_event.set()
        self._server._release()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


class QueryServer:
    """Shared serving state: tenants, plan cache, admission control."""

    def __init__(self, max_concurrent_statements: Optional[int] = None,
                 admission_timeout: float = 5.0,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
                 **default_planner_options: Any) -> None:
        if max_concurrent_statements is not None and max_concurrent_statements < 1:
            raise ValueError("max_concurrent_statements must be >= 1 or None")
        self.max_concurrent_statements = max_concurrent_statements
        self.admission_timeout = admission_timeout
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size > 0 else None)
        self.default_planner_options = default_planner_options
        #: per-backend circuit breakers shared by every connection of
        #: this server (like the plan cache): one backend tripping its
        #: breaker fails fast for all tenants until it recovers.
        self.breakers = BreakerRegistry(
            failure_threshold=default_planner_options.get(
                "breaker_failure_threshold", 5),
            recovery_timeout=default_planner_options.get(
                "breaker_recovery_timeout", 30.0))
        self._tenants: Dict[str, Catalog] = {}
        self._semaphore = (threading.Semaphore(max_concurrent_statements)
                           if max_concurrent_statements else None)
        self._lock = threading.Lock()
        self._active = 0
        self._peak_active = 0
        self._admitted = 0
        self._rejected = 0
        self._connections_opened = 0
        self._rows_emitted = 0
        self._statements: Dict[int, Any] = {}  # id -> ExecutionContext
        self._next_statement_id = 0
        self._resilience_totals: Dict[str, int] = {
            "retries": 0, "deadline_misses": 0, "breaker_trips": 0,
            "breaker_rejections": 0, "shard_fallbacks": 0,
            "worker_leaks": 0, "worker_crashes": 0, "cancelled": 0,
        }

    # -- tenants --------------------------------------------------------------

    def register_catalog(self, name: str, catalog: Catalog) -> Catalog:
        """Register (or replace) a tenant catalog under ``name``."""
        with self._lock:
            self._tenants[name] = catalog
        return catalog

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def catalog(self, tenant: str) -> Catalog:
        with self._lock:
            try:
                return self._tenants[tenant]
            except KeyError:
                raise KeyError(
                    f"unknown tenant {tenant!r}; registered: "
                    f"{sorted(self._tenants)}") from None

    # -- connections ----------------------------------------------------------

    def connect(self, tenant: Optional[str] = None,
                **planner_overrides: Any) -> "Connection":
        """Open a connection to a tenant (the only one, if unnamed)."""
        from . import Connection
        with self._lock:
            if tenant is None:
                if len(self._tenants) != 1:
                    raise ValueError(
                        "tenant name required: server has "
                        f"{len(self._tenants)} registered tenants")
                tenant = next(iter(self._tenants))
            catalog = self._tenants.get(tenant)
        if catalog is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        options = dict(self.default_planner_options)
        options.update(planner_overrides)
        with self._lock:
            self._connections_opened += 1
        return Connection(catalog, _server=self, _tenant=tenant, **options)

    # -- admission control ----------------------------------------------------

    def admit(self) -> AdmissionSlot:
        """Claim an execution slot, or raise ``OperationalError``."""
        from . import OperationalError
        if self._semaphore is not None:
            if not self._semaphore.acquire(timeout=self.admission_timeout):
                with self._lock:
                    self._rejected += 1
                raise OperationalError(
                    f"admission rejected: {self.max_concurrent_statements} "
                    f"statements already executing (waited "
                    f"{self.admission_timeout}s)")
        with self._lock:
            self._active += 1
            self._admitted += 1
            self._peak_active = max(self._peak_active, self._active)
        return AdmissionSlot(self)

    def _release(self) -> None:
        with self._lock:
            self._active -= 1
        if self._semaphore is not None:
            self._semaphore.release()

    # -- statement registry (server-side cancellation) -------------------------

    def _register_statement(self, context: Any) -> int:
        """Track an executing statement's context; returns its id."""
        with self._lock:
            self._next_statement_id += 1
            statement_id = self._next_statement_id
            self._statements[statement_id] = context
        return statement_id

    def _finish_statement(self, statement_id: int,
                          context: Any = None) -> None:
        """Drop a finished statement and fold its resilience counters
        into the server-lifetime totals."""
        with self._lock:
            ctx = self._statements.pop(statement_id, None)
        ctx = ctx if ctx is not None else context
        if ctx is None:
            return
        snapshot = ctx.resilience_snapshot()
        with self._lock:
            for key, value in snapshot.items():
                if key in self._resilience_totals:
                    self._resilience_totals[key] += value

    def _note_rows_emitted(self, n: int) -> None:
        """A cursor handed ``n`` rows to its client (called per page)."""
        with self._lock:
            self._rows_emitted += n

    def statements(self) -> Dict[int, Dict[str, int]]:
        """Live statements: id -> current resilience counters."""
        with self._lock:
            live = dict(self._statements)
        return {sid: ctx.resilience_snapshot() for sid, ctx in live.items()}

    def cancel_statement(self, statement_id: int) -> bool:
        """Server-side kill: cancel one executing statement by id.

        Returns True if the statement was live.  Its worker threads
        wind down at their next checkpoint and the owning cursor's next
        fetch raises ``OperationalError``."""
        with self._lock:
            ctx = self._statements.get(statement_id)
        if ctx is None:
            return False
        ctx.cancel()
        return True

    def cancel_all(self) -> int:
        """Cancel every executing statement; returns how many."""
        with self._lock:
            live = list(self._statements.values())
        for ctx in live:
            ctx.cancel()
        return len(live)

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = {
                "tenants": sorted(self._tenants),
                "connections_opened": self._connections_opened,
                "statements": {
                    "active": self._active,
                    "peak_active": self._peak_active,
                    "admitted": self._admitted,
                    "rejected": self._rejected,
                    "max_concurrent": self.max_concurrent_statements,
                    "live": len(self._statements),
                    "rows_emitted": self._rows_emitted,
                },
                "resilience": dict(self._resilience_totals),
                # The execution profile new connections inherit (a
                # connection may still override per tenant).
                "execution": {
                    "workers": self.default_planner_options.get(
                        "workers", "thread"),
                    "batch_size": self.default_planner_options.get(
                        "batch_size", DEFAULT_BATCH_SIZE),
                    "parallelism": self.default_planner_options.get(
                        "parallelism", 1),
                },
            }
        out["plan_cache"] = (self.plan_cache.stats.snapshot()
                             if self.plan_cache is not None else None)
        out["breakers"] = self.breakers.snapshot()
        return out
