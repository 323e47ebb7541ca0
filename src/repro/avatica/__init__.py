"""Avatica reborn: the multi-tenant query server (Section 1, Table 1).

Calcite "includes a driver conforming to the standard Java API (JDBC)";
this package is the Python equivalent — a PEP 249 (DB-API 2.0) facade —
rebuilt as a serving layer rather than a thin shim over the planner.

Architecture
============

**Lifecycle.**  A :class:`~repro.avatica.server.QueryServer` holds the
shared state: named tenant catalogs, the plan cache, and the admission
semaphore.  :meth:`QueryServer.connect` (or the module-level
:func:`connect`, which wraps a single-tenant private server) opens a
:class:`Connection`; a connection hands out :class:`Cursor` objects and
:class:`PreparedStatement` handles.  Closing a connection closes its
cursors; executing on a closed cursor *or* connection raises
:class:`ProgrammingError`.

**Plan cache.**  Every statement is prepared through an LRU of physical
plans keyed on ``(catalog token, catalog version, planning fingerprint,
normalized SQL)`` — see :mod:`repro.avatica.cache`.  A repeated
statement (modulo whitespace, comments and keyword case) skips
parse/validate/Hep/Volcano entirely; a catalog mutation bumps the
version (:attr:`repro.schema.core.Catalog.version`) and eagerly
invalidates the superseded plans.  Dynamic parameters (``?``) are never
baked into a plan — they are bound per execution, so one cached plan
serves every parameter set.  ``Cursor.cache_hit`` reports whether the
last statement reused a cached plan.

**Prepared statements.**  ``Connection.prepare(sql)`` returns a
:class:`PreparedStatement` that pins its plan (re-validating only when
the catalog version moves) and is re-executed with
``stmt.execute([params])`` — the JDBC prepared-statement model, and the
fast path the 10x cached-vs-cold benchmark (``bench_server.py``)
measures.

**Paged results.**  Cursors stream: rows are pulled from the executor
on demand (the vectorized engine yields them batch by batch), so
``fetchone``/``fetchmany`` page through a large result without
materialising it.  A page is taken from the stream in one
``itertools.islice``, not one Python call per row, and its rows are
counted as emitted once per page.  Reading ``Cursor.rowcount`` before
the stream is exhausted drains the remainder into the cursor's buffer
to produce an exact count (DB-API compatibility); until then it costs
nothing.

**Admission control.**  Each executing statement occupies one server
slot from bind until its stream is drained or its cursor closed.  With
``max_concurrent_statements=N`` at most N statements — and therefore at
most N parallel worker pools — run at once; excess statements wait up
to ``admission_timeout`` seconds, then fail with
:class:`OperationalError`.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, Optional, Sequence, Tuple
import weakref

from .. import errors as _errors
from ..framework import _UNSET, FrameworkConfig, Planner, PreparedPlan
from ..schema.core import Catalog
from .cache import PlanCache, PlanCacheStats, normalize_sql
from .server import AdmissionSlot, QueryServer

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections
paramstyle = "qmark"

__all__ = [
    "apilevel", "threadsafety", "paramstyle",
    "Error", "DatabaseError", "ProgrammingError", "OperationalError",
    "Connection", "Cursor", "PreparedStatement",
    "QueryServer", "PlanCache", "PlanCacheStats", "normalize_sql",
    "connect",
]


class Error(Exception):
    """DB-API base error."""


class DatabaseError(Error):
    """DB-API database-side error."""


class ProgrammingError(DatabaseError):
    """Bad SQL, unknown names, misuse of a closed handle, bad binds."""


class OperationalError(DatabaseError):
    """Server-side operational failure: admission rejection, backend
    failure (transient or permanent), statement deadline exceeded,
    cancellation, or an open circuit breaker.  The typed cause from
    :mod:`repro.errors` is preserved as ``__cause__``."""


#: Exception shapes that map to :class:`OperationalError` at the
#: DB-API boundary: the resilience taxonomy plus the stdlib shapes a
#: real network client raises.
_OPERATIONAL_SHAPES = (_errors.BackendError, ConnectionError, TimeoutError)


class Cursor:
    """Executes statements and pages through result rows.

    Results stream from the executor: ``fetchone``/``fetchmany`` pull
    rows on demand.  ``rowcount`` is exact once the stream is exhausted
    (or when read, which drains the remainder into the buffer).
    """

    arraysize = 1

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        self.description: Optional[List[Tuple]] = None
        self.last_plan = None
        #: True when the last statement's plan came from the plan cache
        self.cache_hit = False
        #: server-side id of the executing statement (for ``kill``)
        self.statement_id: Optional[int] = None
        self._closed = False
        self._stream: Optional[Iterator[tuple]] = None
        self._slot: Optional[AdmissionSlot] = None
        self._context = None              # ExecutionContext of the statement
        self._pending: List[tuple] = []   # pulled but not yet dispensed
        self._pending_pos = 0
        self._dispensed = 0               # rows already handed out
        self._rowcount = -1               # exact total once known

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = (),
                timeout: Any = _UNSET) -> "Cursor":
        """Execute ``sql``; ``timeout`` (seconds) overrides the
        configured per-statement deadline for this statement only."""
        self._check_open()
        prepared, hit = self.connection._prepare(sql)
        self._start(prepared, parameters, cache_hit=hit, timeout=timeout)
        return self

    def executemany(self, sql: str, seq_of_parameters) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(sql, parameters)
        return self

    def _start(self, prepared: PreparedPlan, parameters: Sequence[Any],
               cache_hit: bool, timeout: Any = _UNSET) -> None:
        """Bind a prepared plan and begin streaming (admission-gated)."""
        self._finish()
        self._pending = []
        self._pending_pos = 0
        self._dispensed = 0
        self._rowcount = -1
        slot = self.connection._server.admit()
        try:
            running = self.connection._planner.bind(prepared, parameters,
                                                    timeout=timeout)
        except BaseException:
            slot.release()
            raise
        self._slot = slot
        self._context = running.context
        slot.context = running.context
        self.statement_id = self.connection._server._register_statement(
            running.context)
        self._stream = running.rows
        self.cache_hit = cache_hit
        self.last_plan = prepared.plan
        self.description = [
            (name, None, None, None, None, None, None)
            for name in prepared.columns]

    def cancel(self) -> None:
        """Cancel the executing statement (thread-safe, idempotent).

        Every scan and scheduler poll loop watches the statement's
        cancellation flag, so worker threads wind down promptly; the
        next fetch on this cursor raises :class:`OperationalError`
        (from :class:`repro.errors.StatementCancelled`).
        """
        ctx = self._context
        if ctx is not None:
            ctx.cancel()

    # -- fetching -------------------------------------------------------------

    def _end_of_stream(self) -> None:
        self._rowcount = self._dispensed + (len(self._pending)
                                            - self._pending_pos)
        self._finish()

    @property
    def rowcount(self) -> int:
        """Total rows of the current result set.

        Exact once the stream has been drained; *reading it earlier
        drains the remainder into the cursor's buffer* (rows stay
        fetchable).  -1 when no statement has produced a result set.
        """
        if self._rowcount < 0 and self._stream is not None:
            ctx = self._context
            rows = self._take(None)
            self._pending.extend(rows)
            self._note_emitted(ctx, len(rows))
            self._end_of_stream()
        return self._rowcount

    def _take(self, want: Optional[int]) -> List[tuple]:
        """Up to ``want`` rows (all if None) from the live stream, in
        one ``islice`` rather than one call per row; executor errors
        map to the DB-API hierarchy."""
        try:
            return list(itertools.islice(self._stream, want))
        except Error:
            self._finish()
            raise
        except _OPERATIONAL_SHAPES as exc:
            self._finish()
            raise OperationalError(str(exc)) from exc
        except Exception as exc:
            self._finish()
            raise ProgrammingError(str(exc)) from exc

    def _note_emitted(self, ctx, n: int) -> None:
        """``n`` rows left the statement's root: counted per page, on
        the statement's context and in the server's totals."""
        if n > 0:
            ctx.rows_emitted += n
            self.connection._server._note_rows_emitted(n)

    def _page(self, limit: Optional[int]) -> List[tuple]:
        """Up to ``limit`` rows (all of them if None): first from the
        ``rowcount`` buffer, whose rows were counted as emitted when
        they were drained into it, then from the live stream."""
        if limit is not None:
            limit = max(limit, 0)
        start = self._pending_pos
        end = None if limit is None else start + limit
        out = self._pending[start:end]
        self._pending_pos += len(out)
        self._dispensed += len(out)
        want = None if limit is None else limit - len(out)
        if self._stream is not None and want != 0:
            ctx = self._context
            rows = self._take(want)
            self._dispensed += len(rows)
            self._note_emitted(ctx, len(rows))
            if want is None or len(rows) < want:
                self._end_of_stream()
            out += rows
        return out

    def fetchone(self) -> Optional[tuple]:
        page = self._page(1)
        return page[0] if page else None

    def fetchmany(self, size: Optional[int] = None) -> List[tuple]:
        return self._page(self.arraysize if size is None else size)

    def fetchall(self) -> List[tuple]:
        return self._page(None)

    def __iter__(self):
        return iter(self.fetchone, None)

    # -- lifecycle ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("cursor is closed")
        if self.connection._closed:
            raise ProgrammingError("connection is closed")

    def _finish(self) -> None:
        """Stop the stream (cancelling any parallel workers below it)
        and release the admission slot.

        Teardown order matters for the no-leak guarantees: set the
        statement's cancellation flag first so every worker thread
        winds down, then close the stream (whose finaliser joins the
        parallel region, bounded), and release the admission slot
        *unconditionally* — a failure while closing must never strand
        the slot."""
        stream, self._stream = self._stream, None
        ctx, self._context = self._context, None
        statement_id, self.statement_id = self.statement_id, None
        if ctx is not None:
            # Not a user cancel: just stop any workers still producing.
            ctx.cancel_event.set()
        try:
            if stream is not None:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
        except Exception:
            pass  # teardown must not mask the caller's exception
        finally:
            slot, self._slot = self._slot, None
            if slot is not None:
                slot.release()
            if statement_id is not None:
                self.connection._server._finish_statement(statement_id, ctx)

    def close(self) -> None:
        self._finish()
        self._pending = []
        self._pending_pos = 0
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self._finish()
        except Exception:
            pass


class PreparedStatement:
    """A statement prepared once and executed many times.

    Holds on to its :class:`~repro.framework.PreparedPlan` so repeat
    executions skip even the cache lookup; the plan is re-prepared
    (through the cache) only when the catalog version moves or a view
    or tile the plan reads goes stale.
    """

    def __init__(self, connection: "Connection", sql: str) -> None:
        self.connection = connection
        self.sql = sql
        self._closed = False
        self._prepared, self._initial_hit = connection._prepare(sql)
        self._version = connection._planner.catalog.version
        self._executions = 0

    @property
    def parameter_count(self) -> int:
        """Number of ``?`` placeholders in the statement."""
        return self._prepared.parameter_count

    @property
    def plan(self):
        return self._prepared.plan

    def execute(self, parameters: Sequence[Any] = ()) -> Cursor:
        """Bind ``parameters`` and execute, returning a fresh cursor."""
        if self._closed:
            raise ProgrammingError("prepared statement is closed")
        if self.connection._closed:
            raise ProgrammingError("connection is closed")
        if len(parameters) != self.parameter_count:
            raise ProgrammingError(
                f"statement takes {self.parameter_count} parameter(s), "
                f"got {len(parameters)}")
        version = self.connection._planner.catalog.version
        prepared = self._prepared
        if version != self._version or (prepared.views
                                         and prepared.is_stale()):
            # Catalog changed under us, or a view the plan reads fell
            # behind its tables: re-prepare through the plan cache.
            self._prepared, self._initial_hit = \
                self.connection._prepare(self.sql)
            self._version = version
            self._executions = 0
        reused = self._executions > 0 or self._initial_hit
        if self._executions > 0:
            # The pinned plan stands in for a cache lookup that would
            # have hit; the first execution's lookup was ``prepare``'s.
            cache = self.connection._planner.plan_cache
            if cache is not None:
                cache.note_reuse()
        self._executions += 1
        cursor = self.connection.cursor()
        cursor._start(self._prepared, parameters, cache_hit=reused)
        return cursor

    def executemany(self, seq_of_parameters) -> Cursor:
        cursor = None
        for parameters in seq_of_parameters:
            cursor = self.execute(parameters)
        if cursor is None:
            raise ProgrammingError("executemany with no parameter sets")
        return cursor

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Connection:
    """A connection bound to one tenant catalog of a query server."""

    def __init__(self, catalog: Catalog,
                 _server: Optional[QueryServer] = None,
                 _tenant: str = "default",
                 **planner_options: Any) -> None:
        self.catalog = catalog
        self.tenant = _tenant
        if _server is None:
            # Standalone DB-API use: a private single-tenant server.
            _server = QueryServer()
            _server.register_catalog(_tenant, catalog)
        self._server = _server
        config = FrameworkConfig(catalog, **planner_options)
        if config.plan_cache and _server.plan_cache is not None:
            shared_cache = _server.plan_cache
        else:
            shared_cache = None
            if planner_options.get("plan_cache") is not True:
                # The server runs cacheless: don't silently grow a
                # private per-connection cache (explicit plan_cache=True
                # opt-in still gets one).
                config.plan_cache = False
        # Breakers are shared server-wide (like the plan cache): a
        # backend that trips open fails fast for every connection.
        self._planner = Planner(config, plan_cache=shared_cache,
                                breakers=_server.breakers)
        self._closed = False
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

    # -- statement entry points ----------------------------------------------

    def cursor(self) -> Cursor:
        if self._closed:
            raise ProgrammingError("connection is closed")
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> Cursor:
        return self.cursor().execute(sql, parameters)

    def prepare(self, sql: str) -> PreparedStatement:
        """JDBC-style ``prepareStatement``: plan now, execute many."""
        if self._closed:
            raise ProgrammingError("connection is closed")
        return PreparedStatement(self, sql)

    def _prepare(self, sql: str) -> Tuple[PreparedPlan, bool]:
        """Plan (or fetch from the cache), mapping errors to DB-API."""
        try:
            return self._planner._prepare(sql)
        except Error:
            raise
        except Exception as exc:
            raise ProgrammingError(str(exc)) from exc

    # -- observability --------------------------------------------------------

    @property
    def server(self) -> QueryServer:
        return self._server

    def plan_cache_stats(self) -> Optional[dict]:
        cache = self._planner.plan_cache
        return cache.stats.snapshot() if cache is not None else None

    # -- transactions (storage is non-transactional, as in Calcite) -----------

    def commit(self) -> None:
        """No transactional storage: commit is a no-op, as in Calcite."""

    def rollback(self) -> None:
        raise ProgrammingError("rollback is not supported")

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for cursor in list(self._cursors):
            cursor.close()
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(catalog: Catalog,
            max_concurrent_statements: Optional[int] = None,
            admission_timeout: float = 5.0,
            plan_cache_size: Optional[int] = None,
            **planner_options: Any) -> Connection:
    """Open a connection over a catalog of adapter schemas.

    Convenience wrapper creating a private single-tenant
    :class:`QueryServer`; use the server directly for multi-tenant
    serving or to share a plan cache and admission limits across
    connections.
    """
    server_kwargs: dict = {
        "max_concurrent_statements": max_concurrent_statements,
        "admission_timeout": admission_timeout,
    }
    if plan_cache_size is not None:
        server_kwargs["plan_cache_size"] = plan_cache_size
    server = QueryServer(**server_kwargs)
    server.register_catalog("default", catalog)
    return server.connect("default", **planner_options)
