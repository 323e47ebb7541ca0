"""Physical execution of operator trees over iterators (Section 5).

"Relational operators with the enumerable calling convention simply
operate over tuples via an iterator interface.  This calling convention
allows Calcite to implement operators which may not be available in
each adapter's backend.  For example, the EnumerableJoin operator
implements joins by collecting rows from its child nodes and joining on
the desired attributes."

:func:`execute` runs any operator tree: adapter-specific physical
nodes provide ``execute_rows``; everything else falls back to the
built-in enumerable implementations here.  Rows are Python tuples.

Row expressions are not interpreted per row: each operator binds the
compiled closures of its expressions (:func:`repro.core.rex_eval.compile`,
memoised on the plan's rex nodes) once per execution and calls them in
its row loop.  Correlated subqueries and :class:`Correlate` re-execute
the *same* inner plan per outer row, handing it the outer row through
:attr:`ExecutionContext.correlations`, so the inner plan's closures are
compiled once too.
"""

from __future__ import annotations

import threading as _threading
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.rel import (
    Aggregate,
    Converter,
    Correlate,
    Delta,
    Filter,
    Intersect,
    Join,
    JoinRelType,
    Minus,
    Project,
    RelNode,
    Sort,
    TableScan,
    Union,
    Values,
    Window,
)
from ..core.rex import (
    RexCorrelVariable,
    RexNode,
    RexSubQuery,
    SqlKind,
)
from ..core.rex_eval import (
    EvalContext,
    RexExecutionError,
    bind_projection,
    compile as compile_rex,
    tuple_getter,
)
from ..errors import Deadline, DeadlineExceeded, StatementCancelled


class ExecutionContext:
    """Runtime state: statement parameters, the statement's deadline
    and cancellation flag, resilience configuration, and execution
    statistics (including the resilience counters)."""

    def __init__(self, parameters: Sequence[Any] = (),
                 deadline: Optional[Deadline] = None,
                 resilience: Any = None,
                 batch_size: Optional[int] = None,
                 workers: str = "thread") -> None:
        self.parameters = list(parameters)
        self.rows_scanned = 0
        self.rows_emitted = 0
        #: rows that crossed an exchange edge in a parallel plan —
        #: partition-pushdown scans elide exchanges, so this is the
        #: federated benchmark's shuffle-volume metric
        self.rows_shuffled = 0
        #: vectorized batch size for this statement (None: engine
        #: default); resolved by ``VectorizedRel.execute_batches``
        self.batch_size = batch_size
        #: worker backend for exchange edges: ``"thread"`` (in-process
        #: worker pool) or ``"process"`` (forked workers exchanging
        #: wire-encoded batches over pipes)
        self.workers = workers
        #: the statement's time budget (None: unbounded); checked by
        #: scan iterators and the parallel scheduler's poll loops
        self.deadline = deadline
        #: set to stop the statement: every scan and scheduler poll
        #: loop watches it, so workers never outlive a cancel
        self.cancel_event = _threading.Event()
        #: True when the *user* (cursor/server kill) cancelled, as
        #: opposed to teardown setting the event during normal close
        self.user_cancelled = False
        #: per-statement :class:`~repro.adapters.resilience.ResilienceContext`
        #: (retry policy + breaker registry); None disables retries
        self.resilience = resilience
        #: resilience counters (see :meth:`resilience_snapshot`)
        self.retries = 0
        self.deadline_misses = 0
        self.breaker_trips = 0
        self.breaker_rejections = 0
        self.shard_fallbacks = 0
        self.worker_leaks = 0
        #: process workers forked for this statement (process backend)
        self.processes_spawned = 0
        #: worker processes that died before end-of-stream
        self.worker_crashes = 0
        self._deadline_noted = False
        self._shuffle_lock = _threading.Lock()
        self._scope = _threading.local()

    def add_shuffled(self, n: int) -> None:
        """Thread-safe: exchange producers run on worker threads."""
        with self._shuffle_lock:
            self.rows_shuffled += n

    # -- cancellation + deadline ---------------------------------------------

    def cancel(self) -> None:
        """Cancel the statement: scans and scheduler loops raise
        :class:`~repro.errors.StatementCancelled` at their next check
        and every worker thread winds down."""
        self.user_cancelled = True
        self.cancel_event.set()

    def checkpoint(self) -> None:
        """Raise the applicable control error if the statement must
        stop — called from scan iterators, retry backoff sleeps and
        the scheduler's queue poll loops."""
        if self.user_cancelled:
            raise StatementCancelled("statement cancelled")
        d = self.deadline
        if d is not None and d.expired():
            self.note_deadline_miss()
            raise DeadlineExceeded(
                f"statement deadline of {d.timeout:.3f}s exceeded")

    # -- resilience counters (thread-safe: workers report in) -----------------

    def note_retry(self) -> None:
        with self._shuffle_lock:
            self.retries += 1

    def note_deadline_miss(self) -> None:
        """Counted once per statement, however many checks observe it."""
        with self._shuffle_lock:
            if not self._deadline_noted:
                self._deadline_noted = True
                self.deadline_misses += 1

    def note_breaker_trip(self) -> None:
        with self._shuffle_lock:
            self.breaker_trips += 1

    def note_breaker_rejection(self) -> None:
        with self._shuffle_lock:
            self.breaker_rejections += 1

    def note_shard_fallback(self) -> None:
        with self._shuffle_lock:
            self.shard_fallbacks += 1

    def note_worker_leak(self, n: int) -> None:
        with self._shuffle_lock:
            self.worker_leaks += n

    def note_worker_crash(self) -> None:
        with self._shuffle_lock:
            self.worker_crashes += 1

    def note_processes_spawned(self, n: int) -> None:
        with self._shuffle_lock:
            self.processes_spawned += n

    # -- cross-process stat folding -------------------------------------------

    _CHILD_STAT_KEYS = ("rows_scanned", "rows_shuffled", "retries",
                        "breaker_trips", "shard_fallbacks",
                        "worker_crashes", "processes_spawned")

    def child_stats(self) -> Dict[str, Any]:
        """What a worker process ships home in its STATS frame: the
        counters that accumulate additively across processes, and its
        breaker registry's journal of outcomes."""
        with self._shuffle_lock:
            stats: Dict[str, Any] = {
                k: getattr(self, k) for k in self._CHILD_STAT_KEYS}
        breakers = self.resilience.breakers if self.resilience else None
        if breakers is not None and breakers.journal:
            stats["breaker_outcomes"] = list(breakers.journal)
        return stats

    def merge_child_stats(self, stats: Dict[str, Any]) -> None:
        """Fold a worker process's :meth:`child_stats` into this
        (parent) context — called by the consumer draining its pipe —
        and replay its breaker outcomes into this context's registry."""
        with self._shuffle_lock:
            for key in self._CHILD_STAT_KEYS:
                n = stats.get(key, 0)
                if n:
                    setattr(self, key, getattr(self, key) + n)
        outcomes = stats.get("breaker_outcomes")
        breakers = self.resilience.breakers if self.resilience else None
        if outcomes and breakers is not None:
            breakers.replay(outcomes)

    def resilience_snapshot(self) -> Dict[str, int]:
        """The statement's resilience counters, for server stats."""
        with self._shuffle_lock:
            return {
                "retries": self.retries,
                "deadline_misses": self.deadline_misses,
                "breaker_trips": self.breaker_trips,
                "breaker_rejections": self.breaker_rejections,
                "shard_fallbacks": self.shard_fallbacks,
                "worker_leaks": self.worker_leaks,
                "worker_crashes": self.worker_crashes,
                "cancelled": 1 if self.user_cancelled else 0,
            }

    @property
    def correlations(self) -> Dict[str, tuple]:
        """Correlation variable name -> the outer row it stands for, as
        bound by the enclosing subquery/:class:`Correlate` executions.

        Bindings are published as fresh dicts, never mutated, and kept
        per thread: an operator's generator is driven by one thread, and
        parallel workers evaluating the same subquery-bearing filter
        must not see each other's outer rows.
        """
        return getattr(self._scope, "correlations", None) or {}

    @correlations.setter
    def correlations(self, bindings: Dict[str, tuple]) -> None:
        self._scope.correlations = bindings

    def eval_context(self) -> EvalContext:
        """Bindings for compiled expressions; an operator takes one when
        its row loop starts, inside the scope that executes it."""
        return EvalContext(self.parameters, self.correlations,
                           self._run_subquery)

    def _run_subquery(self, subquery: RexSubQuery, row: tuple,
                      eval_ctx: EvalContext) -> Any:
        # Every correlation variable of the subquery stands for the row
        # currently being evaluated (one level of correlation).
        outer = self.correlations
        self.correlations = {**outer,
                             **dict.fromkeys(_correlation_names(subquery), row)}
        try:
            rows = list(execute(subquery.rel, self))
        finally:
            self.correlations = outer
        if subquery.kind is SqlKind.EXISTS:
            return bool(rows)
        if subquery.kind is SqlKind.IN:
            values = bind_projection(subquery.operands, eval_ctx)(row)
            if any(v is None for v in values):
                return None
            flat = values[0] if len(values) == 1 else values
            saw_null = False
            for r in rows:
                candidate = r[0] if len(r) == 1 else r
                if candidate is None:
                    saw_null = True
                elif candidate == flat:
                    return True
            return None if saw_null else False
        # scalar subquery
        if not rows:
            return None
        if len(rows) > 1:
            raise RexExecutionError("scalar subquery returned more than one row")
        return rows[0][0]


def execute(rel: RelNode, context: Optional[ExecutionContext] = None) -> Iterator[tuple]:
    """Execute an operator tree, yielding result rows as tuples."""
    if context is None:
        context = ExecutionContext()
    return _execute(rel, context)


def execute_to_list(rel: RelNode, context: Optional[ExecutionContext] = None) -> List[tuple]:
    return list(execute(rel, context))


def _execute(rel: RelNode, ctx: ExecutionContext) -> Iterator[tuple]:
    # Adapter-provided physical operators execute themselves.
    runner = getattr(rel, "execute_rows", None)
    if runner is not None:
        return iter(runner(ctx))
    if isinstance(rel, TableScan):
        return _scan(rel, ctx)
    if isinstance(rel, Filter):
        return _filter(rel, ctx)
    if isinstance(rel, Project):
        return _project(rel, ctx)
    if isinstance(rel, Join):
        return _join(rel, ctx)
    if isinstance(rel, Correlate):
        return _correlate(rel, ctx)
    if isinstance(rel, Aggregate):
        return _aggregate(rel, ctx)
    if isinstance(rel, Sort):
        return _sort(rel, ctx)
    if isinstance(rel, Union):
        return _union(rel, ctx)
    if isinstance(rel, Intersect):
        return _intersect(rel, ctx)
    if isinstance(rel, Minus):
        return _minus(rel, ctx)
    if isinstance(rel, Values):
        return iter([tuple(lit.value for lit in row) for row in rel.tuples])
    if isinstance(rel, Window):
        return _window(rel, ctx)
    if isinstance(rel, (Converter, Delta)):
        return _execute(rel.input, ctx)
    # Volcano subsets reaching execution indicate an unextracted plan.
    raise TypeError(f"cannot execute {rel.rel_name}")


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------

def _scan(rel: TableScan, ctx: ExecutionContext) -> Iterator[tuple]:
    source = rel.table.source
    if source is None:
        raise ValueError(f"table {rel.table.name} has no backing source")
    from ..adapters.resilience import resilient_rows
    lookup = getattr(rel, "lookup", None)
    if lookup is None:
        return resilient_rows(ctx, source, source.scan)
    # A keyed scan: the literal, or this execution's binding of ``?``.
    column = lookup.column
    value = compile_rex(lookup.value)((), ctx.eval_context())
    return resilient_rows(ctx, source, lambda: source.lookup(column, value))


def _filter(rel: Filter, ctx: ExecutionContext) -> Iterator[tuple]:
    eval_ctx = ctx.eval_context()
    condition = compile_rex(rel.condition)
    for row in _execute(rel.input, ctx):
        if condition(row, eval_ctx) is True:
            yield row


def _project(rel: Project, ctx: ExecutionContext) -> Iterator[tuple]:
    project = bind_projection(rel.projects, ctx.eval_context())
    yield from map(project, _execute(rel.input, ctx))


def _join(rel: Join, ctx: ExecutionContext) -> Iterator[tuple]:
    info = rel.analyze_condition()
    if info.left_keys and not info.non_equi:
        return _hash_join(rel, info.left_keys, info.right_keys, ctx)
    if info.left_keys:
        return _hash_join(rel, info.left_keys, info.right_keys, ctx,
                          residual=rel.condition)
    return _nested_loop_join(rel, ctx)


def _hash_join(rel: Join, left_keys: List[int], right_keys: List[int],
               ctx: ExecutionContext,
               residual: Optional[RexNode] = None) -> Iterator[tuple]:
    eval_ctx = ctx.eval_context()
    left_key = tuple_getter(left_keys)
    right_key = tuple_getter(right_keys)
    residual_fn = compile_rex(residual) if residual is not None else None
    index: Dict[tuple, List[tuple]] = {}
    right_rows_matched: set = set()
    right_rows: List[tuple] = []
    for r in _execute(rel.right, ctx):
        right_rows.append(r)
        key = right_key(r)
        if None in key:
            continue  # NULL keys never match
        index.setdefault(key, []).append(r)

    join_type = rel.join_type
    n_right = rel.right.row_type.field_count
    null_right = (None,) * n_right

    for l in _execute(rel.left, ctx):
        key = left_key(l)
        matches = [] if None in key else index.get(key, [])
        if residual_fn is not None:
            matches = [r for r in matches
                       if residual_fn(l + r, eval_ctx) is True]
        if join_type is JoinRelType.SEMI:
            if matches:
                yield l
            continue
        if join_type is JoinRelType.ANTI:
            if not matches:
                yield l
            continue
        if matches:
            for r in matches:
                if join_type in (JoinRelType.RIGHT, JoinRelType.FULL):
                    right_rows_matched.add(id(r))
                yield l + r
        elif join_type in (JoinRelType.LEFT, JoinRelType.FULL):
            yield l + null_right
    if join_type in (JoinRelType.RIGHT, JoinRelType.FULL):
        n_left = rel.left.row_type.field_count
        null_left = (None,) * n_left
        for r in right_rows:
            if id(r) not in right_rows_matched:
                yield null_left + r


def _nested_loop_join(rel: Join, ctx: ExecutionContext) -> Iterator[tuple]:
    eval_ctx = ctx.eval_context()
    condition = compile_rex(rel.condition)
    right_rows = list(_execute(rel.right, ctx))
    join_type = rel.join_type
    n_right = rel.right.row_type.field_count
    n_left = rel.left.row_type.field_count
    null_right = (None,) * n_right
    right_matched = [False] * len(right_rows)
    for l in _execute(rel.left, ctx):
        matched = False
        for idx, r in enumerate(right_rows):
            if condition(l + r, eval_ctx) is True:
                matched = True
                right_matched[idx] = True
                if join_type is JoinRelType.SEMI:
                    break
                if join_type is not JoinRelType.ANTI:
                    yield l + r
        if join_type is JoinRelType.SEMI and matched:
            yield l
        elif join_type is JoinRelType.ANTI and not matched:
            yield l
        elif not matched and join_type in (JoinRelType.LEFT, JoinRelType.FULL):
            yield l + null_right
    if join_type in (JoinRelType.RIGHT, JoinRelType.FULL):
        null_left = (None,) * n_left
        for idx, r in enumerate(right_rows):
            if not right_matched[idx]:
                yield null_left + r


def _correlate(rel: Correlate, ctx: ExecutionContext) -> Iterator[tuple]:
    n_right = rel.right.row_type.field_count
    null_right = (None,) * n_right
    outer = ctx.correlations

    for l in _execute(rel.left, ctx):
        # Re-execute the right side with the correlation bound: its
        # operators take their eval context as they start, inside this
        # binding.  An abandoned or failed run leaves the binding set,
        # which only adds a name nothing outside the right side reads.
        ctx.correlations = {**outer, rel.correlation_id: l}
        matched = False
        for r in _execute(rel.right, ctx):
            matched = True
            if not rel.join_type.projects_right:
                break  # SEMI/ANTI only ask whether a match exists
            yield l + r
        ctx.correlations = outer
        if matched:
            if rel.join_type is JoinRelType.SEMI:
                yield l
        elif rel.join_type is JoinRelType.LEFT:
            yield l + null_right
        elif rel.join_type is JoinRelType.ANTI:
            yield l


def _correlation_names(subquery: RexSubQuery) -> Tuple[str, ...]:
    """Names of the correlation variables a subquery's own operators
    reference (nested subqueries bind theirs when they run); computed
    once per subquery node."""
    names = getattr(subquery, "_correlation_names", None)
    if names is None:
        found: Dict[str, None] = {}

        def scan(node: RexNode) -> None:
            if isinstance(node, RexCorrelVariable):
                found[node.name] = None
            for o in node.operands:
                scan(o)

        def walk(rel: RelNode) -> None:
            if isinstance(rel, (Filter, Join)):
                scan(rel.condition)
            elif isinstance(rel, Project):
                for p in rel.projects:
                    scan(p)
            for i in rel.inputs:
                walk(i)

        walk(subquery.rel)
        names = subquery._correlation_names = tuple(found)
    return names


# -- aggregation --------------------------------------------------------------

def _aggregate(rel: Aggregate, ctx: ExecutionContext) -> Iterator[tuple]:
    yield from aggregate_rows(rel, list(_execute(rel.input, ctx)))


def aggregate_rows(rel: Aggregate, rows: List[tuple]) -> List[tuple]:
    """The aggregate (:mod:`.vectorized.aggregate`) over ``rows`` as list
    columns."""
    from .vectorized.aggregate import aggregate_columns
    columns = (list(map(list, zip(*rows))) if rows else
               [[] for _ in range(rel.input.row_type.field_count)])
    out, n_groups = aggregate_columns(columns, len(rows), rel.group_set,
                                      rel.agg_calls)
    return list(zip(*out)) if out else [()] * n_groups


def _sort(rel: Sort, ctx: ExecutionContext) -> Iterator[tuple]:
    rows = list(_execute(rel.input, ctx))
    rows = sort_rows(rows, rel.collation)
    if rel.offset:
        rows = rows[rel.offset:]
    if rel.fetch is not None:
        rows = rows[: rel.fetch]
    return iter(rows)


class _NullsKey:
    """Ordering wrapper placing NULLs according to the collation."""

    __slots__ = ("value", "nulls_big")

    def __init__(self, value: Any, nulls_big: bool) -> None:
        self.value = value
        self.nulls_big = nulls_big

    def __lt__(self, other: "_NullsKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.nulls_big
        if b is None:
            return self.nulls_big
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsKey) and self.value == other.value


def sort_rows(rows: List[tuple], collation) -> List[tuple]:
    """Stable multi-key sort honouring direction and null placement."""
    for fc in reversed(collation.field_collations):
        # NULLS LAST ascending / NULLS FIRST descending ⇔ NULL is "big"
        nulls_big = fc.descending == fc.nulls_first
        rows = sorted(
            rows,
            key=lambda r: _NullsKey(r[fc.field_index], nulls_big),
            reverse=fc.descending,
        )
    return rows


class _DescKey:
    """Inverts the ordering of a wrapped key (for DESC fields in a
    composite sort key)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def __lt__(self, other: "_DescKey") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescKey) and self.inner == other.inner


def row_sort_key(collation) -> Callable[[tuple], tuple]:
    """A single composite key function equivalent to :func:`sort_rows`.

    ``sorted(rows, key=row_sort_key(c))`` produces exactly the rows of
    ``sort_rows(rows, c)`` (both are stable), which makes the key usable
    with bounded top-N selection (``heapq.nsmallest``) and with ordered
    k-way merges of pre-sorted partition streams (``heapq.merge``).
    """
    parts = []
    for fc in collation.field_collations:
        nulls_big = fc.descending == fc.nulls_first
        parts.append((fc.field_index, nulls_big, fc.descending))

    def key(row: tuple) -> tuple:
        out = []
        for index, nulls_big, descending in parts:
            k: Any = _NullsKey(row[index], nulls_big)
            if descending:
                k = _DescKey(k)
            out.append(k)
        return tuple(out)

    return key


def _union(rel: Union, ctx: ExecutionContext) -> Iterator[tuple]:
    if rel.all:
        for i in rel.inputs:
            yield from _execute(i, ctx)
        return
    seen = set()
    for i in rel.inputs:
        for row in _execute(i, ctx):
            if row not in seen:
                seen.add(row)
                yield row


def _intersect(rel: Intersect, ctx: ExecutionContext) -> Iterator[tuple]:
    """Rows of the first input in every other input, in first-input
    order: ALL keeps each row as often as its fewest copies in any
    input, DISTINCT once."""
    others = [Counter(_execute(i, ctx)) for i in rel.inputs[1:]]
    for row in _execute(rel.inputs[0], ctx):
        if all(copies[row] > 0 for copies in others):
            for copies in others:
                copies[row] = copies[row] - 1 if rel.all else 0
            yield row


def _minus(rel: Minus, ctx: ExecutionContext) -> Iterator[tuple]:
    """Rows of the first input in no other input, in first-input order:
    ALL keeps each row as often as its copies there outnumber its
    copies in the others, DISTINCT once."""
    exclude: Counter = Counter()
    for i in rel.inputs[1:]:
        exclude.update(_execute(i, ctx))
    for row in _execute(rel.inputs[0], ctx):
        if exclude[row] > 0:
            if rel.all:
                exclude[row] -= 1
            continue
        if not rel.all:
            exclude[row] = 1  # a later copy is excluded
        yield row


# -- window evaluation (Section 4's window operator) --------------------------

def _window(rel: Window, ctx: ExecutionContext) -> Iterator[tuple]:
    """The window kernels (:mod:`.vectorized.window`) over the input's
    rows as list columns."""
    from .vectorized.expr import Frame
    from .vectorized.window import eval_over_column
    rows = list(_execute(rel.input, ctx))
    if not rows:
        return
    eval_ctx = ctx.eval_context()
    frame = Frame([list(c) for c in zip(*rows)], len(rows), eval_ctx)
    extra = [eval_over_column(over, frame, eval_ctx)
             for over in rel.window_exprs]
    yield from map(tuple.__add__, rows, zip(*extra))
