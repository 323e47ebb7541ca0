"""The framework facade: Figure 1's architecture wired together.

:class:`FrameworkConfig` + :class:`Planner` mirror Calcite's
``Frameworks``/``Planner`` entry points: parse → validate/convert →
(multi-stage) optimize → execute.  Systems that bring their own parser
skip straight to :meth:`Planner.optimize` with an operator tree built
via :class:`repro.core.builder.RelBuilder`.

Optimization is one program, :attr:`Planner.phases`: named ``rel ->
rel`` phases (``hep``, ``materializations``, ``volcano``, then ``trim``
and ``exchanges`` where the engine needs them) built once per planner
from its config.  Everything that plans goes through it: SQL
statements, materialized-view and lattice-tile builds, and STREAM
statements, which then run through :meth:`Planner.bind` with the
statement's deadline, cancellation and retry policy.

Two built-in execution engines are available, selected by
``FrameworkConfig(engine=...)``:

* ``engine="row"`` (the default) — the enumerable convention of
  Section 5: operators pull tuples through iterators, and row
  expressions are compiled once per plan into closures called per row.
* ``engine="vectorized"`` — the batch/columnar convention
  (:mod:`repro.runtime.vectorized`): operators stream
  ``ColumnBatch`` values (typed columns plus a selection vector), and
  row expressions are compiled once and evaluated over whole columns.

The switch only changes the *required trait* handed to the Volcano
planner and the converter rules registered with it; everything above
(parsing, logical rewriting, materialized views, adapter pushdown) is
shared.  Each engine plans with its own converter rules only: rows
enter a vectorized plan at adapter leaves, through the row→batch
bridge (``RowToBatch``), and a
vectorized plan root is executed through the same
:func:`repro.runtime.operators.execute` entry point (every vectorized
operator exposes ``execute_rows``), so :class:`Result` is
engine-agnostic.

``FrameworkConfig(engine="vectorized", parallelism=N)`` with N > 1
additionally requires a ``SINGLETON`` distribution at the plan root:
the Volcano planner enforces it with a gather exchange, the
exchange-insertion rules (:mod:`repro.runtime.vectorized.parallel_rules`)
place hash/broadcast/random exchanges wherever an operator requires a
distribution its input does not already satisfy, and the worker-pool
scheduler (:mod:`repro.runtime.vectorized.parallel`) shards
``ColumnBatch`` streams across N workers.  ``parallelism=1`` is
exactly the serial vectorized path, plan and all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .core.hep import HepMatchOrder, HepPlanner, HepProgram
from .core.metadata import MetadataProvider, RelMetadataQuery
from .core.rel import RelNode, scanned_sources
from .core.rule import RelOptRule
from .core.rules import (
    join_reorder_rules,
    prune_empty_rules,
    reduce_expression_rules,
    standard_logical_rules,
)
from .adapters.pushdown import PushRule
from .adapters.resilience import BreakerRegistry, ResilienceContext, RetryPolicy
from .core.traits import Convention, RelCollation, RelDistribution, RelTraitSet
from .core.volcano import CannotPlanError, VolcanoPlanner
from .errors import Deadline
from .runtime.nodes import EnumerableKeyLookupRule, enumerable_rules
from .runtime.operators import ExecutionContext, execute
from .runtime.vectorized import vectorized_rules
from .runtime.vectorized.batch import DEFAULT_BATCH_SIZE
from .runtime.vectorized.parallel_rules import (
    DEFAULT_BROADCAST_THRESHOLD, insert_exchanges)
from .runtime.vectorized.trim import trim_fields
from .schema.core import Catalog
from .sql.parser import parse
from .sql.to_rel import SqlToRelConverter

#: sentinel distinguishing "no per-call timeout given" from an
#: explicit ``timeout=None`` (which means "unbounded, override config")
_UNSET = object()


@dataclass
class FrameworkConfig:
    """Configuration for a planning session."""

    catalog: Catalog
    #: execution engine: "row" (enumerable iterators) or "vectorized"
    #: (batch/columnar with compiled expressions)
    engine: str = "row"
    #: number of workers for the vectorized engine.  With N > 1 the
    #: planner enforces distribution traits with exchange operators
    #: (hash/broadcast/random/gather) and the runtime shards
    #: ``ColumnBatch`` streams across N workers; 1 is today's serial
    #: path, plan and all.
    parallelism: int = 1
    #: worker backend for the parallel scheduler's exchange edges:
    #: ``"thread"`` (in-process worker pool — partitioned semantics
    #: everywhere, true core scaling only on GIL-free builds),
    #: ``"process"`` (forked worker processes exchanging wire-encoded
    #: ``ColumnBatch`` frames over pipes — true multicore on the
    #: standard GIL-enabled CPython; requires the ``fork`` start
    #: method, silently degrading to threads without it), or
    #: ``"auto"`` (pick ``"process"`` when ``parallelism > 1`` on a
    #: GIL-enabled build with fork available, ``"thread"`` otherwise).
    #: Folded into the planning fingerprint via the resolved value.
    workers: str = "thread"
    #: rows per ``ColumnBatch`` in the vectorized engine.  Larger
    #: batches amortise per-batch dispatch (and per-frame wire
    #: overhead on process-backed edges); smaller ones keep working
    #: sets cache-friendly and pipelines responsive.  Carried on the
    #: :class:`~repro.runtime.operators.ExecutionContext` and folded
    #: into the planning fingerprint so cached plans never mix batch
    #: shapes.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: join build sides at or below this estimated row count are
    #: broadcast instead of hash-partitioning both inputs
    broadcast_join_threshold: float = DEFAULT_BROADCAST_THRESHOLD
    #: let backends whose :class:`~repro.adapters.capability.ScanCapabilities`
    #: declare ``supports_partitioned_scan`` serve parallel shards
    #: directly, eliding the exchange that would otherwise re-shard a
    #: gathered serial scan.  False forces gather-then-shard plans
    #: (the federated benchmark's baseline).
    partitioned_scans: bool = True
    #: extra rules (beyond the standard set and adapter-contributed ones)
    rules: List[RelOptRule] = field(default_factory=list)
    #: extra metadata providers, consulted before the defaults
    metadata_providers: List[MetadataProvider] = field(default_factory=list)
    #: enable the cost-based join-reordering rules
    join_reorder: bool = True
    #: volcano search mode; False enables the δ-threshold early stop
    exhaustive: bool = True
    delta: float = 0.0
    patience: int = 50
    #: memoise metadata requests (the paper's metadata cache)
    metadata_caching: bool = True
    #: enable materialized-view rewriting
    use_materializations: bool = True
    #: reuse physical plans across executions of the same statement.
    #: SQL strings handed to :meth:`Planner.execute`/:meth:`Planner.prepare`
    #: are normalized (whitespace/comment/keyword-case insensitive) and
    #: looked up in an LRU keyed on (catalog identity, catalog version,
    #: planning fingerprint, normalized SQL); a hit skips
    #: parse/validate/Hep/Volcano entirely.  Dynamic parameters are bound
    #: per execution, never baked into the plan, so a cached plan is safe
    #: to re-execute with new parameter values.  Disable with
    #: ``plan_cache=False`` (e.g. for planner benchmarking).
    plan_cache: bool = True
    #: number of plans the LRU retains (per planner, or per server tenant
    #: when the Avatica server shares one cache across connections)
    plan_cache_size: int = 128
    #: per-statement deadline in seconds (None: unbounded).  Carried on
    #: the :class:`~repro.runtime.operators.ExecutionContext` as a
    #: :class:`~repro.errors.Deadline` and checked by every scan
    #: iterator and scheduler poll loop, so a stuck or slow backend
    #: fails with a typed :class:`~repro.errors.DeadlineExceeded`
    #: (``OperationalError`` at the DB-API boundary) within the
    #: deadline instead of hanging.  Overridable per statement via
    #: ``Planner.bind(..., timeout=...)`` / ``Cursor.execute(...,
    #: timeout=...)``; settable fleet-wide through
    #: ``QueryServer(statement_timeout=...)``.
    statement_timeout: Optional[float] = None
    #: total attempts (first try included) a transient backend scan
    #: failure is given before the statement fails; 1 disables retry.
    #: Only :class:`~repro.errors.TransientBackendError` (and stdlib
    #: ``ConnectionError``/``TimeoutError``) shapes retry — permanent
    #: errors and plain bugs propagate on first occurrence.  Shards of
    #: a partitioned federated scan retry individually: only the failed
    #: shard's subtree is re-run.
    scan_retry_attempts: int = 3
    #: base/cap of the capped exponential backoff between retries
    #: (attempt n sleeps ~``min(cap, base * 2**(n-1))``, scaled by
    #: deterministic jitter so runs replay; the sleep never exceeds
    #: the statement's remaining deadline)
    scan_retry_backoff: float = 0.05
    scan_retry_backoff_max: float = 1.0
    #: consecutive backend failures that trip its circuit breaker
    #: open (fail fast with :class:`~repro.errors.CircuitOpenError`),
    #: and how long until a half-open probe is admitted.  Breaker
    #: state lives on the planner (or is shared server-wide), so it
    #: spans statements; a backend whose *partitioned* serving is
    #: circuit-open degrades to the gather-then-shard baseline.
    breaker_failure_threshold: int = 5
    breaker_recovery_timeout: float = 30.0


class Planner:
    """End-to-end planning pipeline over a catalog.

    ``Planner.execute(sql, params)`` is split into two halves with a
    reuse boundary between them:

    * :meth:`prepare` — parse → validate → :attr:`phases`, producing a
      parameter-independent :class:`PreparedPlan`.  This half is
      cacheable and, with ``config.plan_cache`` on, is served from an
      LRU keyed on normalized SQL + catalog version.
    * :meth:`bind` / :meth:`execute_plan` — per-call parameter binding
      and execution.  :meth:`bind` returns a streaming
      :class:`RunningStatement` (rows are pulled on demand — the
      Avatica cursor pages through it); :meth:`execute_plan` drains it
      into an eager :class:`Result`.
    """

    def __init__(self, config: FrameworkConfig,
                 plan_cache: Optional[Any] = None,
                 breakers: Optional[Any] = None) -> None:
        if config.engine not in ("row", "vectorized"):
            raise ValueError(
                f"unknown engine {config.engine!r}; expected 'row' or 'vectorized'")
        if config.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {config.parallelism}")
        if config.parallelism > 1 and config.engine != "vectorized":
            raise ValueError(
                "parallelism > 1 requires engine='vectorized' (the row "
                "engine has no partitioned execution path)")
        if config.statement_timeout is not None and config.statement_timeout <= 0:
            raise ValueError(
                f"statement_timeout must be > 0 or None, "
                f"got {config.statement_timeout}")
        if config.scan_retry_attempts < 1:
            raise ValueError(
                f"scan_retry_attempts must be >= 1, "
                f"got {config.scan_retry_attempts}")
        if config.workers not in ("thread", "process", "auto"):
            raise ValueError(
                f"unknown workers backend {config.workers!r}; expected "
                f"'thread', 'process' or 'auto'")
        if config.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {config.batch_size}")
        self.config = config
        self.catalog = config.catalog
        self.converter = SqlToRelConverter(self.catalog)
        self.last_volcano: Optional[VolcanoPlanner] = None
        if plan_cache is None and config.plan_cache and config.plan_cache_size > 0:
            from .avatica.cache import PlanCache
            plan_cache = PlanCache(config.plan_cache_size)
        #: the (possibly shared) plan cache; None when caching is off
        self.plan_cache = plan_cache
        if breakers is None:
            breakers = BreakerRegistry(config.breaker_failure_threshold,
                                       config.breaker_recovery_timeout)
        #: per-backend circuit breakers — statement-spanning state,
        #: shared server-wide when opened through a QueryServer
        self.breakers = breakers
        self._seen_catalog_version = self.catalog.version
        #: :meth:`optimize`'s program (Section 6): named ``rel -> rel``
        #: phases, run in order.  They are held unbound: bound methods
        #: kept on the planner would make every planner cyclic garbage.
        cls = type(self)
        self.phases = [("hep", cls.rewrite_with_hep),
                       ("materializations", cls.apply_materializations),
                       ("volcano", cls.optimize_with_volcano)]
        if config.engine == "vectorized":
            self.phases.append(("trim", cls._trim))
        if config.parallelism > 1:
            self.phases.append(("exchanges", cls._insert_exchanges))

    # -- stage 1: parse ---------------------------------------------------
    def parse(self, sql: str):
        return parse(sql)

    # -- stage 2: validate + convert ----------------------------------------
    def rel(self, sql: str) -> RelNode:
        return self.converter.convert_sql(sql)

    # -- stage 3: optimize ---------------------------------------------------
    def optimize(self, rel: RelNode,
                 required: Optional[RelTraitSet] = None) -> RelNode:
        """Run :attr:`phases` over ``rel`` (Section 6's "planner programs"):
        cheap, always-good Hep rewrites, view and tile substitution, the
        cost-based Volcano search (the one phase given the ``required``
        root traits), then a vectorized plan's trimming and exchanges.
        """
        for name, phase in self.phases:
            rel = (phase(self, rel, required) if name == "volcano"
                   else phase(self, rel))
        return rel

    def rewrite_with_hep(self, rel: RelNode) -> RelNode:
        program = HepProgram()
        program.add_rule_collection(reduce_expression_rules() + prune_empty_rules(),
                                    HepMatchOrder.BOTTOM_UP)
        hep = HepPlanner(program, mq=self._mq())
        return hep.find_best_exp(rel)

    def apply_materializations(self, rel: RelNode) -> RelNode:
        """Materialized-view and lattice rewriting (Section 6)."""
        if self.config.use_materializations:
            materializations = self.catalog.all_materializations()
            if materializations:
                from .mv.substitution import try_substitute
                rewritten = try_substitute(rel, materializations, self._mq())
                if rewritten is not None:
                    rel = rewritten
        lattices = self.catalog.all_lattices()
        if lattices:
            from .mv.lattice import try_rewrite_with_lattices
            rewritten = try_rewrite_with_lattices(rel, lattices)
            if rewritten is not None:
                rel = rewritten
        return rel

    def optimize_with_volcano(self, rel: RelNode,
                              required: Optional[RelTraitSet] = None) -> RelNode:
        rules = self.all_rules()
        planner = VolcanoPlanner(
            rules=rules, mq=self._mq(),
            exhaustive=self.config.exhaustive,
            delta=self.config.delta, patience=self.config.patience,
            distribution_enforcer=self._distribution_enforcer())
        self.last_volcano = planner
        return planner.optimize(rel, required or self.required_traits())

    def _trim(self, rel: RelNode) -> RelNode:
        """Narrow join inputs to the fields read above them
        (:mod:`repro.runtime.vectorized.trim`)."""
        return trim_fields(rel, [
            rule for rule in self.catalog.all_rules() + self.config.rules
            if isinstance(rule, PushRule) and rule.op == "project"])

    def _insert_exchanges(self, rel: RelNode) -> RelNode:
        return insert_exchanges(
            rel, self.config.parallelism, mq=self._mq(),
            broadcast_threshold=self.config.broadcast_join_threshold,
            partitioned_scans=self.config.partitioned_scans)

    def _distribution_enforcer(self):
        """Root distribution enforcement for parallel vectorized plans."""
        if self.config.engine != "vectorized" or self.config.parallelism <= 1:
            return None
        parallelism = self.config.parallelism

        def enforce(plan: RelNode, distribution: RelDistribution) -> RelNode:
            if distribution == RelDistribution.SINGLETON:
                from .runtime.vectorized.exchange import SingletonExchange
                return SingletonExchange(plan, parallelism)
            raise CannotPlanError(
                f"no enforcer for required distribution {distribution!r}")

        return enforce

    def required_traits(self) -> RelTraitSet:
        """The root trait set implied by the configured engine."""
        if self.config.engine == "vectorized":
            distribution = (RelDistribution.SINGLETON
                            if self.config.parallelism > 1
                            else RelDistribution.ANY)
            return RelTraitSet(Convention.VECTORIZED, RelCollation.EMPTY,
                               distribution)
        return RelTraitSet(Convention.ENUMERABLE)

    def all_rules(self) -> List[RelOptRule]:
        rules = standard_logical_rules()
        if self.config.join_reorder:
            rules += join_reorder_rules()
        if self.config.engine == "vectorized":
            rules += vectorized_rules()
        else:
            rules += enumerable_rules()
            rules.append(EnumerableKeyLookupRule())
        rules += self.catalog.all_rules()
        rules += self.config.rules
        return rules

    def _mq(self) -> RelMetadataQuery:
        return RelMetadataQuery(self.config.metadata_providers,
                                caching=self.config.metadata_caching)

    def resolved_workers(self) -> str:
        """The concrete worker backend this planner will run with.

        ``"auto"`` upgrades to ``"process"`` exactly when it pays off:
        ``parallelism > 1`` on a GIL-enabled interpreter with the
        ``fork`` start method available.  An explicit ``"process"``
        request without fork support resolves to ``"thread"`` (the
        scheduler would silently degrade anyway; resolving here keeps
        the fingerprint and server stats truthful).
        """
        c = self.config
        if c.engine != "vectorized" or c.parallelism <= 1:
            return "thread"
        from .runtime.vectorized.parallel_process import (
            process_backend_available,
        )
        if c.workers == "process":
            return "process" if process_backend_available() else "thread"
        if c.workers == "auto":
            import sys
            gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
            if gil_enabled and process_backend_available():
                return "process"
        return "thread"

    # -- stage 4: prepare (cacheable) -----------------------------------------
    def _planning_fingerprint(self) -> Tuple:
        """Everything in the config that can change the chosen plan.

        Includes the catalog's adapter capability flags: a plan with
        partition-pushdown scans is only valid against backends that
        still advertise them, so capability changes must miss the
        cache even when the schema tree itself is unchanged.
        """
        c = self.config
        return (c.engine, c.parallelism, self.resolved_workers(),
                c.batch_size, c.broadcast_join_threshold,
                c.partitioned_scans, self.catalog.capability_fingerprint(),
                c.join_reorder, c.exhaustive, c.delta, c.patience,
                c.use_materializations,
                tuple(id(r) for r in c.rules),
                tuple(id(p) for p in c.metadata_providers))

    def cache_key(self, sql: str) -> Tuple:
        """The plan-cache key for a statement: catalog identity +
        catalog version + planning fingerprint + normalized SQL."""
        from .avatica.cache import normalize_sql
        return (self.catalog.token, self.catalog.version,
                self._planning_fingerprint(), normalize_sql(sql))

    def prepare(self, sql: str) -> "PreparedPlan":
        """Produce (or fetch from cache) the physical plan for ``sql``.

        The result is parameter-independent: dynamic parameters stay
        :class:`RexDynamicParam` placeholders in the plan and are bound
        per execution by :meth:`bind`.
        """
        return self._prepare(sql)[0]

    def _prepare(self, sql: str) -> Tuple["PreparedPlan", bool]:
        """Like :meth:`prepare`, also reporting whether the cache hit."""
        cache = self.plan_cache
        if cache is None:
            return self._plan(sql, key=None), False
        version = self.catalog.version
        if version != self._seen_catalog_version:
            # Catalog changed: eagerly drop superseded plans so they do
            # not squat in the LRU until evicted.
            cache.invalidate_catalog(self.catalog.token, version)
            self._seen_catalog_version = version
        key = self.cache_key(sql)
        prepared = cache.get(key)
        if prepared is not None and not (prepared.views
                                         and prepared.is_stale()):
            return prepared, True
        prepared = self._plan(sql, key)
        cache.put(key, prepared)
        return prepared, False

    def _plan(self, sql: str, key: Optional[Tuple]) -> "PreparedPlan":
        from .sql.lexer import SqlLexError, tokenize
        logical = self.rel(sql)
        try:
            n_params = sum(1 for t in tokenize(sql)
                           if t.kind == "OP" and t.value == "?")
        except SqlLexError:  # pragma: no cover - rel() would have raised
            n_params = 0
        return self.prepare_rel(logical, sql, n_params, key)

    def prepare_rel(self, rel: RelNode, sql: str = "",
                    parameter_count: int = 0,
                    key: Optional[Tuple] = None) -> "PreparedPlan":
        """Optimize a logical tree into an (uncached) :class:`PreparedPlan`."""
        physical = self.optimize(rel)
        return PreparedPlan(sql, physical,
                            list(physical.row_type.field_names),
                            parameter_count=parameter_count, key=key,
                            views=[t for t in scanned_sources(physical)
                                   if getattr(t, "built_from", ())])

    # -- stage 5: bind + execute ----------------------------------------------
    def execution_context(self, parameters: Sequence[Any] = (),
                          timeout: Any = _UNSET) -> ExecutionContext:
        """A fresh per-statement context: parameters, the statement's
        deadline (``timeout`` overrides ``config.statement_timeout``),
        and the resilience configuration (retry policy + the planner's
        statement-spanning breaker registry)."""
        seconds = (self.config.statement_timeout if timeout is _UNSET
                   else timeout)
        c = self.config
        resilience = ResilienceContext(
            policy=RetryPolicy(max_attempts=c.scan_retry_attempts,
                               base_delay=c.scan_retry_backoff,
                               max_delay=c.scan_retry_backoff_max),
            breakers=self.breakers)
        return ExecutionContext(parameters, deadline=Deadline.after(seconds),
                                resilience=resilience,
                                batch_size=c.batch_size,
                                workers=self.resolved_workers())

    def bind(self, prepared: "PreparedPlan",
             parameters: Sequence[Any] = (),
             timeout: Any = _UNSET) -> "RunningStatement":
        """Bind parameters and start executing a prepared plan.

        Rows stream on demand from the executor (the vectorized engine
        yields them batch by batch), so a consumer paging with
        ``fetchmany`` never materialises the full result.  ``timeout``
        (seconds, or None for unbounded) overrides the configured
        ``statement_timeout`` for this statement only.
        """
        ctx = self.execution_context(parameters, timeout)
        prepared.executions += 1
        return RunningStatement(prepared, ctx, execute(prepared.plan, ctx))

    def execute_plan(self, prepared: "PreparedPlan",
                     parameters: Sequence[Any] = (),
                     cache_hit: bool = False) -> "Result":
        """Bind + execute eagerly, draining every row into a Result."""
        running = self.bind(prepared, parameters)
        rows = list(running.rows)
        running.context.rows_emitted = len(rows)
        return Result(rows, prepared.columns, prepared.plan, running.context,
                      cache_hit=cache_hit,
                      plan_cache_stats=(self.plan_cache.stats.snapshot()
                                        if self.plan_cache else None))

    def execute(self, rel_or_sql, parameters: Sequence[Any] = ()) -> "Result":
        if isinstance(rel_or_sql, str):
            prepared, hit = self._prepare(rel_or_sql)
        else:
            prepared, hit = self.prepare_rel(rel_or_sql), False
        return self.execute_plan(prepared, parameters, cache_hit=hit)


class PreparedPlan:
    """A cacheable, parameter-independent physical plan.

    Produced by :meth:`Planner.prepare`; executed any number of times
    via :meth:`Planner.bind`/:meth:`Planner.execute_plan`, each time
    with fresh parameter values.
    """

    def __init__(self, sql: str, plan: RelNode, columns: List[str],
                 parameter_count: int = 0, key: Optional[Tuple] = None,
                 views: Sequence[Any] = ()) -> None:
        self.sql = sql
        self.plan = plan
        self.columns = columns
        #: number of ``?`` placeholders in the statement text
        self.parameter_count = parameter_count
        #: the plan-cache key this plan was stored under (None: uncached)
        self.key = key
        #: backing tables (non-empty ``built_from``) of the views and
        #: tiles the plan reads; empty for most plans, so reusing them
        #: checks nothing
        self.views = list(views)
        #: times this plan has been bound for execution
        self.executions = 0

    def is_stale(self) -> bool:
        """True when a view or tile the plan reads has fallen behind
        the tables it was built from: the plan must be re-planned."""
        return any(table.is_stale() for table in self.views)

    def explain(self) -> str:
        return self.plan.explain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedPlan({self.sql!r}, executions={self.executions})"


class RunningStatement:
    """One in-flight execution: a bound context plus a row stream."""

    def __init__(self, prepared: PreparedPlan, context: ExecutionContext,
                 rows: Iterator[tuple]) -> None:
        self.prepared = prepared
        self.context = context
        #: lazily-evaluated row iterator (pull to execute)
        self.rows = rows
        self.columns = prepared.columns
        self.plan = prepared.plan


class Result:
    """Rows plus plan/statistics from one executed statement."""

    def __init__(self, rows: List[tuple], columns: List[str],
                 plan: RelNode, context: ExecutionContext,
                 cache_hit: bool = False,
                 plan_cache_stats: Optional[dict] = None) -> None:
        self.rows = rows
        self.columns = columns
        self.plan = plan
        self.context = context
        #: True when the plan came from the plan cache (planning skipped)
        self.cache_hit = cache_hit
        #: snapshot of the serving cache's counters, if one was in play
        self.plan_cache_stats = plan_cache_stats

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def explain(self) -> str:
        return self.plan.explain()


def planner_for(catalog: Catalog, **kwargs) -> Planner:
    """Shorthand for the common ``Planner(FrameworkConfig(catalog))``."""
    return Planner(FrameworkConfig(catalog, **kwargs))
