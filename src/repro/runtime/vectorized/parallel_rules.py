"""Planner rules that enforce distribution requirements with exchanges.

Runs after the Volcano planner has chosen a vectorized physical plan
(``FrameworkConfig(engine="vectorized", parallelism=N)`` with N > 1).
Each operator states the :class:`~repro.core.traits.RelDistribution`
it requires of its inputs, and an exchange is inserted **only where an
input's current distribution does not already satisfy it**:

* a hash join requires both inputs hash-partitioned on the join keys
  (in the same pair order, so corresponding key tuples hash to the
  same worker) — unless the build side is small enough to broadcast;
* an aggregate either runs in one phase when its input is already
  partitioned by the group keys, or is decomposed into per-partition
  *partial* aggregates and a *final* aggregate after a hash exchange
  on the group keys, with ``AVG`` decomposed into SUM+COUNT partials
  and re-divided by a post-projection;
* a sort/limit sorts each partition locally (with a bounded local
  fetch) and gathers through an ordered merge;
* the root gathers to ``SINGLETON`` so callers always see one stream.

**Exchange elision.**  Before stacking an exchange on a serial
subtree, the pass asks :func:`~.partitioned.try_partition` whether the
subtree's *backend* can serve the partitions itself (the unified
adapter capability interface, :mod:`repro.adapters.capability`).  The
decision, in order:

1. the input already has the required distribution — no exchange
   (pre-existing behaviour);
2. the input is serial but its leaf declares
   ``supports_partitioned_scan`` with a compatible scheme — a
   :class:`~.partitioned.PartitionedScan` replaces the exchange, and
   the adapter delivers co-partitioned output directly (``hash-mod``
   on the required keys for joins/aggregates, any disjoint cover for
   keyless spreads);
3. otherwise — a real exchange re-shards the gathered stream.

Elision is attempted at every requirement point (hash requirements of
joins and aggregates, spreads for broadcast-probe sides and UNION ALL)
and can be disabled wholesale with
``FrameworkConfig(partitioned_scans=False)`` for gather-then-shard
baselines.

Distribution bookkeeping inside the pass tracks the *runtime* hash-key
order (the order values are actually hashed in), which is stricter
than the canonicalised ``RelDistribution`` trait: two inputs are only
considered co-partitioned when their key sequences correspond
pairwise, not merely as sets.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ...core import rex as rexmod
from ...core.rel import AggregateCall, JoinRelType, RelNode
from ...core.rex import RexCall, RexInputRef, SqlKind, register_function
from ...core.rex_eval import register_runtime_function
from ...core.traits import Convention, RelTraitSet
from .exchange import (
    BroadcastExchange,
    HashExchange,
    RandomExchange,
    SingletonExchange,
)
from .nodes import (
    VectorizedAggregate,
    VectorizedFilter,
    VectorizedHashJoin,
    VectorizedIntersect,
    VectorizedMinus,
    VectorizedProject,
    VectorizedSort,
    VectorizedUnion,
)
from .window import VectorizedWindow

_VEC_TRAITS = RelTraitSet(Convention.VECTORIZED)

#: Build sides at or below this estimated row count are broadcast
#: instead of hash-partitioning both join inputs.
DEFAULT_BROADCAST_THRESHOLD = 32.0

# The final stage of a decomposed AVG: SUM(sums) / SUM0(counts) using
# Python true division, matching the one-phase AVG exactly
# (rex DIVIDE keeps exact integer quotients integral, which AVG must
# not).  NULL propagation comes from the registered-function calling
# convention: a NULL total (no non-null inputs) yields NULL.
_AVG_MERGE = register_function("AVG_MERGE")
register_runtime_function("AVG_MERGE", lambda s, c: None if not c else s / c)


class _Dist(NamedTuple):
    """A distribution with runtime hash-key order (pass-internal)."""

    kind: str  # SINGLETON | RANDOM | BROADCAST | HASH
    keys: Tuple[int, ...] = ()  # runtime order, HASH only


_SINGLETON = _Dist("SINGLETON")
_RANDOM = _Dist("RANDOM")
_BROADCAST = _Dist("BROADCAST")


def _decomposable(call: AggregateCall) -> bool:
    """Partials of ``call`` merge: it has a roll-up, or it is an AVG whose
    SUM and COUNT partials do."""
    if call.op.kind is SqlKind.AVG:
        call = AggregateCall(rexmod.SUM, call.args, call.distinct,
                             filter_arg=call.filter_arg)
    return call.rollup() is not None


class ExchangeInsertionRules:
    """The distribution-enforcement pass over a physical plan."""

    def __init__(self, parallelism: int, mq: Any = None,
                 broadcast_threshold: float = DEFAULT_BROADCAST_THRESHOLD,
                 partitioned_scans: bool = True) -> None:
        self.parallelism = parallelism
        self.mq = mq
        self.broadcast_threshold = broadcast_threshold
        self.partitioned_scans = partitioned_scans

    # -- requirement enforcement ---------------------------------------

    def _try_partition(self, rel: RelNode, keys: Sequence[int]) -> Optional[RelNode]:
        """Elide an exchange: a PartitionedScan over ``rel`` when its
        backend can serve the shards itself, else None."""
        if not self.partitioned_scans:
            return None
        from .partitioned import try_partition
        return try_partition(rel, keys, self.parallelism)

    def _spread(self, rel: RelNode) -> RelNode:
        """Turn a serial subtree into a RANDOM-partitioned one, pushing
        the split below partition-local operators so they run per
        partition."""
        if isinstance(rel, (VectorizedFilter, VectorizedProject)):
            return rel.copy(inputs=[self._spread(rel.input)])
        return RandomExchange(rel, self.parallelism)

    def _ensure_spread(self, rel: RelNode, dist: _Dist) -> Tuple[RelNode, _Dist]:
        """Require a real spread (each row on exactly one worker)."""
        if dist.kind in ("RANDOM", "HASH"):
            return rel, dist
        partitioned = self._try_partition(rel, ())
        if partitioned is not None:
            # The adapter deals out disjoint shards itself: no exchange.
            return partitioned, _RANDOM
        return self._spread(rel), _RANDOM

    def _ensure_hash(self, rel: RelNode, dist: _Dist,
                     keys: Sequence[int]) -> Tuple[RelNode, _Dist]:
        """Require hash partitioning on ``keys`` in exactly this order."""
        keys = tuple(keys)
        if dist.kind == "BROADCAST":
            return rel, dist  # every worker holds all rows: co-located
        if dist.kind == "HASH" and dist.keys == keys:
            return rel, dist
        if dist.kind == "SINGLETON":
            partitioned = self._try_partition(rel, keys)
            if partitioned is not None:
                # The backend delivers co-partitioned output directly
                # (MOD(HASH(keys), N) = i server-side, or a bucketed
                # in-process shard): the shuffle is elided.
                return partitioned, _Dist("HASH", keys)
            if isinstance(rel, (VectorizedFilter, VectorizedProject)):
                # Parallelise the feeding pipeline before repartitioning.
                rel = self._spread(rel)
        return HashExchange(rel, keys, self.parallelism), _Dist("HASH", keys)

    def _gather(self, rel: RelNode, dist: _Dist) -> RelNode:
        if dist.kind == "SINGLETON":
            return rel
        return SingletonExchange(rel, self.parallelism)

    def _row_count(self, rel: RelNode) -> Optional[float]:
        if self.mq is None:
            return None
        try:
            return self.mq.row_count(rel)
        except Exception:
            return None

    # -- per-operator rules --------------------------------------------

    def rewrite(self, rel: RelNode) -> Tuple[RelNode, _Dist]:
        if isinstance(rel, SingletonExchange):
            # e.g. the root gather the Volcano enforcer added: keep it
            # only if something below actually got partitioned.
            child, dist = self.rewrite(rel.input)
            if dist.kind == "SINGLETON":
                return child, _SINGLETON
            return (SingletonExchange(child, self.parallelism, rel.collation),
                    _SINGLETON)
        if isinstance(rel, VectorizedFilter):
            child, dist = self.rewrite(rel.input)
            return rel.copy(inputs=[child]), dist
        if isinstance(rel, VectorizedProject):
            return self._project(rel)
        if isinstance(rel, VectorizedHashJoin):
            return self._join(rel)
        if isinstance(rel, VectorizedAggregate):
            return self._aggregate(rel)
        if isinstance(rel, VectorizedSort):
            return self._sort(rel)
        if isinstance(rel, VectorizedUnion) and rel.all:
            return self._union_all(rel)
        if isinstance(rel, (VectorizedUnion, VectorizedIntersect,
                            VectorizedMinus)):
            return self._distinct_setop(rel)
        if isinstance(rel, VectorizedWindow):
            return self._window(rel)
        # Scans, values, engine bridges, adapter operators, row-engine
        # subtrees: a serial source.
        return rel, _SINGLETON

    def _project(self, rel: VectorizedProject) -> Tuple[RelNode, _Dist]:
        child, dist = self.rewrite(rel.input)
        out = rel.copy(inputs=[child])
        if dist.kind != "HASH":
            return out, dist
        # Remap hash keys through the projection; if a key column is
        # not forwarded, rows stay put but the keys are no longer
        # visible — downgrade to RANDOM.
        mapping = {}
        for i, p in enumerate(rel.projects):
            if isinstance(p, RexInputRef) and p.index not in mapping:
                mapping[p.index] = i
        if all(k in mapping for k in dist.keys):
            return out, _Dist("HASH", tuple(mapping[k] for k in dist.keys))
        return out, _RANDOM

    def _join(self, rel: VectorizedHashJoin) -> Tuple[RelNode, _Dist]:
        left, ldist = self.rewrite(rel.left)
        right, rdist = self.rewrite(rel.right)
        info = rel.analyze_condition()
        if not info.left_keys:
            # No equi keys (should not occur for VectorizedHashJoin):
            # run serially.
            return (rel.copy(inputs=[self._gather(left, ldist),
                                     self._gather(right, rdist)]), _SINGLETON)
        # Canonical pair order: sort by left key so an upstream
        # HASH[left keys] produced for another consumer can be reused.
        pairs = sorted(zip(info.left_keys, info.right_keys))
        lkeys = tuple(p[0] for p in pairs)
        rkeys = tuple(p[1] for p in pairs)
        # RIGHT/FULL track unmatched build rows per worker, which is
        # only correct when the build side is partitioned, not copied.
        can_broadcast = rel.join_type in (JoinRelType.INNER, JoinRelType.LEFT,
                                          JoinRelType.SEMI, JoinRelType.ANTI)
        build_rows = self._row_count(rel.right)
        if (can_broadcast and rdist.kind != "BROADCAST"
                and build_rows is not None
                and build_rows <= self.broadcast_threshold):
            right = BroadcastExchange(right, self.parallelism)
            rdist = _BROADCAST
        if rdist.kind == "BROADCAST":
            left, ldist = self._ensure_spread(left, ldist)
            out_dist = ldist
        else:
            left, ldist = self._ensure_hash(left, ldist, lkeys)
            right, rdist = self._ensure_hash(right, rdist, rkeys)
            # Join output keeps left fields at the same positions — but
            # RIGHT/FULL joins also emit NULL-padded unmatched build
            # rows on whichever worker held them, scattered by the
            # *right*-key hash, so the output is no longer
            # hash-distributed on the left keys.
            if rel.join_type in (JoinRelType.RIGHT, JoinRelType.FULL):
                out_dist = _RANDOM
            else:
                out_dist = ldist
        return rel.copy(inputs=[left, right]), out_dist

    def _aggregate(self, rel: VectorizedAggregate) -> Tuple[RelNode, _Dist]:
        child, dist = self.rewrite(rel.input)
        group = rel.group_set
        decomposable = all(_decomposable(c) for c in rel.agg_calls)
        group_keys = tuple(sorted(group))
        if group and dist.kind == "HASH" and dist.keys == group_keys:
            # Input already co-located by group keys: one phase suffices.
            # (A BROADCAST input must NOT take this path: every worker
            # holds all rows, so per-worker groups would be duplicated.)
            out = rel.copy(inputs=[child])
            out_keys = tuple(group.index(k) for k in dist.keys)
            return out, _Dist("HASH", out_keys)
        if group and dist.kind == "SINGLETON":
            partitioned = self._try_partition(child, group_keys)
            if partitioned is not None:
                # The backend co-locates each group on one partition:
                # one aggregation phase, no partial/final split, no
                # exchange at all.
                out = rel.copy(inputs=[partitioned])
                out_keys = tuple(group.index(k) for k in group_keys)
                return out, _Dist("HASH", out_keys)
        if not decomposable:
            # DISTINCT / FILTER / COLLECT aggregates need all rows of a
            # group in one place and cannot be merged from partials.
            return rel.copy(inputs=[self._gather(child, dist)]), _SINGLETON
        child, dist = self._ensure_spread(child, dist)
        partials, finals, post = self._decompose_calls(rel)
        partial = VectorizedAggregate(child, group, partials, _VEC_TRAITS)
        k = len(group)
        if group:
            exch = HashExchange(partial, tuple(range(k)), self.parallelism)
            final = VectorizedAggregate(exch, tuple(range(k)), finals,
                                        _VEC_TRAITS)
            out_dist = _Dist("HASH", tuple(range(k)))
        else:
            # Global aggregate: one partial row per worker, merged after
            # a gather.
            gathered = SingletonExchange(partial, self.parallelism)
            final = VectorizedAggregate(gathered, (), finals, _VEC_TRAITS)
            out_dist = _SINGLETON
        return self._post_project(rel, final, post), out_dist

    def _decompose_calls(self, rel: VectorizedAggregate):
        """Split aggregate calls into partial and final stages.

        Returns (partial calls, final calls, post spec) where the post
        spec lists, per original call, either ``("ref", final_index)``
        or ``("avg", sum_final_index, count_final_index)``.
        """
        k = len(rel.group_set)
        partials: List[AggregateCall] = []
        finals: List[AggregateCall] = []
        post: List[tuple] = []
        for call in rel.agg_calls:
            if call.op.kind is SqlKind.AVG:
                sum_pos = k + len(partials)
                partials.append(AggregateCall(
                    rexmod.SUM, call.args, name=f"{call.name}$sum",
                    type_=call.type))
                count_pos = k + len(partials)
                partials.append(AggregateCall(
                    rexmod.COUNT, call.args, name=f"{call.name}$count"))
                post.append(("avg", len(finals), len(finals) + 1))
                finals.append(AggregateCall(
                    rexmod.SUM, [sum_pos], name=f"{call.name}$sum",
                    type_=call.type))
                finals.append(AggregateCall(
                    rexmod.SUM0, [count_pos], name=f"{call.name}$count"))
                continue
            partial_pos = k + len(partials)
            partials.append(AggregateCall(
                call.op, call.args, name=call.name, type_=call.type))
            post.append(("ref", len(finals)))
            finals.append(AggregateCall(
                call.rollup(), [partial_pos], name=call.name,
                type_=call.type))
        return partials, finals, post

    def _post_project(self, rel: VectorizedAggregate, final: RelNode,
                      post: List[tuple]) -> RelNode:
        """Collapse AVG's (sum, count) pair back into one column; a
        no-op projection-free plan when no AVG was decomposed."""
        if all(tag == "ref" for tag, *_ in post):
            return final
        k = len(rel.group_set)
        fields = final.row_type.fields
        projects: List[Any] = [RexInputRef(g, fields[g].type)
                               for g in range(k)]
        names: List[str] = [fields[g].name for g in range(k)]
        for spec, call in zip(post, rel.agg_calls):
            if spec[0] == "ref":
                pos = k + spec[1]
                projects.append(RexInputRef(pos, fields[pos].type))
            else:
                _tag, sum_idx, count_idx = spec
                projects.append(RexCall(
                    _AVG_MERGE,
                    [RexInputRef(k + sum_idx, fields[k + sum_idx].type),
                     RexInputRef(k + count_idx, fields[k + count_idx].type)],
                    type_=call.type))
            names.append(call.name)
        return VectorizedProject(final, projects, names, _VEC_TRAITS)

    def _sort(self, rel: VectorizedSort) -> Tuple[RelNode, _Dist]:
        child, dist = self.rewrite(rel.input)
        if dist.kind == "SINGLETON":
            return rel.copy(inputs=[child]), _SINGLETON
        offset = rel.offset or 0
        local_fetch = offset + rel.fetch if rel.fetch is not None else None
        if local_fetch is not None or not rel.is_pure_limit():
            # Per-partition sort (and bounded local limit): ships at
            # most offset+fetch rows per worker to the gather.
            child = VectorizedSort(
                child, rel.collation, None, local_fetch,
                RelTraitSet(Convention.VECTORIZED, rel.collation))
        gathered = SingletonExchange(child, self.parallelism,
                                     collation=rel.collation)
        if offset or rel.fetch is not None:
            # Offset/fetch are global properties: re-apply at the gather.
            return (VectorizedSort(
                gathered, rel.collation, rel.offset, rel.fetch,
                RelTraitSet(Convention.VECTORIZED, rel.collation)),
                _SINGLETON)
        return gathered, _SINGLETON

    def _window(self, rel: "VectorizedWindow") -> Tuple[RelNode, _Dist]:
        """A window's PARTITION BY keys are a hash-distribution
        requirement: co-located partitions evaluate independently, so a
        co-partitioned input (including an elided
        :class:`~.partitioned.PartitionedScan`) runs the window
        shard-local with zero shuffle, and anything else needs exactly
        one hash exchange on the partition keys.

        Only windows whose every OVER partitions by the same set of
        plain input columns distribute this way; computed keys, global
        windows (no PARTITION BY) and mixed partitionings gather — a
        superset analysis could do better, but correctness first."""
        child, dist = self.rewrite(rel.input)
        keys = self._window_keys(rel)
        if keys is None:
            return rel.copy(inputs=[self._gather(child, dist)]), _SINGLETON
        child, dist = self._ensure_hash(child, dist, keys)
        if dist.kind == "BROADCAST":
            # Every worker would evaluate every partition: duplicates.
            child = self._gather(child, dist)
            return rel.copy(inputs=[child]), _SINGLETON
        # Input fields pass through at the same positions (window
        # columns are appended), so the distribution survives the node.
        return rel.copy(inputs=[child]), dist

    @staticmethod
    def _window_keys(rel: "VectorizedWindow") -> Optional[Tuple[int, ...]]:
        """The common PARTITION BY column indices of every window
        expression, or None when no shuffle-safe key set exists."""
        common: Optional[Tuple[int, ...]] = None
        for over in rel.window_exprs:
            if not over.partition_keys:
                return None
            if not all(isinstance(k, RexInputRef) for k in over.partition_keys):
                return None
            keys = tuple(k.index for k in over.partition_keys)
            if common is None:
                common = keys
            elif set(keys) != set(common):
                return None
        return common

    def _distinct_setop(self, rel: RelNode) -> Tuple[RelNode, _Dist]:
        """Distinct UNION/INTERSECT/MINUS, and INTERSECT/MINUS ALL:
        hash-exchange every input on the full row, so all copies of a
        row — across batches *and* across inputs — co-locate on one
        worker, whose local set operation is then globally correct (the
        final phase of the two-phase shape).  Already-partitioned inputs
        of a distinct operation get a per-partition pre-dedup before the
        shuffle (the partial phase), shrinking exchange volume to
        distinct rows only; an ALL operation counts every copy."""
        keys = tuple(range(rel.row_type.field_count))
        outs: List[RelNode] = []
        for i in rel.inputs:
            child, dist = self.rewrite(i)
            if dist.kind == "BROADCAST":
                # Every worker holds every row: per-worker dedup would
                # multiply the result.  Collapse to one stream first.
                child, dist = self._gather(child, dist), _SINGLETON
            if (dist.kind in ("RANDOM", "HASH") and dist.keys != keys
                    and not rel.all):
                child = VectorizedAggregate(child, keys, [], _VEC_TRAITS)
            child, dist = self._ensure_hash(child, dist, keys)
            outs.append(child)
        return rel.copy(inputs=outs), _Dist("HASH", keys)

    def _union_all(self, rel: VectorizedUnion) -> Tuple[RelNode, _Dist]:
        rewritten = [self.rewrite(i) for i in rel.inputs]
        if all(d.kind == "SINGLETON" for _, d in rewritten):
            return rel.copy(inputs=[r for r, _ in rewritten]), _SINGLETON
        # Partition-local concatenation: spread every serial input.
        spread = [self._ensure_spread(r, d)[0] for r, d in rewritten]
        return rel.copy(inputs=spread), _RANDOM

    def apply(self, plan: RelNode) -> RelNode:
        rewritten, dist = self.rewrite(plan)
        if dist.kind == "SINGLETON":
            return rewritten
        return SingletonExchange(rewritten, self.parallelism)


def insert_exchanges(plan: RelNode, parallelism: int, mq: Any = None,
                     broadcast_threshold: float = DEFAULT_BROADCAST_THRESHOLD,
                     partitioned_scans: bool = True) -> RelNode:
    """Enforce distribution requirements over a vectorized physical
    plan, returning a plan whose root produces a single stream.

    ``partitioned_scans=False`` disables exchange elision, forcing the
    gather-then-shard plans PR 2 produced (the baseline the federated
    benchmark compares against).
    """
    if parallelism <= 1:
        return plan
    rules = ExchangeInsertionRules(parallelism, mq, broadcast_threshold,
                                   partitioned_scans)
    return rules.apply(plan)
