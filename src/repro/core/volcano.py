"""The cost-based planner engine — VolcanoPlanner (Section 6).

Implements the dynamic-programming search the paper describes:

* every expression is *registered* together with a **digest** computed
  from its attributes and inputs;
* firing a rule on an expression ``e1`` producing ``e2`` adds ``e2`` to
  the equivalence set ``Sa`` of ``e1``;
* if the digest of a new expression matches an expression ``e3`` in a
  different set ``Sb``, the planner has found a duplicate and **merges**
  ``Sa`` and ``Sb``;
* the process continues until a configurable fix point: either
  exhaustively (all rules applied to all expressions) or stopping early
  once the best plan cost has not improved by more than a threshold
  ``δ`` over the last iterations;
* the cost function is supplied through metadata providers, and traits
  (including the *calling convention*) partition each set into subsets,
  with converter rules moving expressions between conventions.

Rules are looked up by the registered operator's class and convention
(an index built lazily, in rule order), so an expression only meets
the rules whose root operand could bind it.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import (Callable, DefaultDict, Dict, List, Optional, Sequence,
                    Set, Tuple, Type)

from .cost import RelOptCost
from .metadata import MetadataProvider, RelMetadataQuery
from .rel import RelNode
from .rule import ConverterRule, RelOptRule, RelOptRuleCall, match_operand
from .traits import Convention, RelDistribution, RelTraitSet
from .types import RelDataType

_set_ids = itertools.count()


class RelSet:
    """An equivalence set: expressions producing the same rows."""

    def __init__(self) -> None:
        self.id = next(_set_ids)
        self.rels: List[RelNode] = []
        self.subsets: Dict[RelTraitSet, "RelSubset"] = {}
        #: rels (in other sets) that consume a subset of this set
        self.parents: List[RelNode] = []
        self._parent_ids: set = set()
        self.merged_into: Optional["RelSet"] = None

    def add_parent(self, rel: RelNode) -> None:
        if rel.id not in self._parent_ids:
            self._parent_ids.add(rel.id)
            self.parents.append(rel)

    def canonical(self) -> "RelSet":
        s = self
        while s.merged_into is not None:
            s = s.merged_into
        return s

    @property
    def representative(self) -> RelNode:
        """A stable logical member used for row-count metadata."""
        return self.rels[0]

    def subset(self, traits: RelTraitSet) -> "RelSubset":
        if traits not in self.subsets:
            self.subsets[traits] = RelSubset(self, traits)
        return self.subsets[traits]

    def __repr__(self) -> str:
        return f"RelSet#{self.id}({len(self.rels)} rels)"


class RelSubset(RelNode):
    """The members of a set that satisfy a particular trait set.

    A subset is itself a RelNode, so registered expressions use subsets
    as inputs — this is what lets a single stored expression stand for
    every combination of alternative child plans.
    """

    def __init__(self, set_: RelSet, traits: RelTraitSet) -> None:
        super().__init__([], traits)
        self.rel_set = set_
        self.best: Optional[RelNode] = None
        self.best_cost = RelOptCost.INFINITY

    def derive_row_type(self) -> RelDataType:
        return self.rel_set.canonical().representative.row_type

    @property
    def digest(self) -> str:
        return f"Subset#{self.rel_set.canonical().id}.{self.traits!r}"

    def copy(self, inputs=None, traits=None) -> "RelSubset":
        return self

    def members(self) -> List[RelNode]:
        """Members of the canonical set whose traits satisfy this subset."""
        return [r for r in self.rel_set.canonical().rels
                if r.traits.satisfies(self.traits)]

    def estimate_row_count(self, mq) -> float:
        return self.rel_set.canonical().representative.estimate_row_count(mq)

    def explain_terms(self):
        return [("subset", self.digest)]


class _VolcanoMetadataProvider(MetadataProvider):
    """Resolves metadata over subsets by delegating to the set."""

    def row_count(self, rel, mq):
        if isinstance(rel, RelSubset):
            return mq.row_count(rel.rel_set.canonical().representative)
        return None

    def distinct_row_count(self, rel, keys, mq):
        if isinstance(rel, RelSubset):
            return mq.distinct_row_count(rel.rel_set.canonical().representative, keys)
        return None

    def columns_unique(self, rel, keys, mq):
        if isinstance(rel, RelSubset):
            return mq.columns_unique(rel.rel_set.canonical().representative, keys)
        return None

    def average_row_size(self, rel, mq):
        if isinstance(rel, RelSubset):
            return mq.average_row_size(rel.rel_set.canonical().representative)
        return None

    def selectivity(self, rel, predicate, mq):
        if isinstance(rel, RelSubset):
            return mq.selectivity(rel.rel_set.canonical().representative, predicate)
        return None

    def cumulative_cost(self, rel, mq):
        if isinstance(rel, RelSubset):
            return rel.best_cost
        return None

    def non_cumulative_cost(self, rel, mq):
        if isinstance(rel, RelSubset):
            return RelOptCost.ZERO
        return None

    def max_parallelism(self, rel, mq):
        if isinstance(rel, RelSubset):
            return mq.max_parallelism(rel.rel_set.canonical().representative)
        return None


class CannotPlanError(Exception):
    """No implementation satisfying the required traits was found."""


@dataclass
class RuleStats:
    """What one rule did during a search (``VolcanoPlanner.rule_stats``)."""

    #: bindings of the rule's operand pattern put on the queue
    queued: int = 0
    #: dequeued bindings that ``matches`` refused
    vetoed: int = 0
    #: ``on_match`` calls
    fired: int = 0
    #: expressions handed to ``transform_to``
    results: int = 0
    #: results that added at least one expression to the search
    new_results: int = 0
    #: time inside ``matches`` and ``on_match``, registration included
    seconds: float = 0.0


class VolcanoPlanner:
    """Cost-based dynamic-programming planner.

    Parameters
    ----------
    rules:
        Transformation and converter rules to fire.
    mq:
        Metadata query (cost model source).  A subset-aware provider is
        prepended automatically.
    exhaustive:
        When True, fire rules until no match remains (fix point (i) in
        the paper).  When False, stop early once the root's best cost
        has improved by less than ``delta`` over ``patience``
        consecutive rule firings (fix point (ii)).
    delta:
        Relative cost-improvement threshold δ for the heuristic stop.
    distribution_enforcer:
        Optional ``(plan, required_distribution) -> plan`` callback.
        When the required trait set demands a distribution no
        registered expression carries, the planner extracts the best
        plan for the distribution-relaxed traits and asks the enforcer
        to wrap it (e.g. with a gather exchange) — the same
        trait-enforcement idea as converter rules, applied to the
        distribution trait at the root.
    """

    def __init__(self, rules: Optional[Sequence[RelOptRule]] = None,
                 mq: Optional[RelMetadataQuery] = None,
                 exhaustive: bool = True, delta: float = 0.0,
                 patience: int = 50, max_matches: int = 20_000,
                 distribution_enforcer: Optional[
                     Callable[[RelNode, RelDistribution], RelNode]] = None) -> None:
        self.rules: List[RelOptRule] = list(rules or [])
        providers = [_VolcanoMetadataProvider()]
        if mq is not None:
            providers += [p for p in mq.providers]
            self.mq = RelMetadataQuery(providers, caching=mq.caching)
        else:
            self.mq = RelMetadataQuery(providers)
        self.exhaustive = exhaustive
        self.delta = delta
        self.patience = patience
        self.max_matches = max_matches
        self.distribution_enforcer = distribution_enforcer

        self._digest_to_rel: Dict[str, RelNode] = {}
        self._rel_to_set: Dict[int, RelSet] = {}
        self.sets: List[RelSet] = []
        self._queue: deque = deque()
        self._fired: Set[Tuple[int, Tuple[int, ...]]] = set()
        self.matches_fired = 0
        self.registrations = 0
        #: per-rule search counters, keyed by rule description
        self.rule_stats: DefaultDict[str, RuleStats] = defaultdict(RuleStats)
        #: (operator class, convention) -> the rules whose root operand
        #: accepts it, in ``self.rules`` order
        self._rule_index: Dict[Tuple[Type[RelNode], Convention],
                               List[RelOptRule]] = {}
        self._root_subset: Optional[RelSubset] = None
        self._current_call_root_set: Optional[RelSet] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_rule(self, rule: RelOptRule) -> None:
        self.rules.append(rule)
        self._rule_index.clear()

    def set_of(self, rel: RelNode) -> Optional[RelSet]:
        s = self._rel_to_set.get(rel.id)
        return s.canonical() if s is not None else None

    def change_traits(self, rel: RelNode, traits: RelTraitSet) -> RelNode:
        """The subset of ``rel``'s equivalence set carrying ``traits``.

        Used by converter rules to request inputs in their output
        convention (e.g. an EnumerableJoin asks for enumerable inputs).
        """
        if isinstance(rel, RelSubset):
            return rel.rel_set.canonical().subset(traits)
        subset = self.register(rel)
        return subset.rel_set.canonical().subset(traits)

    def register(self, rel: RelNode, equiv_set: Optional[RelSet] = None) -> RelSubset:
        """Register an expression tree; returns the subset for its traits."""
        if isinstance(rel, RelSubset):
            s = rel.rel_set.canonical()
            return s.subset(rel.traits)
        # Register children first, replacing them with subsets.
        new_inputs: List[RelNode] = []
        changed = False
        for i in rel.inputs:
            subset = self.register(i)
            new_inputs.append(subset)
            if subset is not i:
                changed = True
        if changed:
            rel = rel.copy(inputs=new_inputs)
        digest = rel.digest
        existing = self._digest_to_rel.get(digest)
        if existing is not None:
            existing_set = self.set_of(existing)
            assert existing_set is not None
            if equiv_set is not None and equiv_set.canonical() is not existing_set:
                self._merge(existing_set, equiv_set.canonical())
                existing_set = existing_set.canonical()
            return existing_set.subset(rel.traits)
        target = equiv_set.canonical() if equiv_set is not None else RelSet()
        if equiv_set is None:
            self.sets.append(target)
        self._add_to_set(rel, target)
        return target.subset(rel.traits)

    def _add_to_set(self, rel: RelNode, target: RelSet) -> None:
        self._digest_to_rel[rel.digest] = rel
        self._rel_to_set[rel.id] = target
        target.rels.append(rel)
        self.registrations += 1
        target.subset(rel.traits)  # materialise the subset
        for i in rel.inputs:
            assert isinstance(i, RelSubset)
            child_set = i.rel_set.canonical()
            child_set.add_parent(rel)
        self._queue_matches_for(rel)
        # Parents of this set may newly match through the added rel.
        # Requeue each distinct parent (and grandparent, for three-level
        # operand patterns) once; duplicates would only re-enumerate the
        # same bindings, which dominates planning time on large searches.
        requeued: Set[int] = set()
        for parent in list(target.parents):
            if id(parent) in requeued:
                continue
            requeued.add(id(parent))
            self._queue_matches_for(parent)
            parent_set = self.set_of(parent)
            if parent_set is not None:
                for grand in list(parent_set.parents):
                    if id(grand) in requeued:
                        continue
                    requeued.add(id(grand))
                    self._queue_matches_for(grand)

    # ------------------------------------------------------------------
    # Set merging (digest duplicate found across sets)
    # ------------------------------------------------------------------
    def _merge(self, winner: RelSet, loser: RelSet) -> None:
        winner = winner.canonical()
        loser = loser.canonical()
        if winner is loser:
            return
        loser.merged_into = winner
        for rel in loser.rels:
            self._rel_to_set[rel.id] = winner
            if rel not in winner.rels:
                winner.rels.append(rel)
        for traits, subset in loser.subsets.items():
            winner.subset(traits)
        for p in loser.parents:
            winner.add_parent(p)
        # Re-digest parents that referenced the loser's subsets: their
        # subset digests now canonicalise to the winner, which can
        # reveal further duplicates (cascading merges).
        for parent in list(loser.parents):
            old_digest = parent.digest  # cached when it was registered
            parent.invalidate_digest()
            new_digest = parent.digest
            if (old_digest != new_digest
                    and self._digest_to_rel.get(old_digest) is parent):
                del self._digest_to_rel[old_digest]
                other = self._digest_to_rel.get(new_digest)
                if other is not None and other is not parent:
                    set_a = self.set_of(other)
                    set_b = self.set_of(parent)
                    if set_a is not None and set_b is not None and set_a is not set_b:
                        self._merge(set_a, set_b)
                else:
                    self._digest_to_rel[new_digest] = parent

    # ------------------------------------------------------------------
    # Rule matching
    # ------------------------------------------------------------------
    def _resolve_children(self, rel: RelNode) -> List[List[RelNode]]:
        out: List[List[RelNode]] = []
        for i in rel.inputs:
            if isinstance(i, RelSubset):
                out.append(i.rel_set.canonical().rels)
            else:
                out.append([i])
        return out

    def _rules_for(self, rel: RelNode) -> List[RelOptRule]:
        key = (type(rel), rel.traits.convention)
        rules = self._rule_index.get(key)
        if rules is None:
            rules = self._rule_index[key] = [
                rule for rule in self.rules if rule.operand.accepts(*key)]
        return rules

    def _queue_matches_for(self, rel: RelNode) -> None:
        for rule in self._rules_for(rel):
            bindings = match_operand(rule.operand, rel, self._resolve_children)
            for binding in bindings:
                key = (id(rule), tuple(r.id for r in binding))
                if key in self._fired:
                    continue
                self._fired.add(key)
                self._queue.append((rule, binding))
                self.rule_stats[rule.description].queued += 1

    # ------------------------------------------------------------------
    # Transform callback (from RelOptRuleCall)
    # ------------------------------------------------------------------
    def on_transform(self, call: RelOptRuleCall, new_rel: RelNode) -> None:
        root_set = self.set_of(call.rel(0))
        stats = self.rule_stats[call.rule.description]
        stats.results += 1
        before = self.registrations
        self.register(new_rel, root_set)
        if self.registrations > before:
            stats.new_results += 1
        # Cost propagation is deferred: the optimize loop relaxes costs
        # periodically (heuristic mode) or once after the fix point.

    # ------------------------------------------------------------------
    # Cost propagation and plan extraction
    # ------------------------------------------------------------------
    def _rel_cost(self, rel: RelNode) -> RelOptCost:
        cost = self.mq.non_cumulative_cost(rel)
        for i in rel.inputs:
            if isinstance(i, RelSubset):
                child_best = i.rel_set.canonical().subset(i.traits).best_cost
                if child_best.is_infinite():
                    return RelOptCost.INFINITY
                cost = cost + child_best
            else:
                cost = cost + self.mq.cumulative_cost(i)
        return cost

    def _propagate_costs(self) -> None:
        """Relax subset best costs until a fixed point (Bellman-Ford)."""
        changed = True
        iterations = 0
        while changed and iterations < 1000:
            changed = False
            iterations += 1
            for s in self.sets:
                if s.merged_into is not None:
                    continue
                for traits, subset in list(s.subsets.items()):
                    for rel in s.rels:
                        if not rel.traits.satisfies(traits):
                            continue
                        cost = self._rel_cost(rel)
                        if cost.is_lt(subset.best_cost):
                            subset.best = rel
                            subset.best_cost = cost
                            changed = True

    def _extract(self, subset: RelSubset, visiting: Set[int]) -> RelNode:
        subset = subset.rel_set.canonical().subset(subset.traits)
        best = subset.best
        if best is None:
            raise CannotPlanError(
                f"no plan for {subset.digest}; "
                f"set members: {[r.digest for r in subset.rel_set.canonical().rels]}")
        if best.id in visiting:
            raise CannotPlanError("cycle while extracting best plan")
        visiting = visiting | {best.id}
        new_inputs = []
        for i in best.inputs:
            if isinstance(i, RelSubset):
                new_inputs.append(self._extract(i, visiting))
            else:
                new_inputs.append(i)
        if new_inputs:
            return best.copy(inputs=new_inputs)
        return best

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def optimize(self, root: RelNode,
                 required: Optional[RelTraitSet] = None) -> RelNode:
        """Register ``root``, run the search, return the cheapest plan
        satisfying ``required`` traits (default: enumerable convention)."""
        if required is None:
            required = RelTraitSet(Convention.ENUMERABLE)
        root_subset = self.register(root)
        root_set = root_subset.rel_set.canonical()
        self._root_subset = root_set.subset(required)
        # With an enforcer, no registered expression will ever satisfy a
        # non-ANY required distribution (enforcement happens at
        # extraction); track search progress on the relaxed traits so
        # the heuristic stop still sees costs improve.
        track_traits = required
        if (self.distribution_enforcer is not None
                and required.distribution != RelDistribution.ANY):
            track_traits = RelTraitSet(required.convention, required.collation,
                                       RelDistribution.ANY)
        self._propagate_costs()

        no_improve = 0
        last_best = root_set.subset(track_traits).best_cost
        check_interval = 10  # cost relaxation cadence in heuristic mode
        while self._queue and self.matches_fired < self.max_matches:
            rule, binding = self._queue.popleft()
            # Stale bindings (rels moved by merges) are still usable: the
            # rel objects themselves remain valid members of their sets.
            call = RelOptRuleCall(self, rule, binding, self.mq)
            stats = self.rule_stats[rule.description]
            started = time.perf_counter()
            matched = rule.matches(call)
            if matched:
                rule.on_match(call)
            stats.seconds += time.perf_counter() - started
            if not matched:
                stats.vetoed += 1
                continue
            stats.fired += 1
            self.matches_fired += 1
            if not self.exhaustive and self.matches_fired % check_interval == 0:
                self._propagate_costs()
                subset = self._root_subset.rel_set.canonical().subset(track_traits)
                current = subset.best_cost
                if not current.is_infinite() and not last_best.is_infinite():
                    improvement = (last_best.value - current.value) / max(last_best.value, 1e-9)
                    if improvement <= self.delta:
                        no_improve += check_interval
                    else:
                        no_improve = 0
                elif not current.is_infinite():
                    no_improve = 0
                last_best = current
                if no_improve >= self.patience:
                    break
        self._propagate_costs()
        final_set = self._root_subset.rel_set.canonical()
        final_subset = final_set.subset(required)
        if (final_subset.best is None
                and self.distribution_enforcer is not None
                and required.distribution != RelDistribution.ANY):
            # Distribution trait enforcement: extract the cheapest plan
            # ignoring distribution and let the enforcer add the
            # exchange that establishes the required one.
            relaxed = final_set.subset(track_traits)
            if relaxed.best is not None:
                plan = self._extract(relaxed, set())
                return self.distribution_enforcer(plan, required.distribution)
        return self._extract(final_subset, set())

    find_best_exp = optimize

    def best_cost(self, required: Optional[RelTraitSet] = None) -> RelOptCost:
        if self._root_subset is None:
            return RelOptCost.INFINITY
        required = required or self._root_subset.traits
        return self._root_subset.rel_set.canonical().subset(required).best_cost
