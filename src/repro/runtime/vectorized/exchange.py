"""Exchange operators: physical enforcers of the distribution trait.

An exchange changes *where* rows live — how a ``ColumnBatch`` stream is
spread across the workers of a parallel plan — without changing the
rows themselves.  This is the paper's trait-enforcement story applied
to :class:`repro.core.traits.RelDistribution`: just as a converter
moves an expression between calling conventions, an exchange moves it
between distributions.

Four exchanges cover the lattice:

* :class:`HashExchange` — repartition by a hash of key columns, so
  rows agreeing on the keys co-locate (join inputs, aggregate groups).
* :class:`BroadcastExchange` — replicate the full input to every
  worker (small build sides of joins).
* :class:`RandomExchange` — spread a stream round-robin across
  workers (creates parallelism at a serial source).
* :class:`SingletonExchange` — gather all partitions back into one
  stream, merging by a collation when one must be preserved.

Executed serially (``parallelism == 1`` or re-entry outside a parallel
region), every exchange except the gather is a no-op pass-through:
distribution is a physical placement property, and a single stream
already *is* every placement at once.  The parallel scheduler
(:mod:`.parallel`) gives them their real, multi-worker semantics: one
topology builder cuts the plan at its exchanges into per-partition
subtrees whose :class:`InjectedStream` leaves stand in for incoming
edges and adapter-served shards, and the statement's transport —
threads over bounded queues, or forked processes over pipes carrying
wire frames — carries batches across each edge.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence

from ...core.cost import RelOptCost
from ...core.rel import RelNode
from ...core.traits import Convention, RelCollation, RelDistribution, RelTraitSet
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch, RowStream
from .nodes import VectorizedRel

VECTORIZED = Convention.VECTORIZED


class Exchange(VectorizedRel, RelNode):
    """Base class: one input, a target distribution, a worker count."""

    def __init__(self, input_: RelNode, distribution: RelDistribution,
                 parallelism: int,
                 collation: RelCollation = RelCollation.EMPTY) -> None:
        super().__init__([input_], RelTraitSet(VECTORIZED, collation, distribution))
        self.distribution = distribution
        self.parallelism = parallelism

    def derive_row_type(self):
        return self.input.row_type

    def attr_digest(self) -> str:
        return f"{self.distribution!r}, parallelism={self.parallelism}"

    def estimate_row_count(self, mq) -> float:
        return self.input.estimate_row_count(mq)

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self.input)
        # Repartitioning touches every row once (hashing / enqueueing).
        return RelOptCost(rows, rows * 0.1, 0.0)

    def explain_terms(self):
        return [("dist", repr(self.distribution)),
                ("parallelism", self.parallelism)]


class HashExchange(Exchange):
    """Repartition so rows with equal key values land on one worker.

    ``keys`` is kept in the order the *requirement* was stated (e.g.
    join-key pair order), which both sides of a co-partitioned join
    must share so corresponding key tuples hash identically; the
    carried :class:`RelDistribution` trait canonicalises the key set
    for trait comparison.
    """

    def __init__(self, input_: RelNode, keys: Sequence[int],
                 parallelism: int) -> None:
        self.keys = tuple(keys)
        super().__init__(input_, RelDistribution.hash(self.keys), parallelism)

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "HashExchange":
        ins = inputs or self.inputs
        return HashExchange(ins[0], self.keys, self.parallelism)

    def explain_terms(self):
        return [("dist", repr(self.distribution)),
                ("keys", list(self.keys)),
                ("parallelism", self.parallelism)]


class BroadcastExchange(Exchange):
    """Replicate the full input stream to every worker."""

    def __init__(self, input_: RelNode, parallelism: int) -> None:
        super().__init__(input_, RelDistribution.BROADCAST, parallelism)

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "BroadcastExchange":
        ins = inputs or self.inputs
        return BroadcastExchange(ins[0], self.parallelism)

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self.input)
        return RelOptCost(rows, rows * 0.1 * self.parallelism, 0.0)


class RandomExchange(Exchange):
    """Spread a stream across workers round-robin (creates parallelism)."""

    def __init__(self, input_: RelNode, parallelism: int) -> None:
        super().__init__(input_, RelDistribution.RANDOM, parallelism)

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "RandomExchange":
        ins = inputs or self.inputs
        return RandomExchange(ins[0], self.parallelism)


class SingletonExchange(Exchange):
    """Gather all partitions into one stream.

    When ``collation`` is non-empty each partition stream is required
    to be sorted by it, and the gather performs an ordered k-way merge
    so the collation survives the parallel region.
    """

    def __init__(self, input_: RelNode, parallelism: int,
                 collation: RelCollation = RelCollation.EMPTY) -> None:
        super().__init__(input_, RelDistribution.SINGLETON, parallelism,
                         collation)
        self.collation = collation

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "SingletonExchange":
        ins = inputs or self.inputs
        return SingletonExchange(ins[0], self.parallelism, self.collation)

    def explain_terms(self):
        terms = [("dist", repr(self.distribution)),
                 ("parallelism", self.parallelism)]
        if self.collation.field_collations:
            terms.append(("collation", repr(self.collation)))
        return terms


class InjectedStream(RelNode):
    """A leaf standing in for a partition stream the scheduler feeds.

    The parallel scheduler executes one copy of an operator per
    partition by substituting its inputs with this node; the executor
    yields ``open(ctx, batch_size)``: the receive end of an exchange
    edge, one adapter-served shard, or any batch iterator.  For an edge,
    ``receiver`` is the transport's receive end, so a forked worker
    knows which pipe ends its subtree reads.  Single-use by
    construction.
    """

    def __init__(self, row_type,
                 open_stream: Callable[[Any, int], Iterator[ColumnBatch]],
                 receiver: Any = None) -> None:
        super().__init__([], RelTraitSet(VECTORIZED))
        self.open = open_stream
        self.receiver = receiver
        self._injected_row_type = row_type

    def derive_row_type(self):
        return self._injected_row_type

    def execute_rows(self, ctx) -> Iterator[tuple]:
        """The stream's rows, for a row-engine operator run per
        partition over it (a theta join, INTERSECT, EXCEPT)."""
        return RowStream.of(
            self.open(ctx, ctx.batch_size or DEFAULT_BATCH_SIZE))

    def attr_digest(self) -> str:
        return f"injected#{self.id}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "InjectedStream":
        return self


def exchanges_in(rel: RelNode) -> List[Exchange]:
    """All exchange operators in the tree, pre-order (for tests)."""
    out: List[Exchange] = []
    if isinstance(rel, Exchange):
        out.append(rel)
    for i in rel.inputs:
        out.extend(exchanges_in(i))
    return out
