"""Partition-pushdown scans: the adapter side of exchange elision.

A :class:`PartitionedScan` marks a partition-local subtree (a scan,
optionally under filters/projections/engine bridges) whose *backend*
can serve each partition directly — declared through the unified
capability interface (:mod:`repro.adapters.capability`).  Where the
exchange-insertion pass would otherwise stack a
``HashExchange``/``RandomExchange`` on top of a serial adapter scan
(gather everything, then re-shard it row by row), it instead asks
:func:`try_partition` whether the leaf can shard itself:

* an in-process table whose capability declares
  ``supports_partitioned_scan`` serves shard *i* of *N* through
  ``Table.scan_columns(batch_size, (i, N, keys))`` or
  ``Table.scan_partition(i, N, keys)``;
* an adapter query node that implements the ``can_partition`` /
  ``with_partition`` duck-type (e.g. the JDBC adapter) has the
  partition predicate ``MOD(HASH(keys), N) = i`` pushed into its
  remote query, so the *backend* filters server-side.

Either way each worker receives only its own rows — the shuffle is
elided, and a co-partitioned federated join ships zero rows between
workers.  Hash-compatibility with the scheduler's fallback hash split
is guaranteed by every participant delegating to
:func:`repro.adapters.capability.partition_of`.

Executed serially (parallelism 1 or re-entry outside a parallel
region), a ``PartitionedScan`` is a no-op wrapper around its template
subtree, mirroring the exchange no-op convention.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

from ...core.cost import RelOptCost
from ...core.rel import Converter, RelNode, TableScan
from ...core.rex import RexInputRef
from ...core.traits import Convention, RelDistribution, RelTraitSet
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch, batches_from_rows
from .nodes import VectorizedFilter, VectorizedProject, VectorizedRel

VECTORIZED = Convention.VECTORIZED


class PartitionedTableScan(TableScan):
    """Scan one shard of a capability-declaring table.

    The vectorized executor reads the shard as column chunks
    (:meth:`open`) from a table that serves them — a memory table
    slices its partition assignment — and by rows otherwise: the
    adapter's ``scan_partition`` is then the iterator source, so
    whatever the backend does — serve a cached assignment, filter
    server-side — happens behind the minimal interface.
    """

    def __init__(self, table, partition_id: int, n_partitions: int,
                 keys: Tuple[int, ...]) -> None:
        super().__init__(table, RelTraitSet(Convention.ENUMERABLE))
        self.partition_id = partition_id
        self.n_partitions = n_partitions
        self.keys = keys

    def attr_digest(self) -> str:
        return (f"{self.table.name}[{self.partition_id}/{self.n_partitions}"
                f" on {list(self.keys)}]")

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "PartitionedTableScan":
        return PartitionedTableScan(self.table, self.partition_id,
                                    self.n_partitions, self.keys)

    def explain_terms(self):
        return [("table", self.table.name),
                ("partition", f"{self.partition_id}/{self.n_partitions}"),
                ("keys", list(self.keys))]

    def open(self, ctx, batch_size: int) -> Iterator[ColumnBatch]:
        """The shard as column batches: column chunks where the table
        serves them, its rows re-batched otherwise."""
        chunks = self.table.source.scan_columns(
            batch_size, (self.partition_id, self.n_partitions, self.keys))
        if chunks is None:
            return batches_from_rows(self.execute_rows(ctx),
                                     self.row_type.field_count, batch_size)
        return self._checked(chunks, ctx)

    @staticmethod
    def _checked(chunks, ctx) -> Iterator[ColumnBatch]:
        # As :meth:`execute_rows`, per chunk instead of per row.
        for columns, n in chunks:
            ctx.checkpoint()
            ctx.rows_scanned += n
            yield ColumnBatch(columns, n)

    def execute_rows(self, ctx) -> Iterator[tuple]:
        # Cancellation/deadline checks only: *retry* of a failed shard
        # happens one level up, where the scheduler re-runs the whole
        # ``partition_rel(p)`` subtree (so pushed-down filters and
        # projections replay too) — retrying here as well would nest.
        from ...adapters.resilience import DEADLINE_CHECK_EVERY
        cancel_event = ctx.cancel_event
        deadline = ctx.deadline
        until_check = DEADLINE_CHECK_EVERY
        for row in self.table.source.scan_partition(
                self.partition_id, self.n_partitions, self.keys):
            if cancel_event.is_set() or deadline is not None:
                until_check -= 1
                if cancel_event.is_set() or until_check <= 0:
                    until_check = DEADLINE_CHECK_EVERY
                    ctx.checkpoint()
            ctx.rows_scanned += 1
            yield row


class PartitionedScan(VectorizedRel, RelNode):
    """N adapter-served partitions of the wrapped subtree.

    The sole input is the *template*: the original partition-local
    subtree, unchanged.  The parallel scheduler asks
    :meth:`partition_rel` for the per-partition variant — the template
    with its leaf replaced by that partition's shard — and runs one
    copy per partition, exactly as it would below an exchange, minus
    the exchange.
    """

    def __init__(self, input_: RelNode, keys: Sequence[int],
                 n_partitions: int, scheme: str) -> None:
        keys = tuple(keys)
        dist = RelDistribution.hash(keys) if keys else RelDistribution.RANDOM
        super().__init__([input_], RelTraitSet(VECTORIZED, dist))
        self.keys = keys
        self.n_partitions = n_partitions
        self.scheme = scheme
        self.distribution = dist

    def derive_row_type(self):
        return self.input.row_type

    def attr_digest(self) -> str:
        return (f"keys={list(self.keys)}, partitions={self.n_partitions}, "
                f"scheme={self.scheme}")

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "PartitionedScan":
        ins = inputs or self.inputs
        return PartitionedScan(ins[0], self.keys, self.n_partitions, self.scheme)

    def estimate_row_count(self, mq) -> float:
        return self.input.estimate_row_count(mq)

    def compute_self_cost(self, mq) -> RelOptCost:
        # The partitioning work happens inside the backend; the node
        # itself moves nothing.
        return RelOptCost(mq.row_count(self.input), 0.0, 0.0)

    def explain_terms(self):
        return [("dist", repr(self.distribution)),
                ("keys", list(self.keys)),
                ("partitions", self.n_partitions),
                ("scheme", self.scheme)]

    def partition_rel(self, partition_id: int) -> RelNode:
        builder = _partition_builder(self.input, self.keys, self.n_partitions)
        if builder is None:  # pragma: no cover - guarded at construction
            raise RuntimeError("PartitionedScan template is not partitionable")
        return builder(partition_id)

    def backend_key(self) -> Optional[object]:
        """The backend object whose health the circuit breaker tracks.

        For capability-table leaves this is the table source (a stable,
        statement-spanning object); adapter query leaves may expose a
        duck-typed ``backend_key()`` of their own.  None means "no
        stable identity": the scheduler skips breaker accounting but
        still retries."""
        node = self._leaf()
        if isinstance(node, TableScan):
            return node.table.source
        key_fn = getattr(node, "backend_key", None)
        return key_fn() if callable(key_fn) else None

    def prepare(self) -> None:
        """Have the leaf table do its per-shape work now.

        Opening a shard read makes a memory table build its partition
        assignment; the read is dropped unread.  The scheduler calls
        this before it starts workers, so forked workers inherit the
        assignment instead of each building its own, and later
        statements find it cached."""
        node = self._leaf()
        if isinstance(node, TableScan):
            node.table.source.scan_columns(
                DEFAULT_BATCH_SIZE, (0, self.n_partitions, self.keys))

    def _leaf(self) -> RelNode:
        node: RelNode = self.input
        while node.inputs:
            node = node.inputs[0]
        return node


# ---------------------------------------------------------------------------
# Planning: can this subtree shard itself?
# ---------------------------------------------------------------------------

def _partition_builder(rel: RelNode, keys: Tuple[int, ...],
                       n: int) -> Optional[Callable[[int], RelNode]]:
    """A per-partition rebuild function for ``rel``, or None.

    Walks through partition-local, column-preserving operators
    (filters, converters/engine bridges) down to the leaf; projections
    remap the partition keys into leaf column space (bailing out when
    a key is computed rather than forwarded, since the backend cannot
    hash a value that does not exist yet).
    """
    if isinstance(rel, VectorizedFilter):
        sub = _partition_builder(rel.input, keys, n)
        if sub is None:
            return None
        return lambda pid: rel.copy(inputs=[sub(pid)])
    if isinstance(rel, VectorizedProject):
        inner_keys = []
        for k in keys:
            p = rel.projects[k]
            if not isinstance(p, RexInputRef):
                return None
            inner_keys.append(p.index)
        sub = _partition_builder(rel.input, tuple(inner_keys), n)
        if sub is None:
            return None
        return lambda pid: rel.copy(inputs=[sub(pid)])
    if isinstance(rel, Converter):
        # RowToBatch and adapter converters preserve columns 1:1.
        sub = _partition_builder(rel.input, keys, n)
        if sub is None:
            return None
        return lambda pid: rel.copy(inputs=[sub(pid)])
    if isinstance(rel, TableScan) and not isinstance(rel, PartitionedTableScan):
        source = rel.table.source
        caps_fn = getattr(source, "capabilities", None)
        if caps_fn is None:
            return None
        caps = caps_fn()
        if not caps.supports_partitioned_scan:
            return None
        if keys and caps.partition_scheme != "hash-mod":
            return None
        return lambda pid: PartitionedTableScan(rel.table, pid, n, keys)
    # Adapter query leaves opt in through the duck-typed pair
    # can_partition(keys) / with_partition(pid, n, keys).
    can = getattr(rel, "can_partition", None)
    if callable(can) and not rel.inputs and can(keys):
        return lambda pid: rel.with_partition(pid, n, keys)
    return None


def try_partition(rel: RelNode, keys: Sequence[int],
                  n_partitions: int) -> Optional[PartitionedScan]:
    """Wrap ``rel`` in a :class:`PartitionedScan` on ``keys`` if its
    leaf backend can serve the shards; None when it cannot."""
    keys = tuple(keys)
    if _partition_builder(rel, keys, n_partitions) is None:
        return None
    scheme = "hash-mod" if keys else "stride"
    return PartitionedScan(rel, keys, n_partitions, scheme)
