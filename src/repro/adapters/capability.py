"""The unified adapter capability interface.

Every backend (jdbc/mongo/elastic/druid/cassandra/splunk/spark/pig/
csv/memory) describes what it can do through one declaration,
:class:`ScanCapabilities`, instead of the planner special-casing each
adapter:

* ``pushable_ops`` — which relational operators the backend evaluates
  server-side.  The backend's planner rules are generated from it
  (:func:`~repro.adapters.pushdown.pushdown_rules`), so the
  declaration is the rule set.
* ``supports_partitioned_scan`` + ``partition_scheme`` — whether the
  backend can serve one shard of a hash-partitioned scan, i.e. only
  the rows with ``MOD(HASH(keys), n_partitions) = partition_id``
  (scheme ``"hash-mod"``), or an arbitrary disjoint slice when no keys
  are requested (scheme ``"stride"`` covers that degenerate case too).
* ``supports_key_lookup`` — whether the backend serves
  ``lookup(column, value)``: only the rows whose column equals the
  value, without a full scan.  The row engine's planner turns a
  ``Filter($k = literal|?)`` over such a table into a keyed scan
  (:class:`~repro.runtime.nodes.EnumerableKeyLookupRule`).

The exchange-elision planner pass
(:mod:`repro.runtime.vectorized.parallel_rules`) consults the
capability of a scan's backing table to replace a
``[Random|Hash]Exchange``-over-serial-scan with a
:class:`~repro.runtime.vectorized.partitioned.PartitionedScan` whose
partitions are produced *by the adapter*, so a federated join ships
only its own shard instead of gathering everything into one stream and
re-sharding it.

Correctness of elision hinges on every participant agreeing on the
partition function.  :func:`partition_of` is that single definition;
the parallel scheduler's hash split, the in-process backends, and the
``HASH`` SQL function pushed to SQL backends all delegate to it.

This module also hosts :func:`split_comparisons`, the one shared
"decompose a filter into pushable column-vs-literal comparisons plus a
residual" routine every non-SQL backend's ``push_filter`` renders
from, and :func:`kept_fields`, the field-list test for projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.rex import (
    COMPARISON_KINDS,
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
    decompose_conjunction,
    register_function,
)
from ..core.rex_eval import register_runtime_function
from ..core.types import DEFAULT_TYPE_FACTORY

_BIGINT = DEFAULT_TYPE_FACTORY.bigint(False)


# ---------------------------------------------------------------------------
# The canonical partition function
# ---------------------------------------------------------------------------

def partition_of(values: Sequence, n_partitions: int) -> int:
    """Which partition a row's key values belong to.

    The single source of truth shared by the parallel scheduler's hash
    split, every in-process backend's ``scan_partition``, and the
    registered ``HASH`` SQL function (``MOD(HASH(keys), n) = i``) that
    SQL backends evaluate server-side.  ``None`` keys hash like any
    other value, so NULL-key rows land on exactly one partition (a
    LEFT-join probe side must not drop them).
    """
    return hash(tuple(values)) % n_partitions


#: ``HASH(v0, v1, ...)`` — the rex face of :func:`partition_of`,
#: renderable by the SQL unparser (function syntax) and evaluable by
#: the row/vectorized engines and by SQL backends that register it.
HASH = register_function("HASH", infer=lambda _types: _BIGINT)
register_runtime_function("HASH", lambda *values: hash(values))


# ---------------------------------------------------------------------------
# Capability declaration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanCapabilities:
    """What a backend's scans can do, declared once per table/adapter.

    ``pushable_ops`` names the relational operators the backend
    evaluates (``"filter"``, ``"project"``, ``"sort"``, ``"limit"``,
    ``"aggregate"``, ``"join"``); a pushdown backend gets one generated
    push rule per op, and a backend pushes predicates exactly when it
    declares ``"filter"``.
    ``partition_scheme`` is ``"hash-mod"`` when the backend can filter
    ``MOD(HASH(keys), n) = i`` server-side (or equivalent), or
    ``"stride"`` when it can only deal out disjoint slices (valid for
    keyless spreads, not for co-partitioned joins).
    ``supports_key_lookup`` means the table implements
    ``lookup(column, value)`` with the semantics of SQL ``=``: a NULL
    or NaN value matches no row.
    """

    supports_partitioned_scan: bool = False
    partition_scheme: Optional[str] = None
    pushable_ops: frozenset = field(default_factory=frozenset)
    supports_key_lookup: bool = False

    @property
    def supports_predicate_pushdown(self) -> bool:
        return "filter" in self.pushable_ops

    def fingerprint(self) -> Tuple:
        """A hashable summary for plan-cache planning fingerprints."""
        return (self.supports_partitioned_scan,
                self.partition_scheme,
                tuple(sorted(self.pushable_ops)),
                self.supports_key_lookup)


#: capability of a backend that only knows how to scan.
SCAN_ONLY = ScanCapabilities()


# ---------------------------------------------------------------------------
# Shared filter decomposition
# ---------------------------------------------------------------------------

class Comparison(NamedTuple):
    """One pushable conjunct: ``<field> <kind> <literal>``."""

    field: object        # whatever the resolver produced (index, name, path)
    kind: SqlKind        # normalised so the field is on the left side
    value: object        # the literal Python value
    rex: RexNode         # the original conjunct (for residual rebuilds)


def default_field_resolver(node: RexNode) -> Optional[object]:
    """Resolve a plain column reference to its input index."""
    if isinstance(node, RexInputRef):
        return node.index
    return None


def split_comparisons(
    condition: Optional[RexNode],
    field_of: Callable[[RexNode], Optional[object]] = default_field_resolver,
    kinds: frozenset = frozenset(COMPARISON_KINDS),
    accept_value: Callable[[object], bool] = lambda v: True,
) -> Tuple[List[Comparison], List[RexNode]]:
    """Split a predicate into pushable comparisons and a residual.

    Flattens the conjunction, then classifies each conjunct: a binary
    comparison between something ``field_of`` can resolve and a
    ``RexLiteral`` (either operand order; the kind is reversed when the
    literal is on the left) becomes a :class:`Comparison`, everything
    else lands in the residual list.  ``field_of`` lets backends with
    non-columnar field models (e.g. Mongo's single document column
    accessed via ``ITEM``) plug in their own resolution; ``kinds``
    restricts which comparison kinds the backend accepts and
    ``accept_value`` which literal values (e.g. no arrays in SPL).
    """
    pushed: List[Comparison] = []
    residual: List[RexNode] = []
    for conjunct in decompose_conjunction(condition):
        comp = _classify(conjunct, field_of, kinds, accept_value)
        if comp is not None:
            pushed.append(comp)
        else:
            residual.append(conjunct)
    return pushed, residual


def _classify(conjunct: RexNode, field_of, kinds, accept_value) -> Optional[Comparison]:
    if not isinstance(conjunct, RexCall) or conjunct.kind not in kinds:
        return None
    if len(conjunct.operands) != 2:
        return None
    a, b = conjunct.operands
    kind = conjunct.kind
    if isinstance(b, RexLiteral):
        lhs, lit = a, b
    elif isinstance(a, RexLiteral):
        lhs, lit, kind = b, a, kind.reverse()
    else:
        return None
    field = field_of(lhs)
    if field is None or not accept_value(lit.value):
        return None
    return Comparison(field, kind, lit.value, conjunct)


def kept_fields(projects: Sequence[RexNode], out_names: Sequence[str],
                in_names: Sequence[str]) -> Optional[List[str]]:
    """The input fields a projection keeps, by name, when it only picks
    and reorders them without renaming; None otherwise.

    This is the projection a field-list pushdown (``_source``, SPL
    ``fields``) can express.
    """
    kept: List[str] = []
    for p, out in zip(projects, out_names):
        if not isinstance(p, RexInputRef) or in_names[p.index] != out:
            return None
        kept.append(out)
    return kept
