"""Planner rules generated from a backend's ``pushable_ops``.

A pushdown backend runs some relational operators itself, accumulating
them into one leaf operator (its *query*) that it renders in its own
language — SQL, CQL, SPL, a find() document, a JSON body.  Its schema
declares which operators once, in ``capabilities.pushable_ops``, and
renders each declared operator with one hook, ``push_<op>``.  Nothing
else is per-backend: :func:`pushdown_rules` derives the whole rule set
from the declaration — a converter from ``LogicalTableScan`` into the
query leaf, one push rule per declared operator, and the converter back
to the enumerable convention.  So the declaration the plan-cache
fingerprint covers is the rule set the planner runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from ..core.rel import (
    Aggregate,
    Converter,
    Filter,
    Join,
    LogicalTableScan,
    Project,
    RelNode,
    Sort,
)
from ..core.rule import (
    ConverterRule,
    RelOptRule,
    RelOptRuleCall,
    any_operand,
    operand,
)
from ..core.traits import Convention, RelCollation, RelTraitSet
from ..schema.core import Schema
from .capability import ScanCapabilities


def _has_keys(sort: Sort) -> bool:
    return bool(sort.collation.field_collations)


#: pushable op → the operator its rule binds over the query leaf, and
#: which of those it takes.  A Sort with keys is a ``"sort"``; one with
#: only OFFSET/FETCH is a ``"limit"``.  The order is the order rules are
#: generated in, which fixes Volcano's firing order.
OPERATORS: Dict[str, Tuple[Type[RelNode], Optional[Callable[[RelNode], bool]]]] = {
    "filter": (Filter, None),
    "project": (Project, None),
    "sort": (Sort, _has_keys),
    "limit": (Sort, lambda sort: not _has_keys(sort)),
    "aggregate": (Aggregate, None),
    "join": (Join, None),
}


class PushdownSchema(Schema):
    """A schema whose backend evaluates the operators it declares.

    Subclasses set :attr:`query_class` and :attr:`capabilities`, and
    implement :meth:`query_for`, :meth:`owns` and one ``push_<op>`` per
    op in ``capabilities.pushable_ops``.  ``push_<op>(rel, query)`` —
    ``push_join(join, left, right)`` for joins — returns the query leaf
    with ``rel`` absorbed, or None to leave ``rel`` where it is.
    """

    #: the leaf operator pushed work accumulates in
    query_class: Type[RelNode]
    #: the declaration the generated rules follow
    capabilities: ScanCapabilities
    #: the right input a pushed join absorbs; None = another query leaf
    join_right_class: Optional[Type[RelNode]] = None
    #: whether rows leave the backend in the leaf's collation
    keeps_order: bool = False

    def __init__(self, name: str, convention: Convention) -> None:
        super().__init__(name)
        self.convention = convention
        for rule in pushdown_rules(self):
            self.add_rule(rule)

    def query_for(self, scan: LogicalTableScan) -> Optional[RelNode]:
        """The query leaf reading ``scan``'s table, or None when the
        table is not this backend's."""
        raise NotImplementedError

    def owns(self, query: RelNode) -> bool:
        """Whether a query leaf runs against this schema's backend."""
        raise NotImplementedError


class PushRule(RelOptRule):
    """Absorb one declared operator into a backend's query leaf."""

    def __init__(self, schema: PushdownSchema, op: str, label: str) -> None:
        rel_class, predicate = OPERATORS[op]
        leaves = [any_operand(schema.query_class)]
        if op == "join":
            leaves.append(any_operand(schema.join_right_class or schema.query_class))
        super().__init__(operand(rel_class, *leaves, predicate=predicate),
                         f"{label}{op.capitalize()}Rule({schema.name})")
        self.schema = schema
        self.op = op
        self.push = getattr(schema, f"push_{op}")

    def matches(self, call: RelOptRuleCall) -> bool:
        # Rendering is the veto: a rule that fires always transforms, so
        # matches_fired (which paces Volcano's stop) counts real pushes.
        if not self.schema.owns(call.rel(1)):
            return False
        call.pushed = self.push(*call.rels)
        return call.pushed is not None

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(call.pushed)


class _ScanRule(ConverterRule):
    def __init__(self, schema: PushdownSchema, label: str) -> None:
        super().__init__(LogicalTableScan, Convention.NONE, schema.convention,
                         f"{label}TableScanRule({schema.name})")
        self.schema = schema

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return self.schema.query_for(rel)


class _ToEnumerableRule(ConverterRule):
    def __init__(self, schema: PushdownSchema, label: str) -> None:
        super().__init__(schema.query_class, schema.convention,
                         Convention.ENUMERABLE,
                         f"{label}ToEnumerableConverterRule({schema.name})")
        self.schema = schema

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        collation = (rel.traits.collation if self.schema.keeps_order
                     else RelCollation.EMPTY)
        return Converter(call.convert_input(rel, RelTraitSet(self.in_convention)),
                         RelTraitSet(Convention.ENUMERABLE, collation))


def pushdown_rules(schema: PushdownSchema) -> List[RelOptRule]:
    """The rule set ``schema.capabilities.pushable_ops`` declares.

    Raises ``TypeError`` for a declared op the schema has no
    ``push_<op>`` for, or an op no rule can bind.
    """
    declared = schema.capabilities.pushable_ops
    unknown = sorted(declared - OPERATORS.keys())
    if unknown:
        raise TypeError(f"{type(schema).__name__} declares unknown ops {unknown}")
    missing = sorted(op for op in declared
                     if not callable(getattr(schema, f"push_{op}", None)))
    if missing:
        raise TypeError(f"{type(schema).__name__} declares {missing} "
                        f"but has no push_{missing[0]}")
    label = schema.query_class.__name__.removesuffix("Query")
    return ([_ScanRule(schema, label)]
            + [PushRule(schema, op, label) for op in OPERATORS if op in declared]
            + [_ToEnumerableRule(schema, label)])
