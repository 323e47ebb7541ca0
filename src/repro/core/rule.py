"""Planner rules (Section 6).

A rule matches a pattern of operators in the expression tree and
executes a semantics-preserving transformation.  A pattern is a tree of
:class:`RuleOperand` — each operand names the operator class it matches
and patterns for its children.

Rules are shared between both planner engines (the cost-based Volcano
engine and the exhaustive Hep engine); the engines deliver matches
through a :class:`RelOptRuleCall`.

An operand may also require a calling convention.  That is where the
convention contract of the search lives: transformation rules bind
operators of the logical convention only (:func:`logical`), and
converter rules are the one way across conventions.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Type

from .metadata import RelMetadataQuery
from .rel import RelNode
from .traits import Convention


class RuleOperand:
    """Matches a single operator and, recursively, its inputs."""

    def __init__(self, rel_class: Type[RelNode],
                 children: Optional[Sequence["RuleOperand"]] = None,
                 predicate: Optional[Callable[[RelNode], bool]] = None,
                 convention: Optional[Convention] = None) -> None:
        self.rel_class = rel_class
        #: None = match any children ("any"); [] = must be a leaf ("none")
        self.children = list(children) if children is not None else None
        self.predicate = predicate
        #: the calling convention a matched operator must carry; None = any
        self.convention = convention

    def accepts(self, rel_class: Type[RelNode], convention: Convention) -> bool:
        """Whether operators of ``rel_class`` in ``convention`` can match
        at all — everything :meth:`matches_class` checks that does not
        depend on the individual operator (planners index rules by it)."""
        return (issubclass(rel_class, self.rel_class)
                and (self.convention is None or convention is self.convention))

    def matches_class(self, rel: RelNode) -> bool:
        return (self.accepts(type(rel), rel.traits.convention)
                and (self.predicate is None or self.predicate(rel)))

    def flatten(self) -> List["RuleOperand"]:
        """Pre-order list of operands; index 0 is the root."""
        out = [self]
        if self.children:
            for c in self.children:
                out.extend(c.flatten())
        return out


def operand(rel_class: Type[RelNode], *children: RuleOperand,
            predicate: Optional[Callable[[RelNode], bool]] = None) -> RuleOperand:
    """Operand with an exact, ordered list of child patterns."""
    return RuleOperand(rel_class, list(children), predicate)


def any_operand(rel_class: Type[RelNode] = RelNode,
                predicate: Optional[Callable[[RelNode], bool]] = None) -> RuleOperand:
    """Operand matching ``rel_class`` with arbitrary children."""
    return RuleOperand(rel_class, None, predicate)


def logical(rel_class: Type[RelNode], *children: RuleOperand,
            predicate: Optional[Callable[[RelNode], bool]] = None) -> RuleOperand:
    """:func:`operand` that binds the logical convention only."""
    return RuleOperand(rel_class, list(children), predicate, Convention.NONE)


def any_logical(rel_class: Type[RelNode] = RelNode,
                predicate: Optional[Callable[[RelNode], bool]] = None) -> RuleOperand:
    """:func:`any_operand` that binds the logical convention only."""
    return RuleOperand(rel_class, None, predicate, Convention.NONE)


def none_operand(rel_class: Type[RelNode]) -> RuleOperand:
    """Operand matching a leaf operator (no inputs)."""
    return RuleOperand(rel_class, [])


class RelOptRuleCall:
    """A successful pattern match handed to :meth:`RelOptRule.on_match`.

    ``rels`` lists the matched operators in the operand's pre-order;
    ``rel(0)`` is the root of the match.  The rule reports its result by
    calling :meth:`transform_to`.
    """

    def __init__(self, planner: Any, rule: "RelOptRule", rels: Sequence[RelNode],
                 mq: RelMetadataQuery) -> None:
        self.planner = planner
        self.rule = rule
        self.rels = list(rels)
        self.mq = mq
        self.results: List[RelNode] = []

    def rel(self, index: int) -> RelNode:
        return self.rels[index]

    def transform_to(self, new_rel: RelNode) -> None:
        """Register ``new_rel`` as equivalent to the matched root."""
        self.results.append(new_rel)
        self.planner.on_transform(self, new_rel)

    def convert_input(self, rel: RelNode, traits: Any) -> RelNode:
        """The equivalent of ``rel`` carrying ``traits``.

        In the Volcano planner this is the RelSubset of ``rel``'s
        equivalence set with the requested traits; in tree planners the
        input is returned unchanged (conversions are explicit nodes).
        """
        convert = getattr(self.planner, "change_traits", None)
        if convert is not None:
            return convert(rel, traits)
        return rel


class RelOptRule:
    """Base class for planner rules."""

    def __init__(self, operand_: RuleOperand, description: Optional[str] = None) -> None:
        self.operand = operand_
        self.description = description or type(self).__name__

    def matches(self, call: RelOptRuleCall) -> bool:
        """Refine a structural match; return False to veto."""
        return True

    def on_match(self, call: RelOptRuleCall) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.description


class ConverterRule(RelOptRule):
    """A rule that converts expressions between calling conventions.

    Subclasses set ``in_convention``/``out_convention`` and implement
    :meth:`convert`; the default :meth:`on_match` fires the conversion
    whenever the matched operator is in the ``in_convention``.
    """

    def __init__(self, rel_class: Type[RelNode], in_convention: Any, out_convention: Any,
                 description: Optional[str] = None) -> None:
        super().__init__(
            RuleOperand(rel_class, convention=in_convention),
            description,
        )
        self.rel_class = rel_class
        self.in_convention = in_convention
        self.out_convention = out_convention

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        raise NotImplementedError

    def on_match(self, call: RelOptRuleCall) -> None:
        converted = self.convert(call.rel(0), call)
        if converted is not None:
            call.transform_to(converted)


def match_operand(op: RuleOperand, rel: RelNode,
                  resolve_children: Callable[[RelNode], Sequence[Sequence[RelNode]]]) -> List[List[RelNode]]:
    """All bindings of operand pattern ``op`` rooted at ``rel``.

    ``resolve_children(rel)`` returns, per input position, the candidate
    operators at that position (in Hep that is the single child; in
    Volcano it is every member of the child's equivalence subset).
    Returns a list of bindings, each a pre-order list of matched rels.
    """
    if not op.matches_class(rel):
        return []
    if op.children is None:
        return [[rel]]
    child_candidates = resolve_children(rel)
    if len(op.children) != len(child_candidates):
        return []
    bindings: List[List[RelNode]] = [[rel]]
    for child_op, candidates in zip(op.children, child_candidates):
        new_bindings: List[List[RelNode]] = []
        for binding in bindings:
            for candidate in candidates:
                for sub in match_operand(child_op, candidate, resolve_children):
                    new_bindings.append(binding + sub)
        bindings = new_bindings
        if not bindings:
            return []
    return bindings
