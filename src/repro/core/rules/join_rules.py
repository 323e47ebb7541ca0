"""Join reordering rules — the dynamic-programming search space.

``JoinCommuteRule`` and ``JoinAssociateRule`` together let the Volcano
engine enumerate bushy join orders; the related-work section contrasts
this with Catalyst, which "lacks the dynamic programming approach used
by Calcite and risks falling into local minima".
"""

from __future__ import annotations

from typing import List

from ..rel import Join, JoinRelType, LogicalJoin, LogicalProject, RelNode
from ..rex import (
    InputRefRemapper,
    InputRefShifter,
    RexInputRef,
    RexNode,
    compose_conjunction,
    decompose_conjunction,
    input_refs_used,
    literal,
)
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical


class JoinCommuteRule(RelOptRule):
    """Swap the inputs of an inner join, projecting fields back in order."""

    def __init__(self, swap_outer: bool = False) -> None:
        super().__init__(any_logical(Join), "JoinCommuteRule")
        self.swap_outer = swap_outer

    def matches(self, call: RelOptRuleCall) -> bool:
        join = call.rel(0)
        if join.join_type is JoinRelType.INNER:
            return True
        if self.swap_outer and join.join_type in (JoinRelType.LEFT, JoinRelType.RIGHT):
            return True
        return False

    def on_match(self, call: RelOptRuleCall) -> None:
        join = call.rel(0)
        n_left = join.left.row_type.field_count
        n_right = join.right.row_type.field_count
        # Rewrite condition indexes: left fields shift right, right shift left.
        mapping = {}
        for i in range(n_left):
            mapping[i] = i + n_right
        for i in range(n_right):
            mapping[n_left + i] = i
        new_condition = InputRefRemapper(mapping).apply(join.condition)
        new_type = join.join_type
        if join.join_type is JoinRelType.LEFT:
            new_type = JoinRelType.RIGHT
        elif join.join_type is JoinRelType.RIGHT:
            new_type = JoinRelType.LEFT
        swapped = LogicalJoin(join.right, join.left, new_condition, new_type)
        # Restore the original field order with a projection.
        fields = swapped.row_type.fields
        exprs: List[RexNode] = []
        names: List[str] = []
        for i in range(n_left):
            exprs.append(RexInputRef(n_right + i, fields[n_right + i].type))
            names.append(fields[n_right + i].name)
        for i in range(n_right):
            exprs.append(RexInputRef(i, fields[i].type))
            names.append(fields[i].name)
        call.transform_to(LogicalProject(swapped, exprs, names))


class JoinAssociateRule(RelOptRule):
    """Re-associate ``(A ⋈ B) ⋈ C`` into ``A ⋈ (B ⋈ C)``."""

    def __init__(self) -> None:
        super().__init__(logical(Join, any_logical(Join), any_logical(RelNode)),
                         "JoinAssociateRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        top, bottom = call.rel(0), call.rel(1)
        return (top.join_type is JoinRelType.INNER
                and bottom.join_type is JoinRelType.INNER)

    def on_match(self, call: RelOptRuleCall) -> None:
        top = call.rel(0)
        bottom = call.rel(1)
        rel_a = bottom.left
        rel_b = bottom.right
        rel_c = call.rel(2)
        n_a = rel_a.row_type.field_count
        n_b = rel_b.row_type.field_count

        # Conjuncts over the combined (A, B, C) row.
        all_conds = (decompose_conjunction(top.condition)
                     + decompose_conjunction(bottom.condition))
        bottom_new: List[RexNode] = []  # go to the new bottom join (B ⋈ C)
        top_new: List[RexNode] = []     # stay at the new top join
        for cond in all_conds:
            refs = input_refs_used(cond)
            if refs and all(r >= n_a for r in refs):
                bottom_new.append(InputRefShifter(-n_a).apply(cond))
            else:
                top_new.append(cond)

        new_bottom = LogicalJoin(
            rel_b, rel_c,
            compose_conjunction(bottom_new) or literal(True),
            JoinRelType.INNER)
        new_top = LogicalJoin(
            rel_a, new_bottom,
            compose_conjunction(top_new) or literal(True),
            JoinRelType.INNER)
        call.transform_to(new_top)
