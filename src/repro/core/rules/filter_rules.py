"""Filter transformation rules, including the paper's worked example
``FilterIntoJoinRule`` (Figure 4)."""

from __future__ import annotations

from typing import List

from .. import rex as rexmod
from ..rel import (
    Aggregate,
    Filter,
    Join,
    JoinRelType,
    LogicalFilter,
    Project,
    SetOp,
)
from ..rex import (
    InputRefRemapper,
    InputRefShifter,
    RexNode,
    compose_conjunction,
    decompose_conjunction,
    input_refs_used,
)
from ..rex_simplify import simplify
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical


class FilterIntoJoinRule(RelOptRule):
    """Push filter conjuncts below a join (Figure 4 of the paper).

    Matches a Filter whose input is a Join and classifies each conjunct
    of the filter: conditions touching only left fields move to the left
    input, only right fields to the right input; for inner joins the
    remainder merges into the join condition.  "This optimization can
    significantly reduce query execution time since we do not need to
    perform the join for rows which do [not] match the predicate."
    """

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(Join)), "FilterIntoJoinRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        filter_ = call.rel(0)
        join = call.rel(1)
        n_left = join.left.row_type.field_count
        n_total = n_left + (join.right.row_type.field_count
                            if join.join_type.projects_right else 0)

        left_conds: List[RexNode] = []
        right_conds: List[RexNode] = []
        remaining: List[RexNode] = []
        for conjunct in decompose_conjunction(filter_.condition):
            refs = input_refs_used(conjunct)
            if refs and max(refs) >= n_total:
                remaining.append(conjunct)
                continue
            only_left = all(r < n_left for r in refs)
            only_right = all(r >= n_left for r in refs) and refs
            # Pushing below a null-generating side would change semantics.
            if only_left and not join.join_type.generates_nulls_on_left:
                left_conds.append(conjunct)
            elif only_right and not join.join_type.generates_nulls_on_right:
                shifted = InputRefShifter(-n_left).apply(conjunct)
                right_conds.append(shifted)
            elif join.join_type is JoinRelType.INNER:
                remaining.append(conjunct)
            else:
                remaining.append(conjunct)
        if not left_conds and not right_conds:
            return

        from ..rel import LogicalJoin
        from ..traits import Convention, RelTraitSet
        none = RelTraitSet(Convention.NONE)
        new_left = join.left
        if left_conds:
            new_left = LogicalFilter(
                join.left, compose_conjunction(left_conds), none)
        new_right = join.right
        if right_conds:
            new_right = LogicalFilter(
                join.right, compose_conjunction(right_conds), none)
        new_join = LogicalJoin(
            new_left, new_right, join.condition, join.join_type, none)
        rest = compose_conjunction(remaining)
        if rest is None:
            call.transform_to(new_join)
        else:
            call.transform_to(LogicalFilter(new_join, rest, none))


class JoinConditionPushRule(RelOptRule):
    """Push single-sided conjuncts of an inner join's condition into its
    inputs (the second half of Figure 4's effect when the predicate
    arrives inside the ON clause)."""

    def __init__(self) -> None:
        super().__init__(any_logical(Join), "JoinConditionPushRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return call.rel(0).join_type is JoinRelType.INNER

    def on_match(self, call: RelOptRuleCall) -> None:
        join = call.rel(0)
        n_left = join.left.row_type.field_count
        left_conds: List[RexNode] = []
        right_conds: List[RexNode] = []
        keep: List[RexNode] = []
        for conjunct in decompose_conjunction(join.condition):
            refs = input_refs_used(conjunct)
            if refs and all(r < n_left for r in refs):
                left_conds.append(conjunct)
            elif refs and all(r >= n_left for r in refs):
                right_conds.append(InputRefShifter(-n_left).apply(conjunct))
            else:
                keep.append(conjunct)
        if not left_conds and not right_conds:
            return
        from ..rel import LogicalJoin
        from ..traits import Convention, RelTraitSet
        none = RelTraitSet(Convention.NONE)
        new_left = join.left
        if left_conds:
            new_left = LogicalFilter(
                join.left, compose_conjunction(left_conds), none)
        new_right = join.right
        if right_conds:
            new_right = LogicalFilter(
                join.right, compose_conjunction(right_conds), none)
        condition = compose_conjunction(keep) or rexmod.literal(True)
        call.transform_to(LogicalJoin(
            new_left, new_right, condition, join.join_type, none))


class FilterProjectTransposeRule(RelOptRule):
    """Push a filter below a project by inlining projected expressions."""

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(Project)),
                         "FilterProjectTransposeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        project = call.rel(1)
        # Windowed expressions cannot be re-evaluated below the project.
        return not any(rexmod.contains_over(p) for p in project.projects)

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..rel import LogicalProject
        from ..traits import Convention, RelTraitSet
        filter_, project = call.rel(0), call.rel(1)
        none = RelTraitSet(Convention.NONE)
        mapping = {i: p for i, p in enumerate(project.projects)}
        new_condition = InputRefRemapper(mapping).apply(filter_.condition)
        new_filter = LogicalFilter(project.input, new_condition, none)
        call.transform_to(LogicalProject(
            new_filter, project.projects, project.field_names, none))


class FilterMergeRule(RelOptRule):
    """Merge two adjacent filters into one conjunction."""

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(Filter)), "FilterMergeRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        top, bottom = call.rel(0), call.rel(1)
        # Each conjunct once: a filter whose input is its own set (after
        # its input was pruned to an empty Values) would otherwise merge
        # with itself into an ever longer condition.
        conjuncts = {c.digest: c for c in
                     decompose_conjunction(top.condition)
                     + decompose_conjunction(bottom.condition)}
        condition = compose_conjunction(list(conjuncts.values()))
        if condition is None:
            call.transform_to(bottom.input)
            return
        from ..traits import Convention, RelTraitSet
        call.transform_to(LogicalFilter(
            bottom.input, condition, RelTraitSet(Convention.NONE)))


class FilterAggregateTransposeRule(RelOptRule):
    """Push a filter on grouping keys below the aggregate."""

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(Aggregate)),
                         "FilterAggregateTransposeRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        filter_, agg = call.rel(0), call.rel(1)
        n_group = len(agg.group_set)
        pushable: List[RexNode] = []
        keep: List[RexNode] = []
        for conjunct in decompose_conjunction(filter_.condition):
            refs = input_refs_used(conjunct)
            if refs and all(r < n_group for r in refs):
                mapping = {i: agg.group_set[i] for i in range(n_group)}
                pushable.append(InputRefRemapper(mapping).apply(conjunct))
            else:
                keep.append(conjunct)
        if not pushable:
            return
        from ..rel import LogicalAggregate
        from ..traits import Convention, RelTraitSet
        none = RelTraitSet(Convention.NONE)
        new_input = LogicalFilter(
            agg.input, compose_conjunction(pushable), none)
        new_agg = LogicalAggregate(
            new_input, agg.group_set, agg.agg_calls, none)
        rest = compose_conjunction(keep)
        if rest is None:
            call.transform_to(new_agg)
        else:
            call.transform_to(LogicalFilter(new_agg, rest, none))


class FilterSetOpTransposeRule(RelOptRule):
    """Push a filter below a union/intersect/minus into every branch."""

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(SetOp)),
                         "FilterSetOpTransposeRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..traits import Convention, RelTraitSet
        filter_, setop = call.rel(0), call.rel(1)
        none = RelTraitSet(Convention.NONE)
        new_inputs = [LogicalFilter(i, filter_.condition, none)
                      for i in setop.inputs]
        call.transform_to(setop.copy(inputs=new_inputs, traits=none))


class FilterSimplifyRule(RelOptRule):
    """Simplify a filter's predicate (part of ReduceExpressionsRule)."""

    def __init__(self) -> None:
        super().__init__(any_logical(Filter), "FilterSimplifyRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        filter_ = call.rel(0)
        simplified = simplify(filter_.condition)
        if simplified.digest == filter_.condition.digest:
            return
        if simplified.is_always_true():
            call.transform_to(filter_.input)
            return
        call.transform_to(filter_.with_condition(simplified))
