"""Project transformation rules."""

from __future__ import annotations

from typing import List

from ..rel import (
    Join,
    LogicalProject,
    Project,
    RelNode,
    SetOp,
    Sort,
)
from ..rex import (
    InputRefRemapper,
    RexInputRef,
    RexNode,
    RexShuttle,
    contains_over,
    input_refs_used,
)
from ..rex_simplify import simplify
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical


class _Inliner(RexShuttle):
    """Replace $i with the i-th expression of an underlying project."""

    def __init__(self, exprs: List[RexNode]) -> None:
        self.exprs = exprs

    def visit_RexInputRef(self, node: RexInputRef) -> RexNode:
        return self.exprs[node.index]


class ProjectMergeRule(RelOptRule):
    """Merge two adjacent projects by inlining the lower expressions."""

    def __init__(self) -> None:
        super().__init__(logical(Project, any_logical(Project)), "ProjectMergeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        bottom = call.rel(1)
        # Inlining a windowed expression could duplicate its evaluation.
        return not any(contains_over(p) for p in bottom.projects)

    def on_match(self, call: RelOptRuleCall) -> None:
        top, bottom = call.rel(0), call.rel(1)
        inliner = _Inliner(bottom.projects)
        new_exprs = [simplify(inliner.apply(p)) for p in top.projects]
        call.transform_to(
            LogicalProject(bottom.input, new_exprs, top.field_names))


class ProjectRemoveRule(RelOptRule):
    """Remove a projection that merely forwards its input."""

    def __init__(self) -> None:
        super().__init__(any_logical(Project), "ProjectRemoveRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return call.rel(0).is_identity()

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(call.rel(0).input)


class ProjectJoinTransposeRule(RelOptRule):
    """Trim unused columns below a join by inserting projections.

    A narrower join input is cheaper to materialise; this is Calcite's
    field-trimming expressed as a rule.
    """

    def __init__(self) -> None:
        super().__init__(logical(Project, any_logical(Join)),
                         "ProjectJoinTransposeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        join = call.rel(1)
        return join.join_type.projects_right

    def on_match(self, call: RelOptRuleCall) -> None:
        project, join = call.rel(0), call.rel(1)
        n_left = join.left.row_type.field_count
        needed = set()
        for p in project.projects:
            needed |= input_refs_used(p)
        needed |= input_refs_used(join.condition)
        if len(needed) >= join.row_type.field_count:
            return
        left_needed = sorted(r for r in needed if r < n_left)
        right_needed = sorted(r - n_left for r in needed if r >= n_left)
        if (len(left_needed) == n_left
                and len(right_needed) == join.right.row_type.field_count):
            return

        def trim(rel: RelNode, indexes: List[int]) -> RelNode:
            fields = rel.row_type.fields
            return LogicalProject(
                rel,
                [RexInputRef(i, fields[i].type) for i in indexes],
                [fields[i].name for i in indexes])

        new_left = trim(join.left, left_needed) if len(left_needed) < n_left else join.left
        new_right = (trim(join.right, right_needed)
                     if len(right_needed) < join.right.row_type.field_count
                     else join.right)
        mapping = {}
        for new_idx, old in enumerate(left_needed):
            mapping[old] = new_idx
        for new_idx, old in enumerate(right_needed):
            mapping[old + n_left] = len(left_needed) + new_idx
        remapper = InputRefRemapper(mapping)
        new_join = join.copy(inputs=[new_left, new_right]).with_condition(
            remapper.apply(join.condition))
        new_projects = [remapper.apply(p) for p in project.projects]
        call.transform_to(
            LogicalProject(new_join, new_projects, project.field_names))


class ProjectSetOpTransposeRule(RelOptRule):
    """Push a pure-reference project below a set operation."""

    def __init__(self) -> None:
        super().__init__(logical(Project, any_logical(SetOp)),
                         "ProjectSetOpTransposeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return call.rel(0).permutation() is not None

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..traits import Convention, RelTraitSet
        none = RelTraitSet(Convention.NONE)
        project, setop = call.rel(0), call.rel(1)
        new_inputs = []
        for branch in setop.inputs:
            fields = branch.row_type.fields
            exprs = [RexInputRef(p.index, fields[p.index].type)
                     for p in project.projects]  # type: ignore[union-attr]
            new_inputs.append(
                LogicalProject(branch, exprs, project.field_names, none))
        call.transform_to(setop.copy(inputs=new_inputs, traits=none))


class ProjectSortTransposeRule(RelOptRule):
    """Push a pure-reference project below a sort, remapping sort keys."""

    def __init__(self) -> None:
        super().__init__(logical(Project, any_logical(Sort)),
                         "ProjectSortTransposeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        project, sort = call.rel(0), call.rel(1)
        perm = project.permutation()
        if perm is None:
            return False
        # every sort key must survive the projection
        kept = set(perm.values())
        return all(k in kept for k in sort.collation.keys)

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..rel import LogicalSort
        from ..traits import (Convention, RelCollation, RelFieldCollation,
                              RelTraitSet)
        project, sort = call.rel(0), call.rel(1)
        perm = project.permutation()
        assert perm is not None
        inverse = {old: new for new, old in perm.items()}
        new_project = LogicalProject(
            sort.input, project.projects, project.field_names,
            RelTraitSet(Convention.NONE))
        new_collation = RelCollation([
            RelFieldCollation(inverse[fc.field_index], fc.descending, fc.nulls_first)
            for fc in sort.collation.field_collations])
        call.transform_to(LogicalSort(
            new_project, new_collation, sort.offset, sort.fetch,
            RelTraitSet(Convention.NONE, new_collation)))


class ProjectSimplifyRule(RelOptRule):
    """Simplify projected expressions (ReduceExpressionsRule for Project)."""

    def __init__(self) -> None:
        super().__init__(any_logical(Project), "ProjectSimplifyRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        project = call.rel(0)
        new_exprs = [simplify(p) for p in project.projects]
        if all(a.digest == b.digest for a, b in zip(new_exprs, project.projects)):
            return
        call.transform_to(
            LogicalProject(project.input, new_exprs, project.field_names))
