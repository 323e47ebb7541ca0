"""Aggregate transformation rules."""

from __future__ import annotations

from ..rel import (
    Aggregate,
    LogicalAggregate,
    LogicalProject,
    Project,
    Union,
)
from ..rex import RexInputRef
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical


class AggregateProjectMergeRule(RelOptRule):
    """Fold a pure-reference Project below an Aggregate into the
    aggregate's key/argument indexes."""

    def __init__(self) -> None:
        super().__init__(logical(Aggregate, any_logical(Project)),
                         "AggregateProjectMergeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return call.rel(1).permutation() is not None

    def on_match(self, call: RelOptRuleCall) -> None:
        agg, project = call.rel(0), call.rel(1)
        perm = project.permutation()
        assert perm is not None
        new_group = [perm[g] for g in agg.group_set]
        new_calls = []
        for c in agg.agg_calls:
            new_args = [perm[a] for a in c.args]
            new_filter = perm[c.filter_arg] if c.filter_arg is not None else None
            new_calls.append(c.with_args(new_args, new_filter))
        merged = LogicalAggregate(project.input, new_group, new_calls)
        # Group-key names may differ after the merge; re-project to keep
        # the original output names.
        out_fields = agg.row_type.fields
        exprs = [RexInputRef(i, f.type) for i, f in enumerate(merged.row_type.fields)]
        names = [f.name for f in out_fields]
        if names == list(merged.row_type.field_names):
            call.transform_to(merged)
        else:
            call.transform_to(LogicalProject(merged, exprs, names))


class AggregateRemoveRule(RelOptRule):
    """Drop a distinct-only aggregate whose keys are already unique."""

    def __init__(self) -> None:
        super().__init__(any_logical(Aggregate), "AggregateRemoveRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        agg = call.rel(0)
        if agg.agg_calls or not agg.group_set:
            return False
        return call.mq.columns_unique(agg.input, tuple(agg.group_set))

    def on_match(self, call: RelOptRuleCall) -> None:
        agg = call.rel(0)
        in_fields = agg.input.row_type.fields
        exprs = [RexInputRef(g, in_fields[g].type) for g in agg.group_set]
        names = [in_fields[g].name for g in agg.group_set]
        call.transform_to(LogicalProject(agg.input, exprs, names))


class AggregateUnionAggregateRule(RelOptRule):
    """Collapse Aggregate(Union(Aggregate, Aggregate)) for distinct-only
    aggregates: the outer distinct makes the inner ones redundant."""

    def __init__(self) -> None:
        super().__init__(logical(Aggregate, any_logical(Union)),
                         "AggregateUnionAggregateRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        agg, union = call.rel(0), call.rel(1)
        if agg.agg_calls:
            return False
        return any(isinstance(i, Aggregate) and not i.agg_calls
                   for i in self._union_members(call))

    def _union_members(self, call: RelOptRuleCall):
        union = call.rel(1)
        out = []
        for i in union.inputs:
            members = getattr(i, "members", None)
            if callable(members):
                out.extend(members())
            else:
                out.append(i)
        return out

    def on_match(self, call: RelOptRuleCall) -> None:
        agg, union = call.rel(0), call.rel(1)
        new_inputs = []
        changed = False
        for i in union.inputs:
            candidates = getattr(i, "members", None)
            branch = i
            if callable(candidates):
                for m in candidates():
                    if (isinstance(m, Aggregate) and not m.agg_calls
                            and list(m.group_set) == list(range(m.input.row_type.field_count))):
                        branch = m.input
                        changed = True
                        break
            elif (isinstance(i, Aggregate) and not i.agg_calls
                    and list(i.group_set) == list(range(i.input.row_type.field_count))):
                branch = i.input
                changed = True
            new_inputs.append(branch)
        if not changed:
            return
        call.transform_to(agg.copy(inputs=[union.copy(inputs=new_inputs)]))
