"""Sort rules — including the trait-based redundant-sort removal the
paper highlights: "if the input to the sort operator is already
correctly ordered ... then the sort operation can be removed"."""

from __future__ import annotations

from typing import Optional

from ..rel import Filter, Project, RelNode, Sort, TableScan
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical
from ..traits import RelCollation


def _delivered_collation(rel: RelNode) -> RelCollation:
    """The collation an operator is known to deliver.

    Sorts deliver their own collation; scans deliver the backing
    table's collation (e.g. a Cassandra partition's clustering order);
    filters preserve their input's order; everything else is unsorted.
    """
    if isinstance(rel, Sort):
        if rel.collation.field_collations:
            return rel.collation
        return _delivered_collation(rel.input)
    if isinstance(rel, TableScan):
        return rel.table.collation
    if isinstance(rel, Filter):
        return _delivered_collation(rel.input)
    if rel.traits.collation.field_collations:
        return rel.traits.collation
    # Volcano subsets: look at the representative member.
    rel_set = getattr(rel, "rel_set", None)
    if rel_set is not None:
        collations = [_delivered_collation(m) for m in rel_set.canonical().rels
                      if not isinstance(m, Sort)]
        for c in collations:
            if c.field_collations:
                return c
    return RelCollation.EMPTY


class SortRemoveRule(RelOptRule):
    """Remove a Sort whose input already satisfies its collation."""

    def __init__(self) -> None:
        super().__init__(any_logical(Sort), "SortRemoveRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        sort = call.rel(0)
        if sort.offset is not None or sort.fetch is not None:
            return False
        if not sort.collation.field_collations:
            return False
        delivered = _delivered_collation(sort.input)
        return delivered.satisfies(sort.collation)

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(call.rel(0).input)


class SortMergeRule(RelOptRule):
    """Collapse Sort over Sort (the outer one wins; limits compose)."""

    def __init__(self) -> None:
        super().__init__(logical(Sort, any_logical(Sort)), "SortMergeRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..rel import LogicalSort
        from ..traits import Convention, RelTraitSet
        top, bottom = call.rel(0), call.rel(1)
        if top.collation.field_collations:
            # outer re-sorts; inner order is irrelevant unless it limits
            if bottom.offset is None and bottom.fetch is None:
                call.transform_to(LogicalSort(
                    bottom.input, top.collation, top.offset, top.fetch,
                    RelTraitSet(Convention.NONE, top.collation)))
            return
        # outer is a pure limit over a sort: fuse into the sort
        if top.offset is None and top.fetch is not None and bottom.fetch is None:
            call.transform_to(LogicalSort(
                bottom.input, bottom.collation, bottom.offset, top.fetch,
                RelTraitSet(Convention.NONE, bottom.collation)))


class SortProjectTransposeRule(RelOptRule):
    """Push a Sort below a pure-reference Project."""

    def __init__(self) -> None:
        super().__init__(logical(Sort, any_logical(Project)),
                         "SortProjectTransposeRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        sort, project = call.rel(0), call.rel(1)
        perm = project.permutation()
        if perm is None:
            return False
        return all(k in perm for k in sort.collation.keys)

    def on_match(self, call: RelOptRuleCall) -> None:
        from ..rel import LogicalProject, LogicalSort
        from ..traits import Convention, RelFieldCollation, RelTraitSet
        sort, project = call.rel(0), call.rel(1)
        perm = project.permutation()
        assert perm is not None
        new_collation = RelCollation([
            RelFieldCollation(perm[fc.field_index], fc.descending, fc.nulls_first)
            for fc in sort.collation.field_collations])
        new_sort = LogicalSort(
            project.input, new_collation, sort.offset, sort.fetch,
            RelTraitSet(Convention.NONE, new_collation))
        call.transform_to(LogicalProject(
            new_sort, project.projects, project.field_names,
            RelTraitSet(Convention.NONE)))
