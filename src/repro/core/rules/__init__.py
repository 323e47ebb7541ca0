"""The built-in rule library (Section 6).

Calcite ships several hundred rules; this reproduction implements a
representative set covering the behaviours the paper describes —
filter pushing (Figure 4), join reordering (dynamic programming),
projection trimming/merging, trait-based sort elimination, empty-branch
pruning, and expression reduction — plus the adapter conversion rules
registered by each backend.

Rule convention contract: every rule in this package is a
*transformation* rule and declares each operand it binds with
``logical``/``any_logical`` (``core/rule.py``), so it matches — and
therefore produces — expressions of ``Convention.NONE`` only.  Moving
an expression into another convention is the job of ``ConverterRule``s
and of the adapters' push rules, which name the convention or the
adapter class they take.  A transformation rule that bound the
``Enumerable*``/``Vectorized*`` members of a set would re-derive what
its logical twin already derived, once per convention.
"""

from .aggregate_rules import (
    AggregateProjectMergeRule,
    AggregateRemoveRule,
    AggregateUnionAggregateRule,
)
from .filter_rules import (
    FilterAggregateTransposeRule,
    FilterIntoJoinRule,
    FilterMergeRule,
    FilterProjectTransposeRule,
    FilterSetOpTransposeRule,
    FilterSimplifyRule,
    JoinConditionPushRule,
)
from .join_rules import (
    JoinAssociateRule,
    JoinCommuteRule,
)
from .project_rules import (
    ProjectJoinTransposeRule,
    ProjectMergeRule,
    ProjectRemoveRule,
    ProjectSetOpTransposeRule,
    ProjectSimplifyRule,
    ProjectSortTransposeRule,
)
from .prune_rules import (
    AggregateEmptyRule,
    FilterEmptyRule,
    FilterFalseRule,
    JoinLeftEmptyRule,
    JoinRightEmptyRule,
    ProjectEmptyRule,
    SortEmptyRule,
    UnionPruneEmptyRule,
)
from .sort_rules import SortMergeRule, SortProjectTransposeRule, SortRemoveRule


def filter_push_rules():
    """Rules that move predicates towards the data (pushdown)."""
    return [
        FilterIntoJoinRule(),
        JoinConditionPushRule(),
        FilterProjectTransposeRule(),
        FilterMergeRule(),
        FilterAggregateTransposeRule(),
        FilterSetOpTransposeRule(),
    ]


def project_rules():
    return [
        ProjectMergeRule(),
        ProjectRemoveRule(),
        ProjectJoinTransposeRule(),
        ProjectSetOpTransposeRule(),
        ProjectSortTransposeRule(),
    ]


def join_reorder_rules():
    return [JoinCommuteRule(), JoinAssociateRule()]


def reduce_expression_rules():
    return [FilterSimplifyRule(), ProjectSimplifyRule()]


def prune_empty_rules():
    return [
        FilterFalseRule(),
        FilterEmptyRule(),
        ProjectEmptyRule(),
        JoinLeftEmptyRule(),
        JoinRightEmptyRule(),
        SortEmptyRule(),
        AggregateEmptyRule(),
        UnionPruneEmptyRule(),
    ]


def sort_rules():
    return [SortRemoveRule(), SortMergeRule(), SortProjectTransposeRule()]


def aggregate_rules():
    return [
        AggregateProjectMergeRule(),
        AggregateRemoveRule(),
        AggregateUnionAggregateRule(),
    ]


def standard_logical_rules():
    """The default logical rewrite set used before physical planning."""
    return (filter_push_rules() + project_rules() + reduce_expression_rules()
            + prune_empty_rules() + sort_rules() + aggregate_rules())


__all__ = [
    "AggregateEmptyRule",
    "AggregateProjectMergeRule",
    "AggregateRemoveRule",
    "AggregateUnionAggregateRule",
    "FilterAggregateTransposeRule",
    "FilterEmptyRule",
    "FilterFalseRule",
    "FilterIntoJoinRule",
    "FilterMergeRule",
    "FilterProjectTransposeRule",
    "FilterSetOpTransposeRule",
    "FilterSimplifyRule",
    "JoinAssociateRule",
    "JoinCommuteRule",
    "JoinConditionPushRule",
    "JoinLeftEmptyRule",
    "JoinRightEmptyRule",
    "ProjectEmptyRule",
    "ProjectJoinTransposeRule",
    "ProjectMergeRule",
    "ProjectRemoveRule",
    "ProjectSetOpTransposeRule",
    "ProjectSimplifyRule",
    "ProjectSortTransposeRule",
    "SortEmptyRule",
    "SortMergeRule",
    "SortProjectTransposeRule",
    "SortRemoveRule",
    "UnionPruneEmptyRule",
    "aggregate_rules",
    "filter_push_rules",
    "join_reorder_rules",
    "project_rules",
    "prune_empty_rules",
    "reduce_expression_rules",
    "sort_rules",
    "standard_logical_rules",
]
