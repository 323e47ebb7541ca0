"""Empty-relation pruning rules (Calcite's PruneEmptyRules)."""

from __future__ import annotations

from ..rel import (
    Aggregate,
    Filter,
    Join,
    JoinRelType,
    LogicalValues,
    Project,
    Sort,
    Union,
    Values,
)
from ..rule import RelOptRule, RelOptRuleCall, any_logical, logical, none_operand


def _is_empty(rel) -> bool:
    return isinstance(rel, Values) and not rel.tuples


class FilterFalseRule(RelOptRule):
    """Filter(FALSE) produces no rows → replace with empty Values."""

    def __init__(self) -> None:
        super().__init__(any_logical(Filter), "FilterFalseRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        condition = call.rel(0).condition
        return condition.is_always_false()

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class ProjectEmptyRule(RelOptRule):
    """Project over empty input is empty."""

    def __init__(self) -> None:
        super().__init__(logical(Project, any_logical(Values, predicate=_is_empty)),
                         "ProjectEmptyRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class FilterEmptyRule(RelOptRule):
    """Filter over empty input is empty."""

    def __init__(self) -> None:
        super().__init__(logical(Filter, any_logical(Values, predicate=_is_empty)),
                         "FilterEmptyRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class JoinLeftEmptyRule(RelOptRule):
    """Inner/left/semi join with an empty left input is empty."""

    def __init__(self) -> None:
        super().__init__(
            logical(Join, any_logical(Values, predicate=_is_empty), any_logical()),
            "JoinLeftEmptyRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return not call.rel(0).join_type.generates_nulls_on_left

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class JoinRightEmptyRule(RelOptRule):
    """Inner/right/semi join with an empty right input is empty."""

    def __init__(self) -> None:
        super().__init__(
            logical(Join, any_logical(), any_logical(Values, predicate=_is_empty)),
            "JoinRightEmptyRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        join = call.rel(0)
        return join.join_type in (JoinRelType.INNER, JoinRelType.RIGHT, JoinRelType.SEMI)

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class SortEmptyRule(RelOptRule):
    """Sort over empty input is empty."""

    def __init__(self) -> None:
        super().__init__(logical(Sort, any_logical(Values, predicate=_is_empty)),
                         "SortEmptyRule")

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class AggregateEmptyRule(RelOptRule):
    """Grouped aggregate over empty input is empty (GROUP BY of nothing
    yields no groups; global aggregates still return one row, so they
    are deliberately not matched)."""

    def __init__(self) -> None:
        super().__init__(logical(Aggregate, any_logical(Values, predicate=_is_empty)),
                         "AggregateEmptyRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return bool(call.rel(0).group_set)

    def on_match(self, call: RelOptRuleCall) -> None:
        call.transform_to(LogicalValues(call.rel(0).row_type, []))


class UnionPruneEmptyRule(RelOptRule):
    """Drop empty branches from a Union."""

    def __init__(self) -> None:
        super().__init__(any_logical(Union), "UnionPruneEmptyRule")

    def matches(self, call: RelOptRuleCall) -> bool:
        return any(_is_empty(i) for i in call.rel(0).inputs)

    def on_match(self, call: RelOptRuleCall) -> None:
        union = call.rel(0)
        remaining = [i for i in union.inputs if not _is_empty(i)]
        if not remaining:
            call.transform_to(LogicalValues(union.row_type, []))
        elif len(remaining) == 1:
            if union.all:
                call.transform_to(remaining[0])
            else:
                from ..rel import LogicalAggregate
                n = remaining[0].row_type.field_count
                call.transform_to(
                    LogicalAggregate(remaining[0], list(range(n)), []))
        else:
            call.transform_to(union.copy(inputs=remaining))
