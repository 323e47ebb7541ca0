"""Field trimming: vectorized join inputs carry only the fields read.

A post-pass over the vectorized plan Volcano chose, run by
:meth:`repro.framework.Planner.optimize` before exchange insertion.  It
walks the plan top-down with the set of output fields each node's
consumers read.  Filters, projects, aggregates, windows and sorts add
the fields their own expressions read and pass the set down; wherever a
:class:`~.nodes.VectorizedHashJoin` input carries a field that neither
the join condition nor anything above it reads, the input gets a
pure-:class:`~repro.core.rex.RexInputRef` :class:`~.nodes.VectorizedProject`
keeping only the read fields, and every consumer above is remapped to
the narrower row — or, where the input is an adapter's query leaf under
its engine bridges and the backend declares ``"project"``, the leaf's
own generated push rule absorbs the projection, so the backend ships
only the read columns.  Any other node — scans, engine bridges, exchanges,
set operations, adapter operators — reads all of its input, as does a
node whose expressions address their row other than by input ref: a
subquery or correlation variable (which reads the row by field
position) or a window bound whose offset is not a literal.

The pass is not a Volcano rule: the cost model has no width term, so a
trimming projection would only ever be costed as overhead, and
``AggregateProjectMergeRule`` would fold it back into the aggregate.
It runs for the vectorized engine only: the row engine concatenates
tuples, so width costs it little, and its key-lookup rule binds
``Filter(TableScan)`` shapes a projection would hide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...adapters.pushdown import PushRule
from ...core.rel import AggregateCall, Converter, LogicalProject, RelNode
from ...core.rex import (
    RexCorrelVariable,
    RexFieldAccess,
    RexInputRef,
    RexLiteral,
    RexNode,
    RexOver,
    RexShuttle,
    RexSubQuery,
    RexVisitor,
    input_refs_used,
)
from ...core.traits import RelCollation, RelFieldCollation
from .nodes import (
    _VEC_TRAITS,
    VectorizedAggregate,
    VectorizedFilter,
    VectorizedHashJoin,
    VectorizedProject,
    VectorizedSort,
)
from .window import VectorizedWindow

#: old output field → new output field, for every field that survives;
#: None when the node's row is unchanged.
Mapping = Optional[Dict[int, int]]

#: the planner's generated ``"project"`` push rules
Rules = Tuple[PushRule, ...]


def trim_fields(plan: RelNode, project_rules: Sequence[PushRule] = ()
                ) -> RelNode:
    """``plan`` with every vectorized join input narrowed to the fields
    read above it; the root's row is unchanged.  ``project_rules`` are
    the planner's generated ``"project"`` push rules: an input that is
    an adapter's query leaf under its engine bridges is narrowed by the
    rule of the backend that owns the leaf, inside its query."""
    return _trim(plan, set(range(plan.row_type.field_count)),
                 tuple(project_rules))[0]


def _trim(rel: RelNode, needed: Set[int], rules: Rules
          ) -> Tuple[RelNode, Mapping]:
    """Trim below ``rel``, whose consumers read ``needed``; returns the
    new node and how its output fields moved."""
    if isinstance(rel, VectorizedHashJoin):
        return _join(rel, needed, rules)
    if isinstance(rel, VectorizedFilter) and _positional(rel.condition):
        return _filter(rel, needed, rules)
    if isinstance(rel, VectorizedProject) and _positional(*rel.projects):
        return _project(rel, rules)
    if isinstance(rel, VectorizedAggregate):
        return _aggregate(rel, rules)
    if isinstance(rel, VectorizedSort):
        return _sort(rel, needed, rules)
    if isinstance(rel, VectorizedWindow) and _positional(*rel.window_exprs):
        return _window(rel, needed, rules)
    inputs = [_trim(i, set(range(i.row_type.field_count)), rules)[0]
              for i in rel.inputs]
    if all(a is b for a, b in zip(inputs, rel.inputs)):
        return rel, None
    return rel.copy(inputs=inputs), None


def _join(rel: VectorizedHashJoin, needed: Set[int], rules: Rules
          ) -> Tuple[RelNode, Mapping]:
    n_left = rel.left.row_type.field_count
    read = needed | input_refs_used(rel.condition)
    left, left_map = _narrow(rel.left, {i for i in read if i < n_left},
                             rules)
    right, right_map = _narrow(rel.right,
                               {i - n_left for i in read if i >= n_left},
                               rules)
    if left is rel.left and right is rel.right:
        return rel, None
    width = left.row_type.field_count
    mapping = dict(left_map)
    mapping.update((n_left + j, width + k) for j, k in right_map.items())
    join = VectorizedHashJoin(left, right, _remap(rel.condition, mapping),
                              rel.join_type, rel.traits)
    if not rel.join_type.projects_right:
        mapping = left_map
    return join, mapping


def _narrow(rel: RelNode, read: Set[int], rules: Rules
            ) -> Tuple[RelNode, Dict[int, int]]:
    """A join input trimmed to exactly the fields in ``read`` (in their
    original order), and the mapping to their new positions."""
    child, mapping = _trim(rel, read, rules)
    keep = sorted(read)
    new_map = {i: k for k, i in enumerate(keep)}
    if len(keep) == child.row_type.field_count:
        return child, new_map
    moved = [i if mapping is None else mapping[i] for i in keep]
    fields = child.row_type.fields
    refs = [RexInputRef(i, fields[i].type) for i in moved]
    names = [fields[i].name for i in moved]
    pushed = _push_project(child, refs, names, rules)
    if pushed is not None:
        return pushed, new_map
    return VectorizedProject(child, refs, names, _VEC_TRAITS), new_map


def _push_project(rel: RelNode, refs: List[RexNode], names: List[str],
                  rules: Rules) -> Optional[RelNode]:
    """``rel`` — engine bridges over an adapter's query leaf — with the
    projection absorbed into the leaf by the push rule of the backend
    that owns it, and the bridges rebuilt over the narrower leaf; None
    when no rule owns the leaf or its hook declines."""
    bridges = []
    leaf = rel
    while isinstance(leaf, Converter):
        bridges.append(leaf)
        leaf = leaf.input
    if not bridges or leaf.inputs:
        return None
    for rule in rules:
        schema = rule.schema
        if isinstance(leaf, schema.query_class) and schema.owns(leaf):
            pushed = rule.push(LogicalProject(leaf, refs, names), leaf)
            if pushed is None:
                return None
            for bridge in reversed(bridges):
                pushed = bridge.copy(inputs=[pushed])
            return pushed
    return None


def _filter(rel: VectorizedFilter, needed: Set[int], rules: Rules
            ) -> Tuple[RelNode, Mapping]:
    child, mapping = _trim(rel.input,
                           needed | input_refs_used(rel.condition), rules)
    if mapping is None:
        return _same(rel, child), None
    return VectorizedFilter(child, _remap(rel.condition, mapping),
                            rel.traits), mapping


def _project(rel: VectorizedProject, rules: Rules
             ) -> Tuple[RelNode, Mapping]:
    read: Set[int] = set()
    for p in rel.projects:
        read |= input_refs_used(p)
    child, mapping = _trim(rel.input, read, rules)
    if mapping is None:
        return _same(rel, child), None
    return VectorizedProject(
        child, [_remap(p, mapping) for p in rel.projects],
        rel.field_names, rel.traits), None


def _aggregate(rel: VectorizedAggregate, rules: Rules
               ) -> Tuple[RelNode, Mapping]:
    read = set(rel.group_set)
    for call in rel.agg_calls:
        read.update(call.args)
        if call.filter_arg is not None:
            read.add(call.filter_arg)
    child, mapping = _trim(rel.input, read, rules)
    if mapping is None:
        return _same(rel, child), None
    calls = [AggregateCall(c.op, [mapping[a] for a in c.args], c.distinct,
                           c.name, c.type,
                           None if c.filter_arg is None
                           else mapping[c.filter_arg])
             for c in rel.agg_calls]
    return VectorizedAggregate(child, [mapping[g] for g in rel.group_set],
                               calls, rel.traits), None


def _sort(rel: VectorizedSort, needed: Set[int], rules: Rules
          ) -> Tuple[RelNode, Mapping]:
    child, mapping = _trim(rel.input, needed | set(rel.collation.keys), rules)
    if mapping is None:
        return _same(rel, child), None
    collation = RelCollation([
        RelFieldCollation(mapping[fc.field_index], fc.descending,
                          fc.nulls_first)
        for fc in rel.collation.field_collations])
    return VectorizedSort(child, collation, rel.offset, rel.fetch,
                          rel.traits.replace(collation)), mapping


def _window(rel: VectorizedWindow, needed: Set[int], rules: Rules
            ) -> Tuple[RelNode, Mapping]:
    n_in = rel.input.row_type.field_count
    read = {i for i in needed if i < n_in}
    for over in rel.window_exprs:
        read |= input_refs_used(over)
    child, mapping = _trim(rel.input, read, rules)
    if mapping is None:
        return _same(rel, child), None
    width = child.row_type.field_count
    out = dict(mapping)
    out.update((n_in + j, width + j) for j in range(len(rel.window_exprs)))
    return VectorizedWindow(
        child, [_remap(e, mapping) for e in rel.window_exprs],
        rel.field_names, rel.traits), out


# -- helpers ------------------------------------------------------------------

def _same(rel: RelNode, child: RelNode) -> RelNode:
    return rel if child is rel.input else rel.copy(inputs=[child])


class _Remap(RexShuttle):
    """Moves every input ref; a ref the mapping lacks is a trimming bug
    and raises instead of reading the wrong column."""

    def __init__(self, mapping: Dict[int, int]) -> None:
        self.mapping = mapping

    def visit_RexInputRef(self, node: RexInputRef) -> RexNode:
        return RexInputRef(self.mapping[node.index], node.type)


def _remap(node: RexNode, mapping: Dict[int, int]) -> RexNode:
    return _Remap(mapping).apply(node)


class _RowBound(RexVisitor):
    """Finds expressions that read their row other than by input ref."""

    found = False

    def visit_correl_variable(self, node: RexCorrelVariable) -> None:
        self.found = True

    def visit_field_access(self, node: RexFieldAccess) -> None:
        self.found = True

    def visit_subquery(self, node: RexSubQuery) -> None:
        self.found = True

    def visit_over(self, node: RexOver) -> None:
        for bound in (node.lower, node.upper):
            if not (bound.offset is None
                    or isinstance(bound.offset, RexLiteral)):
                self.found = True
        super().visit_over(node)


def _positional(*exprs: RexNode) -> bool:
    """True when ``exprs`` read their input only through input refs, so
    remapping those refs is all a narrower input needs."""
    finder = _RowBound()
    for e in exprs:
        e.accept(finder)
    return not finder.found
