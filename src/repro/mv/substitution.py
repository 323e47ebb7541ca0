"""Materialized-view rewriting by substitution (Section 6).

"The aim is to substitute part of the relational algebra tree with an
equivalent expression which makes use of a materialized view ...
Views do not need to exactly match expressions in the query being
replaced, as the rewriting algorithm in Calcite can produce partial
rewritings that include additional operators to compute the desired
expression, e.g., filters with residual predicate conditions."

Supported rewrites:

* exact match — a subtree identical to the view definition becomes a
  scan of the materialization table;
* residual filter — ``Filter(c, X)`` over a view materialising ``X``
  (or materialising ``Filter(c', X)`` where the query's conjuncts
  include ``c'``) becomes a filter over the view scan;
* aggregate rollup — ``Aggregate(G, A, X)`` over a view materialising
  ``Aggregate(G', A', X)`` with ``G ⊆ G'`` rolls the view's partial
  aggregates up (SUM→SUM, COUNT→SUM of counts, MIN/MIN, MAX/MAX).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import rex as rexmod
from ..core.metadata import RelMetadataQuery
from ..core.rel import (
    Aggregate,
    AggregateCall,
    Filter,
    LogicalAggregate,
    LogicalFilter,
    LogicalTableScan,
    RelNode,
    RelOptTable,
)
from ..core.rex import decompose_conjunction
from ..adapters.memory import MemoryTable
from ..schema.core import Statistic


class Materialization:
    """A materialized view: a definition plan plus its stored rows."""

    def __init__(self, name: str, query_rel: RelNode, table: RelOptTable) -> None:
        self.name = name
        self.query_rel = query_rel
        self.table = table

    @staticmethod
    def create(name: str, query_rel: RelNode,
               qualified_name: Sequence[str] = ()) -> "Materialization":
        """Execute the definition and store the result in a memory table."""
        from ..runtime.operators import execute_to_list
        # SELECT * introduces an identity projection; strip it so the
        # definition matches the equivalent bare subtree in queries.
        from ..core.rel import Project
        while isinstance(query_rel, Project) and query_rel.is_identity():
            query_rel = query_rel.input
        rows = execute_to_list(_force_enumerable(query_rel))
        row_type = query_rel.row_type
        backing = MemoryTable(name, list(row_type.field_names),
                              [f.type for f in row_type.fields], rows)
        opt_table = RelOptTable(
            tuple(qualified_name) or (name,), row_type, source=backing,
            row_count=float(len(rows)))
        return Materialization(name, query_rel, opt_table)

    def scan(self) -> RelNode:
        return LogicalTableScan(self.table)

    def __repr__(self) -> str:
        return f"Materialization({self.name})"


def _force_enumerable(rel: RelNode) -> RelNode:
    """Plan a logical tree for execution (views are defined logically)."""
    from ..core.rules import standard_logical_rules
    from ..core.volcano import VolcanoPlanner
    from ..runtime.nodes import enumerable_rules
    planner = VolcanoPlanner(rules=standard_logical_rules() + enumerable_rules())
    return planner.optimize(rel)


def try_substitute(rel: RelNode, materializations: Sequence[Materialization],
                   mq: Optional[RelMetadataQuery] = None) -> Optional[RelNode]:
    """Rewrite ``rel`` to use materializations; None if nothing matched."""
    changed = [False]

    def rewrite(node: RelNode) -> RelNode:
        for mat in materializations:
            replacement = _match(node, mat)
            if replacement is not None:
                changed[0] = True
                return replacement
        if not node.inputs:
            return node
        new_inputs = [rewrite(i) for i in node.inputs]
        if any(a is not b for a, b in zip(new_inputs, node.inputs)):
            return node.copy(inputs=new_inputs)
        return node

    result = rewrite(rel)
    return result if changed[0] else None


def _match(node: RelNode, mat: Materialization) -> Optional[RelNode]:
    view = mat.query_rel
    # 1. exact
    if node.digest == view.digest:
        return mat.scan()
    # 2. residual filter over the view
    if isinstance(node, Filter):
        if node.input.digest == view.digest:
            return LogicalFilter(mat.scan(), node.condition)
        if isinstance(view, Filter) and node.input.digest == view.input.digest:
            node_conjuncts = {c.digest: c for c in decompose_conjunction(node.condition)}
            view_conjuncts = [c.digest for c in decompose_conjunction(view.condition)]
            if all(d in node_conjuncts for d in view_conjuncts):
                residual = [c for d, c in node_conjuncts.items()
                            if d not in view_conjuncts]
                if not residual:
                    return mat.scan()
                return LogicalFilter(mat.scan(),
                                     rexmod.compose_conjunction(residual))
    # 3. aggregate rollup (seeing through a renaming Project on the view)
    if isinstance(node, Aggregate):
        view_agg, out_map = _unwrap_aggregate(view)
        if view_agg is not None:
            rollup = _rollup(node, view_agg, out_map, mat)
            if rollup is not None:
                return rollup
    return None


def _unwrap_aggregate(view: RelNode):
    """The view's Aggregate plus a map: aggregate-output index → column
    index in the materialization table."""
    from ..core.rel import Project
    if isinstance(view, Aggregate):
        return view, {i: i for i in range(view.row_type.field_count)}
    if isinstance(view, Project) and isinstance(view.input, Aggregate):
        perm = view.permutation()
        if perm is not None and len(perm) == view.input.row_type.field_count:
            return view.input, {perm[out]: out for out in perm}
    return None, None


def _rollup(query: Aggregate, view: Aggregate, out_map,
            mat: Materialization) -> Optional[RelNode]:
    if query.input.digest != view.input.digest:
        return None
    if not set(query.group_set) <= set(view.group_set):
        return None
    # position of each view group key / agg call in the view's output row,
    # then through out_map into the materialization table's columns
    view_group_pos = {g: i for i, g in enumerate(view.group_set)}
    view_agg_pos = {c.digest: len(view.group_set) + i
                    for i, c in enumerate(view.agg_calls)}
    new_group = []
    for g in query.group_set:
        if g not in view_group_pos or view_group_pos[g] not in out_map:
            return None
        new_group.append(out_map[view_group_pos[g]])
    new_calls: List[AggregateCall] = []
    for call in query.agg_calls:
        rollup_op = call.rollup()
        if rollup_op is None:
            return None
        pos = view_agg_pos.get(call.digest)
        if pos is None or pos not in out_map:
            return None
        new_calls.append(AggregateCall(rollup_op, [out_map[pos]], False,
                                       call.name, call.type))
    return LogicalAggregate(mat.scan(), new_group, new_calls)
