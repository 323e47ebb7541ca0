"""Lattices and tiles (Section 6).

"Once the data sources are declared to form a lattice, Calcite
represents each of the materializations as a tile which in turn can be
used by the optimizer to answer incoming queries.  The rewriting
algorithm is especially efficient in matching expressions over data
sources organized in a star schema."

A :class:`Lattice` declares a star query (fact table joined to its
dimensions), the dimension columns and the measures.  A :class:`Tile`
is a materialized aggregate at one subset of the dimensions; queries
grouping by any subset of a tile's dimensions roll the tile up instead
of touching the base tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import rex as rexmod
from ..core.rel import (
    Aggregate,
    AggregateCall,
    LogicalAggregate,
    LogicalTableScan,
    RelNode,
    RelOptTable,
)
from ..adapters.memory import MemoryTable


#: the aggregate each measure kind names
_MEASURE_OPS = {"SUM": rexmod.SUM, "COUNT": rexmod.COUNT,
                "MIN": rexmod.MIN, "MAX": rexmod.MAX}


class Measure:
    """An aggregate measure over a star-row column: e.g. SUM(units)."""

    def __init__(self, agg: str, column: int, name: Optional[str] = None) -> None:
        agg = agg.upper()
        if agg not in _MEASURE_OPS:
            raise ValueError(f"unsupported lattice measure {agg}")
        self.agg = agg
        self.column = column
        self.name = name or f"{agg.lower()}_{column}"

    def call(self, star_fields) -> AggregateCall:
        """The measure as an aggregate call over the star's row."""
        op = _MEASURE_OPS[self.agg]
        args = [] if self.agg == "COUNT" else [self.column]
        return AggregateCall(op, args, False, self.name,
                             op.return_type([star_fields[a].type
                                             for a in args]))

    def matches(self, call: AggregateCall) -> bool:
        if call.distinct or call.filter_arg is not None:
            return False
        if call.op.name != self.agg and not (
                call.op.name == "$SUM0" and self.agg == "SUM"):
            return False
        if self.agg == "COUNT":
            return not call.args or list(call.args) == [self.column]
        return list(call.args) == [self.column]

    def __repr__(self) -> str:
        return f"Measure({self.agg}, ${self.column})"


class Tile:
    """A materialized aggregate of the star at one dimension subset."""

    def __init__(self, lattice: "Lattice", dimensions: Tuple[int, ...],
                 table: RelOptTable) -> None:
        self.lattice = lattice
        self.dimensions = tuple(dimensions)
        self.table = table

    @property
    def row_count(self) -> float:
        return self.table.row_count

    def covers(self, group_set: Sequence[int]) -> bool:
        return set(group_set) <= set(self.dimensions)

    def __repr__(self) -> str:
        return f"Tile(dims={list(self.dimensions)}, rows={self.table.row_count})"


class Lattice:
    """A star schema declaration plus its materialized tiles."""

    def __init__(self, name: str, star_rel: RelNode,
                 dimension_columns: Sequence[int],
                 measures: Sequence[Measure]) -> None:
        self.name = name
        self.star_rel = star_rel
        self.dimension_columns = list(dimension_columns)
        self.measures = list(measures)
        self.tiles: List[Tile] = []
        self.rewrites = 0

    # ------------------------------------------------------------------
    def materialize_tile(self, dimensions: Sequence[int]) -> Tile:
        """Aggregate the star at ``dimensions`` and store the result."""
        from ..mv.substitution import _force_enumerable
        from ..runtime.operators import execute_to_list
        dims = tuple(sorted(dimensions))
        star_fields = self.star_rel.row_type.fields
        calls = [m.call(star_fields) for m in self.measures]
        agg = LogicalAggregate(self.star_rel, list(dims), calls)
        rows = execute_to_list(_force_enumerable(agg))
        table = MemoryTable(
            f"{self.name}_tile_{'_'.join(map(str, dims))}",
            list(agg.row_type.field_names),
            [f.type for f in agg.row_type.fields], rows)
        opt_table = RelOptTable(
            (self.name, table.name), agg.row_type, source=table,
            row_count=float(len(rows)))
        tile = Tile(self, dims, opt_table)
        self.tiles.append(tile)
        return tile

    # ------------------------------------------------------------------
    def rewrite(self, agg: Aggregate) -> Optional[RelNode]:
        """Answer an aggregate over the star from the best tile."""
        if agg.input.digest != self.star_rel.digest:
            return None
        if not set(agg.group_set) <= set(self.dimension_columns):
            return None
        measure_pos: List[int] = []
        for call in agg.agg_calls:
            pos = self._measure_for(call)
            if pos is None:
                return None
            measure_pos.append(pos)
        candidates = [t for t in self.tiles if t.covers(agg.group_set)]
        if not candidates:
            return None
        tile = min(candidates, key=lambda t: t.row_count)
        self.rewrites += 1
        return self._rollup(agg, tile, measure_pos)

    def _measure_for(self, call: AggregateCall) -> Optional[int]:
        for i, m in enumerate(self.measures):
            if m.matches(call):
                return i
        return None

    def _rollup(self, agg: Aggregate, tile: Tile,
                measure_pos: List[int]) -> RelNode:
        scan = LogicalTableScan(tile.table)
        dim_pos = {d: i for i, d in enumerate(tile.dimensions)}
        group = [dim_pos[g] for g in agg.group_set]
        n_dims = len(tile.dimensions)
        star_fields = self.star_rel.row_type.fields
        calls = [AggregateCall(self.measures[pos].call(star_fields).rollup(),
                               [n_dims + pos], False, call.name, call.type)
                 for call, pos in zip(agg.agg_calls, measure_pos)]
        return LogicalAggregate(scan, group, calls)

    def __repr__(self) -> str:
        return f"Lattice({self.name}, dims={self.dimension_columns}, tiles={len(self.tiles)})"


def try_rewrite_with_lattices(rel: RelNode,
                              lattices: Sequence[Lattice]) -> Optional[RelNode]:
    """Rewrite aggregates over declared stars to tile rollups."""
    changed = [False]

    def rewrite(node: RelNode) -> RelNode:
        if isinstance(node, Aggregate):
            for lattice in lattices:
                replacement = lattice.rewrite(node)
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
