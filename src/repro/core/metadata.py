"""Metadata providers (Section 6).

Metadata guides the planner towards cheaper plans and feeds rules while
they are being applied.  The default provider supplies: the overall
cost of executing a subexpression, the number of rows and data size of
its results, selectivity of predicates, distinct-value counts, column
uniqueness, and the maximum degree of parallelism.

Providers are *pluggable*: systems push their own statistics by
registering a provider; each metadata request walks the provider chain
and the first non-``None`` answer wins.  Results are memoised in a
cache — the paper notes this "yields significant performance
improvements" when many metadata kinds share sub-computations (the
cache is benchmarked by ``benchmarks/bench_metadata_cache.py``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cost import RelOptCost
from .rel import (
    Aggregate,
    Converter,
    Correlate,
    Filter,
    Join,
    JoinRelType,
    Minus,
    Project,
    RelNode,
    SetOp,
    Sort,
    TableScan,
    Union,
    Values,
    Window,
)
from .rex import (
    COMPARISON_KINDS,
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
    decompose_conjunction,
)
from .types import SqlTypeName


class MetadataProvider:
    """Override any subset of these hooks; return None to defer."""

    def row_count(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[float]:
        return None

    def selectivity(self, rel: RelNode, predicate: Optional[RexNode],
                    mq: "RelMetadataQuery") -> Optional[float]:
        return None

    def distinct_row_count(self, rel: RelNode, keys: Tuple[int, ...],
                           mq: "RelMetadataQuery") -> Optional[float]:
        return None

    def columns_unique(self, rel: RelNode, keys: Tuple[int, ...],
                       mq: "RelMetadataQuery") -> Optional[bool]:
        return None

    def average_row_size(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[float]:
        return None

    def max_parallelism(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[int]:
        return None

    def non_cumulative_cost(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[RelOptCost]:
        return None

    def cumulative_cost(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[RelOptCost]:
        return None


class DefaultMetadataProvider(MetadataProvider):
    """Calcite-style default statistics when nothing better is plugged in."""

    # -- row counts -----------------------------------------------------
    def row_count(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[float]:
        delegate = getattr(rel, "metadata_rel", None)
        if delegate is not None:
            return mq.row_count(delegate)
        if isinstance(rel, TableScan):
            rows = float(rel.table.row_count)
            lookup = getattr(rel, "lookup", None)  # a keyed scan's equality
            if lookup is None:
                return rows
            if mq.columns_unique(rel, (lookup.column,)):
                return 1.0
            return rows * mq.selectivity(rel, lookup.condition)
        if isinstance(rel, Values):
            return float(len(rel.tuples))
        if isinstance(rel, Filter):
            return mq.row_count(rel.input) * mq.selectivity(rel.input, rel.condition)
        if isinstance(rel, (Project, Window, Converter)):
            return mq.row_count(rel.input)
        if isinstance(rel, Join):
            left = mq.row_count(rel.left)
            right = mq.row_count(rel.right)
            if rel.join_type in (JoinRelType.SEMI, JoinRelType.ANTI):
                return max(left * 0.5, 1.0)
            sel = self._join_selectivity(rel, mq)
            return max(left * right * sel, 1.0)
        if isinstance(rel, Correlate):
            return mq.row_count(rel.left)
        if isinstance(rel, Aggregate):
            if not rel.group_set:
                return 1.0
            distinct = mq.distinct_row_count(rel.input, tuple(rel.group_set))
            if distinct is not None:
                return distinct
            return max(mq.row_count(rel.input) * 0.1, 1.0)
        if isinstance(rel, Sort):
            n = mq.row_count(rel.input)
            if rel.offset:
                n = max(n - rel.offset, 0.0)
            if rel.fetch is not None:
                n = min(n, float(rel.fetch))
            return n
        if isinstance(rel, Union):
            return sum(mq.row_count(i) for i in rel.inputs)
        if isinstance(rel, Minus):
            return max(mq.row_count(rel.inputs[0]) * 0.5, 1.0)
        if isinstance(rel, SetOp):  # Intersect
            return max(min(mq.row_count(i) for i in rel.inputs) * 0.5, 1.0)
        if rel.inputs:
            return mq.row_count(rel.inputs[0])
        return 100.0

    def _join_selectivity(self, join: Join, mq: "RelMetadataQuery") -> float:
        info = join.analyze_condition()
        sel = 1.0
        for lk, rk in zip(info.left_keys, info.right_keys):
            left_distinct = mq.distinct_row_count(join.left, (lk,)) or mq.row_count(join.left)
            right_distinct = mq.distinct_row_count(join.right, (rk,)) or mq.row_count(join.right)
            denom = max(left_distinct, right_distinct, 1.0)
            sel *= 1.0 / denom
        for pred in info.non_equi:
            sel *= mq.selectivity(join, pred)
        return sel

    # -- selectivity ------------------------------------------------------
    def selectivity(self, rel: RelNode, predicate: Optional[RexNode],
                    mq: "RelMetadataQuery") -> Optional[float]:
        if predicate is None:
            return 1.0
        return _default_selectivity(predicate)

    # -- distinct counts --------------------------------------------------
    def distinct_row_count(self, rel: RelNode, keys: Tuple[int, ...],
                           mq: "RelMetadataQuery") -> Optional[float]:
        if not keys:
            return 1.0
        delegate = getattr(rel, "metadata_rel", None)
        if delegate is not None:
            return mq.distinct_row_count(delegate, keys)
        if isinstance(rel, TableScan):
            if mq.columns_unique(rel, keys):
                return float(rel.table.row_count)
            # heuristic: each key column is ~10% distinct, capped at rows
            n = float(rel.table.row_count)
            return min(n, max(n * (0.1 * len(keys)), 1.0))
        if isinstance(rel, Filter):
            inner = mq.distinct_row_count(rel.input, keys)
            if inner is None:
                return None
            return max(inner * mq.selectivity(rel.input, rel.condition), 1.0)
        if isinstance(rel, Project):
            src_keys = []
            for k in keys:
                p = rel.projects[k]
                if isinstance(p, RexInputRef):
                    src_keys.append(p.index)
                else:
                    return min(mq.row_count(rel), max(mq.row_count(rel) * 0.1, 1.0))
            return mq.distinct_row_count(rel.input, tuple(src_keys))
        if isinstance(rel, Aggregate):
            n_group = len(rel.group_set)
            if all(k < n_group for k in keys):
                return mq.distinct_row_count(rel.input, tuple(rel.group_set[k] for k in keys))
            return max(mq.row_count(rel) * 0.1, 1.0)
        if isinstance(rel, (Sort, Converter, Window)):
            return mq.distinct_row_count(rel.inputs[0], keys)
        n = mq.row_count(rel)
        return min(n, max(n * 0.1, 1.0))

    # -- uniqueness --------------------------------------------------------
    def columns_unique(self, rel: RelNode, keys: Tuple[int, ...],
                       mq: "RelMetadataQuery") -> Optional[bool]:
        key_set = frozenset(keys)
        delegate = getattr(rel, "metadata_rel", None)
        if delegate is not None:
            return mq.columns_unique(delegate, keys)
        if isinstance(rel, TableScan):
            return any(uk <= key_set for uk in rel.table.unique_keys)
        if isinstance(rel, Filter):
            return mq.columns_unique(rel.input, keys)
        if isinstance(rel, (Sort, Converter)):
            return mq.columns_unique(rel.inputs[0], keys)
        if isinstance(rel, Aggregate):
            n_group = len(rel.group_set)
            return frozenset(range(n_group)) <= key_set
        if isinstance(rel, Project):
            src = []
            for k in keys:
                p = rel.projects[k]
                if not isinstance(p, RexInputRef):
                    return False
                src.append(p.index)
            return mq.columns_unique(rel.input, tuple(src))
        return False

    # -- sizes / parallelism ------------------------------------------------
    def average_row_size(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[float]:
        size = 0.0
        for f in rel.row_type.fields:
            if f.type.is_numeric:
                size += 8.0
            elif f.type.is_character:
                size += float(f.type.precision or 32)
            elif f.type.type_name is SqlTypeName.BOOLEAN:
                size += 1.0
            elif f.type.is_complex or f.type.type_name is SqlTypeName.GEOMETRY:
                size += 64.0
            else:
                size += 12.0
        return size

    def max_parallelism(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[int]:
        if isinstance(rel, TableScan):
            source = rel.table.source
            splits = getattr(source, "split_count", 1) if source is not None else 1
            return max(int(splits), 1)
        if isinstance(rel, Aggregate) and not rel.group_set:
            return 1
        if isinstance(rel, Sort) and not rel.is_pure_limit():
            return 1
        if rel.inputs:
            return min(mq.max_parallelism(i) for i in rel.inputs)
        return 1

    # -- costs ----------------------------------------------------------------
    def non_cumulative_cost(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[RelOptCost]:
        compute = getattr(rel, "compute_self_cost", None)
        if compute is not None:
            cost = compute(mq)
            if cost is not None:
                return cost
        rows = mq.row_count(rel)
        if isinstance(rel, TableScan):
            return RelOptCost(rows, rows, rows * mq.average_row_size(rel))
        if isinstance(rel, Filter):
            return RelOptCost(rows, mq.row_count(rel.input), 0.0)
        if isinstance(rel, Project):
            return RelOptCost(rows, rows * max(len(rel.projects), 1) * 0.1, 0.0)
        if isinstance(rel, Join):
            left = mq.row_count(rel.left)
            right = mq.row_count(rel.right)
            info = rel.analyze_condition()
            if info.left_keys:
                cpu = left + right  # hash join
            else:
                cpu = left * right  # nested loops
            memory = right * mq.average_row_size(rel.right)
            return RelOptCost(rows, cpu, memory * 0.01)
        if isinstance(rel, Correlate):
            left = mq.row_count(rel.left)
            right = mq.row_count(rel.right)
            return RelOptCost(rows, left * max(right, 1.0), 0.0)
        if isinstance(rel, Aggregate):
            in_rows = mq.row_count(rel.input)
            return RelOptCost(rows, in_rows * (1 + len(rel.agg_calls)) * 0.5, 0.0)
        if isinstance(rel, Sort):
            in_rows = max(mq.row_count(rel.input), 1.0)
            if rel.is_pure_limit():
                return RelOptCost(rows, in_rows * 0.1, 0.0)
            return RelOptCost(rows, in_rows * math.log2(in_rows + 1.0), 0.0)
        if isinstance(rel, SetOp):
            total = sum(mq.row_count(i) for i in rel.inputs)
            return RelOptCost(rows, total, 0.0)
        if isinstance(rel, Values):
            return RelOptCost(rows, rows, 0.0)
        if isinstance(rel, Window):
            in_rows = max(mq.row_count(rel.input), 1.0)
            return RelOptCost(rows, in_rows * math.log2(in_rows + 1.0)
                              * max(len(rel.window_exprs), 1), 0.0)
        if isinstance(rel, Converter):
            in_rows = mq.row_count(rel.input)
            return RelOptCost(rows, in_rows, in_rows * 0.1)
        return RelOptCost(rows, rows, 0.0)

    def cumulative_cost(self, rel: RelNode, mq: "RelMetadataQuery") -> Optional[RelOptCost]:
        cost = mq.non_cumulative_cost(rel)
        for i in rel.inputs:
            cost = cost + mq.cumulative_cost(i)
        return cost


def _default_selectivity(predicate: RexNode) -> float:
    """Calcite's textbook guesses: = 0.15, range 0.5, fallback 0.25."""
    if isinstance(predicate, RexLiteral):
        if predicate.value is True:
            return 1.0
        if predicate.value in (False, None):
            return 0.0
        return 0.25
    if isinstance(predicate, RexCall):
        kind = predicate.kind
        if kind is SqlKind.AND:
            sel = 1.0
            for op in predicate.operands:
                sel *= _default_selectivity(op)
            return sel
        if kind is SqlKind.OR:
            sel = 1.0
            for op in predicate.operands:
                sel *= 1.0 - _default_selectivity(op)
            return 1.0 - sel
        if kind is SqlKind.NOT:
            return 1.0 - _default_selectivity(predicate.operands[0])
        if kind is SqlKind.EQUALS:
            return 0.15
        if kind in COMPARISON_KINDS:
            return 0.5
        if kind is SqlKind.IS_NULL:
            return 0.1
        if kind is SqlKind.IS_NOT_NULL:
            return 0.9
        if kind is SqlKind.LIKE:
            return 0.25
        if kind is SqlKind.IN:
            return 0.25
        if kind is SqlKind.BETWEEN:
            return 0.25
    return 0.25


class RelMetadataQuery:
    """The entry point for metadata requests, with a memoising cache.

    A fresh query object is created per planning session; the cache key
    is (metadata kind, rel id, extra args).  Set ``caching=False`` to
    measure the paper's claim about cache benefits.
    """

    def __init__(self, providers: Optional[Sequence[MetadataProvider]] = None,
                 caching: bool = True) -> None:
        base = [DefaultMetadataProvider()]
        self.providers: List[MetadataProvider] = list(providers or []) + base
        self.caching = caching
        self._cache: Dict[Tuple, Any] = {}
        self.stats_requests = 0
        self.stats_hits = 0

    def clear_cache(self) -> None:
        self._cache.clear()

    def _ask(self, kind: str, rel: RelNode, *args: Any) -> Any:
        self.stats_requests += 1
        key = (kind, rel.id, args)
        if self.caching and key in self._cache:
            self.stats_hits += 1
            return self._cache[key]
        result = None
        for provider in self.providers:
            result = getattr(provider, kind)(rel, *args, self)
            if result is not None:
                break
        if self.caching:
            self._cache[key] = result
        return result

    # typed façade --------------------------------------------------------
    def row_count(self, rel: RelNode) -> float:
        result = self._ask("row_count", rel)
        return float(result) if result is not None else 100.0

    def selectivity(self, rel: RelNode, predicate: Optional[RexNode]) -> float:
        key = ("selectivity", rel.id, predicate.digest if predicate else None)
        self.stats_requests += 1
        if self.caching and key in self._cache:
            self.stats_hits += 1
            return self._cache[key]
        result = None
        for provider in self.providers:
            result = provider.selectivity(rel, predicate, self)
            if result is not None:
                break
        result = float(result) if result is not None else 0.25
        if self.caching:
            self._cache[key] = result
        return result

    def distinct_row_count(self, rel: RelNode, keys: Tuple[int, ...]) -> Optional[float]:
        return self._ask("distinct_row_count", rel, tuple(keys))

    def columns_unique(self, rel: RelNode, keys: Tuple[int, ...]) -> bool:
        return bool(self._ask("columns_unique", rel, tuple(keys)))

    def average_row_size(self, rel: RelNode) -> float:
        result = self._ask("average_row_size", rel)
        return float(result) if result is not None else 32.0

    def max_parallelism(self, rel: RelNode) -> int:
        result = self._ask("max_parallelism", rel)
        return int(result) if result is not None else 1

    def non_cumulative_cost(self, rel: RelNode) -> RelOptCost:
        result = self._ask("non_cumulative_cost", rel)
        return result if result is not None else RelOptCost.TINY

    def cumulative_cost(self, rel: RelNode) -> RelOptCost:
        result = self._ask("cumulative_cost", rel)
        return result if result is not None else RelOptCost.TINY

    def data_size(self, rel: RelNode) -> float:
        """Estimated result size in bytes."""
        return self.row_count(rel) * self.average_row_size(rel)
