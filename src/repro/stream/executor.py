"""Incremental execution of STREAM queries (Section 7.2).

The executor runs a STREAM query continuously: events are pushed into
:class:`~repro.stream.core.StreamTable` buffers, and each watermark
advance emits the *new* result rows.

The statement is planned once, through the planner's own phases, and
every advance runs that plan through :meth:`Planner.bind
<repro.framework.Planner.bind>`, so it gets the planner's deadline,
cancellation, retry policy and batch size like any other statement.

"Due to the inherently unbounded nature of streams, windowing is used
to unblock blocking operators such as aggregates and joins": when the
plan contains a group-window aggregate (TUMBLE), the executor only
admits events belonging to *closed* windows (window end ≤ watermark),
so emitted aggregate rows are final — the append-only semantics the
paper's examples rely on.  Stateless pipelines and time-bounded
stream-to-stream joins admit every event up to the watermark.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from ..core.rel import Delta, Project, RelNode, scanned_sources
from ..core.rex import GROUP_WINDOW_KINDS, RexCall, RexLiteral, RexNode
from .core import StreamTable


class StreamExecutor:
    """Drives one STREAM statement over its source stream tables."""

    def __init__(self, planner, sql: str) -> None:
        self.planner = planner
        rel = planner.rel(sql)
        if not isinstance(rel, Delta):
            raise ValueError(
                "not a streaming statement (missing STREAM keyword)")
        self.streams = [source for source in scanned_sources(rel.input)
                        if isinstance(source, StreamTable)]
        self.window_size = self._find_window_size(rel.input)
        self.prepared = planner.prepare_rel(rel.input, sql)
        self._emitted: Counter = Counter()
        self.rows_emitted = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _find_window_size(rel: RelNode) -> Optional[int]:
        """The TUMBLE interval if the plan aggregates on a group window."""
        found: List[int] = []

        def walk_rex(node: RexNode) -> None:
            if isinstance(node, RexCall):
                if node.kind in GROUP_WINDOW_KINDS and len(node.operands) >= 2:
                    interval = node.operands[1]
                    if isinstance(interval, RexLiteral):
                        found.append(int(interval.value))
                for o in node.operands:
                    walk_rex(o)

        def walk(node: RelNode) -> None:
            if isinstance(node, Project):
                for p in node.projects:
                    walk_rex(p)
            for i in node.inputs:
                walk(i)

        walk(rel)
        return found[0] if found else None

    # ------------------------------------------------------------------
    def advance(self, watermark: int) -> List[tuple]:
        """Advance event time; emit result rows that became final."""
        cutoff = watermark
        if self.window_size is not None:
            # only closed windows: admit events whose window has ended
            cutoff = (watermark // self.window_size) * self.window_size - 1
        for stream in self.streams:
            stream.visible_upto = cutoff
        try:
            rows = list(self.planner.bind(self.prepared).rows)
        finally:
            for stream in self.streams:
                stream.visible_upto = None
        current = Counter(rows)
        delta = current - self._emitted
        self._emitted = current
        out: List[tuple] = []
        for row, count in delta.items():
            out.extend([row] * count)
        self.rows_emitted += len(out)
        return out
