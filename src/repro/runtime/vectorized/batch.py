"""The columnar data representation of the vectorized engine.

A :class:`ColumnBatch` holds a horizontal slice of a relation as typed
columns (plain Python sequences, one per field) plus an optional
*selection vector* — a list of live row positions.  Filters mark rows
dead by shrinking the selection vector instead of copying any column
data, and a projection of plain column references passes the vector
on with the columns it keeps; the first downstream operator that needs
contiguous columns calls :meth:`ColumnBatch.compact`, which copies only
the columns the plan still carries (vectorized join inputs are trimmed
to the fields read above them, :mod:`.trim`).

A table with a columnar path (``Table.scan_columns``, served by memory
tables) enters the engine as column chunks, and the hash join and
window operators work on whole columns too.  Rows are materialised (as
tuples, matching the row engine's representation exactly) only at the
engine boundary — the plan root, the ``RowToBatch`` bridge and
row-only sources, which :func:`batches_from_rows` pivots — or for
operators that are inherently row-oriented (sorting, distinct set
operations, generic accumulators).  Materialising a selected batch
gathers each column through the selection once and zips the results.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

#: Default number of rows per batch.  Large enough to amortise per-batch
#: dispatch, small enough to keep working sets cache-friendly.
DEFAULT_BATCH_SIZE = 1024


class ColumnBatch:
    """A batch of rows stored column-wise with an optional selection."""

    __slots__ = ("columns", "num_rows", "selection")

    def __init__(self, columns: Sequence[Sequence], num_rows: int,
                 selection: Optional[List[int]] = None) -> None:
        self.columns = list(columns)
        self.num_rows = num_rows
        self.selection = selection

    # -- construction -----------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[tuple], field_count: int) -> "ColumnBatch":
        """Pivot row tuples into columns (``field_count`` disambiguates
        the zero-row case, where ``zip(*rows)`` loses the arity)."""
        if not rows:
            return ColumnBatch([[] for _ in range(field_count)], 0)
        return ColumnBatch([list(c) for c in zip(*rows)], len(rows))

    @staticmethod
    def empty(field_count: int) -> "ColumnBatch":
        return ColumnBatch([[] for _ in range(field_count)], 0)

    # -- introspection ----------------------------------------------------
    @property
    def field_count(self) -> int:
        return len(self.columns)

    @property
    def live_count(self) -> int:
        """Number of rows surviving the selection vector."""
        return self.num_rows if self.selection is None else len(self.selection)

    def is_compact(self) -> bool:
        return self.selection is None

    # -- transformation ---------------------------------------------------
    def compact(self) -> "ColumnBatch":
        """Apply the selection vector, yielding contiguous columns."""
        if self.selection is None:
            return self
        sel = self.selection
        return ColumnBatch([list(map(col.__getitem__, sel))
                            for col in self.columns], len(sel))

    def with_selection(self, selection: List[int]) -> "ColumnBatch":
        assert self.selection is None, "selection vectors do not nest"
        return ColumnBatch(self.columns, self.num_rows, selection)

    # -- row boundary -----------------------------------------------------
    def to_rows(self) -> List[tuple]:
        """Materialise the live rows as tuples.

        Zero-field batches yield no rows regardless of ``num_rows``,
        matching ``zip()`` on an empty column list.
        """
        return list(self.iter_rows())

    def iter_rows(self) -> Iterator[tuple]:
        """Stream the live rows as tuples: one ``zip`` over the columns,
        each gathered through the selection vector first when there is
        one (a C-level pass per column, not a generator per row)."""
        cols = self.columns
        sel = self.selection
        if sel is not None:
            cols = [list(map(col.__getitem__, sel)) for col in cols]
        return zip(*cols)

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:
        sel = "" if self.selection is None else f", sel={len(self.selection)}"
        return f"ColumnBatch({self.field_count}x{self.num_rows}{sel})"


def concat_batches(batches: Iterable[ColumnBatch],
                   field_count: int) -> ColumnBatch:
    """Concatenate batches into one compact batch (for blocking ops)."""
    cols: List[list] = [[] for _ in range(field_count)]
    n = 0
    for batch in batches:
        compacted = batch.compact()
        n += compacted.num_rows
        for i, col in enumerate(compacted.columns):
            cols[i].extend(col)
    return ColumnBatch(cols, n)


def batches_from_rows(rows: Iterable[tuple], field_count: int,
                      batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
    """Chunk a row iterator into column batches (the row→batch boundary)."""
    chunk: List[tuple] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield ColumnBatch.from_rows(chunk, field_count)
            chunk = []
    if chunk:
        yield ColumnBatch.from_rows(chunk, field_count)
