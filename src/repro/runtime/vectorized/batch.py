"""The columnar data representation of the vectorized engine.

A :class:`ColumnBatch` holds a horizontal slice of a relation as
columns, one per field, plus an optional *selection vector* — the live
row positions, a list or an index array.  A column is a list of Python
values or, for an exact-int column read from a memory table and what
operators derive from one, a typed int64 array (:mod:`.typed`); batch code never imports numpy, and reads an array
column only through :mod:`.typed` or ``tolist()``.  Filters mark rows
dead by shrinking the selection vector instead of copying any column
data, and a projection of plain column references passes the vector
on with the columns it keeps; the first downstream operator that needs
contiguous columns calls :meth:`ColumnBatch.compact`, which gathers
(with ``take``, for arrays) only the columns the plan still carries
(vectorized join inputs are trimmed
to the fields read above them, :mod:`.trim`).

A table with a columnar path (``Table.scan_columns``, served by memory
tables) enters the engine as column chunks, and the hash join and
window operators work on whole columns too.  Rows are materialised (as
tuples, matching the row engine's representation exactly) only at the
engine boundary — the plan root, the ``RowToBatch`` bridge and
row-only sources, which :func:`batches_from_rows` pivots — or for
operators that are inherently row-oriented (sorting, distinct set
operations).  Materialising a selected batch gathers each column
through the selection once, turns each array into built-in values with
one ``tolist()``, and zips the results.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence

#: Default number of rows per batch.  Large enough to amortise per-batch
#: dispatch, small enough to keep working sets cache-friendly.
DEFAULT_BATCH_SIZE = 1024


class ColumnBatch:
    """A batch of rows stored column-wise with an optional selection."""

    __slots__ = ("columns", "num_rows", "selection")

    def __init__(self, columns: Sequence[Sequence], num_rows: int,
                 selection: Optional[Sequence[int]] = None) -> None:
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
        return ColumnBatch(gather_columns(self.columns, sel), len(sel))

    def with_selection(self, selection: Sequence[int]) -> "ColumnBatch":
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
        one and each array turned into built-in values (a C-level pass
        per column, not a generator per row)."""
        cols = self.columns
        if self.selection is not None:
            cols = gather_columns(cols, self.selection)
        return zip(*map(pylist, cols))

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:
        sel = "" if self.selection is None else f", sel={len(self.selection)}"
        return f"ColumnBatch({self.field_count}x{self.num_rows}{sel})"


class RowStream(chain):
    """The rows of a batch stream: each batch's :meth:`~ColumnBatch.iter_rows`
    chained, so rows are pulled at C speed rather than through a
    generator frame per row, and :meth:`close` closes the batch
    generator, so a consumer that stops early still tears down what
    produces them.  Pass a generator: its body, and so the plan, starts
    on the first row pulled."""

    __slots__ = ("_batches",)

    @classmethod
    def of(cls, batches: Iterator[ColumnBatch]) -> "RowStream":
        stream = cls.from_iterable(map(ColumnBatch.iter_rows, batches))
        stream._batches = batches
        return stream

    def close(self) -> None:
        self._batches.close()


def is_array(column: Sequence) -> bool:
    """True for a typed (numpy) column; batch columns are lists else."""
    return not isinstance(column, list)


def pylist(column: Sequence) -> list:
    """The column as a list of built-in Python values."""
    return column if isinstance(column, list) else column.tolist()


def gather_columns(columns: Sequence[Sequence], positions: Any) -> List[Any]:
    """Each column at ``positions`` (a list or an index array): arrays
    through ``take``, lists value by value."""
    if isinstance(positions, (list, range)) and all(isinstance(c, list)
                                           for c in columns):
        return [list(map(col.__getitem__, positions)) for col in columns]
    from . import typed
    return typed.gather(columns, positions)


def concat_batches(batches: Iterable[ColumnBatch],
                   field_count: int) -> ColumnBatch:
    """Concatenate batches into one compact batch (for blocking ops): a
    column is one array when every part of it is an array of one dtype,
    a list of built-in values otherwise."""
    parts: List[list] = [[] for _ in range(field_count)]
    n = 0
    for batch in batches:
        compacted = batch.compact()
        n += compacted.num_rows
        for i, col in enumerate(compacted.columns):
            parts[i].append(col)
    if all(isinstance(p, list) for cols in parts for p in cols):
        return ColumnBatch([list(chain.from_iterable(cols))
                            for cols in parts], n)
    from . import typed
    return ColumnBatch([typed.concat(cols) if cols else []
                        for cols in parts], n)


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
