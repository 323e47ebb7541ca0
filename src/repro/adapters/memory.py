"""The in-memory adapter: the reference capability implementation.

The base :class:`repro.schema.core.MemoryTable` implements only the
minimal adapter contract — ``scan()``.  The :class:`MemoryTable` here
is the reference implementation of the unified capability interface
(:mod:`repro.adapters.capability`) and serves three access paths
besides the row-at-a-time scan:

* ``supports_partitioned_scan`` with the canonical ``"hash-mod"``
  scheme, so the exchange-elision pass can hand each worker of a
  parallel plan its own shard directly from the adapter instead of
  re-sharding a gathered stream.  The table keeps one *partition
  assignment* per ``(n_partitions, keys)`` request shape — for each
  partition, the positions of its rows, computed with
  :func:`~.capability.partition_of` over the columnar copy — so
  serving all N partitions costs one pass over the data, like a real
  partitioned store, rather than N filtered rescans.  With the
  assignment the table gathers each partition's columns from the
  columnar copy once, so a shard is read as rows (``scan_partition``,
  through the positions) or as column chunks
  (``scan_columns(batch_size, shard)``, slices of its own columns, as
  cheap per row as the full scan's; the price is one more copy of the
  columnar copy per shape).  Opening a shard read builds both
  before the first chunk is taken, so a scheduler that opens one in its
  own process before forking workers leaves every worker them to
  inherit.
* ``supports_key_lookup``: ``lookup(column, value)`` answers
  ``column = value`` from a hash index, so a point query reads the
  rows it returns instead of the whole table.  In-process rows make a
  scan cheap per row, not free: a row engine filtering 2 000 rows for
  one key spends its time in the per-row scan loop.  The index is a
  ``dict`` from key to the list of matching rows, built on the first
  lookup of a column and holding references to the table's own row
  tuples (the cost is the dict and one list per distinct key).
* ``scan_columns(batch_size)``: the full scan as column chunks, for the
  vectorized engine.  The table keeps a columnar copy, built on the
  first columnar read: a column whose values are all exact ints within
  int64 is one read-only numpy int64 array
  (:func:`repro.runtime.vectorized.typed.typed_column`, 8 bytes a cell
  and no value objects of its own), any other column a list of
  references to the rows' own values.  Chunks are slices of it (views
  of an array), so a batch scan never pivots row tuples into columns.  No capability flag declares it; the
  vectorized scan asks every table, and the row engine never does, so
  numpy is first imported when a vectorized plan reads a memory
  table.

All three caches are dropped, never patched, on ``insert``: a reader
that already holds an assignment, an index list or the columnar copy
keeps reading lists nobody mutates — a read sees the table as of its
opening — and the next request rebuilds from the grown table.

No predicate pushdown is declared: a key lookup is the one filter worth
serving natively, and the row engine keeps evaluating everything else.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..runtime.vectorized.batch import gather_columns, pylist
from ..schema.core import MemoryTable as BaseMemoryTable
from ..schema.core import Shard, Statistic
from .capability import ScanCapabilities, partition_of

_CAPABILITIES = ScanCapabilities(
    supports_partitioned_scan=True,
    partition_scheme="hash-mod",
    supports_key_lookup=True,
)


#: per partition, the positions of its rows in the columnar copy
Assignment = List[Sequence[int]]


def assign_partitions(columns: List[Any], n: int, n_partitions: int,
                      keys: Tuple[int, ...]) -> Assignment:
    """Each row's partition under :func:`partition_of` on its ``keys``
    columns, read as built-in values; without keys, a stride (any
    disjoint cover will do)."""
    if not keys:
        return [range(p, n, n_partitions) for p in range(n_partitions)]
    buckets: Assignment = [[] for _ in range(n_partitions)]
    for i, values in enumerate(zip(*[pylist(columns[k]) for k in keys])):
        buckets[partition_of(values, n_partitions)].append(i)
    return buckets


def _chunks(columns: List[Any], n: int,
            batch_size: int) -> Iterator[Tuple[List[Any], int]]:
    """``n`` rows of ``columns`` as ``(columns, rows)`` chunks of slices."""
    for lo in range(0, n, batch_size):
        yield ([col[lo:lo + batch_size] for col in columns],
               min(batch_size, n - lo))


def _equals_nothing(value: Any) -> bool:
    """True for the values SQL ``=`` never matches: NULL, and NaN (which
    Python's ``==`` finds unequal even to itself)."""
    return value is None or value != value


class MemoryTable(BaseMemoryTable):
    """An in-memory table that serves hash-partitioned scans, key
    lookups and column chunks natively."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (assignment, each partition's columns) per
        #: (n_partitions, keys) shape
        self._partitions: Dict[Tuple[int, Tuple[int, ...]],
                               Tuple[Assignment, List[List[Any]]]] = {}
        #: cached hash index per column: key -> rows with that key
        self._indexes: Dict[int, Dict[Any, List[tuple]]] = {}
        #: the columnar copy as ``[(columns, n)]``, empty until first use
        self._columnar: List[Tuple[List[Any], int]] = []

    def capabilities(self) -> ScanCapabilities:
        return _CAPABILITIES

    def insert(self, row: Sequence) -> None:
        super().insert(row)
        # Replace rather than clear: a cache built concurrently from the
        # old rows lands in the discarded container.
        self._partitions = {}
        self._indexes = {}
        self._columnar = []

    def scan_columns(self, batch_size: int, shard: Optional[Shard] = None
                     ) -> Iterator[Tuple[List[Any], int]]:
        if shard is None:
            columns, n = self._columns()
        else:
            partition_id, n_partitions, keys = shard
            assignment, shards = self._assignment(n_partitions, tuple(keys))
            columns = shards[partition_id]
            n = len(assignment[partition_id])
        return _chunks(columns, n, batch_size)

    def scan_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> Iterable[tuple]:
        assignment, _ = self._assignment(n_partitions, tuple(keys))
        # Rows are only ever appended, so positions in the copy the
        # assignment was computed from still name the same rows.
        return map(self.rows.__getitem__, assignment[partition_id])

    def _assignment(self, n_partitions: int, keys: Tuple[int, ...]
                   ) -> Tuple[Assignment, List[List[Any]]]:
        """Per partition, the positions in the columnar copy of the
        partition's rows, in table order, and those rows' columns
        gathered from the copy; built once per shape."""
        shape = (n_partitions, keys)
        cache = self._partitions
        entry = cache.get(shape)
        if entry is None:
            columns, n = self._columns()
            assignment = assign_partitions(columns, n, n_partitions, keys)
            entry = cache[shape] = (assignment, [
                gather_columns(columns, positions)
                for positions in assignment])
        return entry

    def _columns(self) -> Tuple[List[Any], int]:
        holder = self._columnar
        if not holder:
            rows = list(self.rows)  # one snapshot: columns stay aligned
            if rows:
                from ..runtime.vectorized.typed import typed_column
                columns = [typed_column(list(col)) for col in zip(*rows)]
            else:
                columns = [[] for _ in range(self.row_type.field_count)]
            holder.append((columns, len(rows)))
        return holder[0]

    def lookup(self, column: int, value: Any) -> Iterable[tuple]:
        """The rows whose ``column`` equals ``value`` under SQL ``=``, in
        table order.  Python's ``==`` and ``hash`` agree across numeric
        types, so an int column answers a float probe like ``=`` does."""
        if _equals_nothing(value):
            return iter(())
        indexes = self._indexes
        index = indexes.get(column)
        if index is None:
            index = {}
            for row in self.rows:
                key = row[column]
                if not _equals_nothing(key):
                    index.setdefault(key, []).append(row)
            indexes[column] = index
        try:
            return iter(index.get(value, ()))
        except TypeError:  # an unhashable probe equals no scalar key
            return iter(())


__all__ = ["MemoryTable", "Statistic", "ScanCapabilities"]
