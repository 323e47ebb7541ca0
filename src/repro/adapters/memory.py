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
  partitioned store, rather than N filtered rescans.  A shard is read
  as rows (``scan_partition``) or as column chunks
  (``scan_columns(batch_size, shard)``), both from the assignment.
  Opening a shard read builds the assignment before the first chunk is
  taken, so a scheduler that opens one in its own process before
  forking workers leaves every worker the assignment to inherit.
* ``supports_key_lookup``: ``lookup(column, value)`` answers
  ``column = value`` from a hash index, so a point query reads the
  rows it returns instead of the whole table.  In-process rows make a
  scan cheap per row, not free: a row engine filtering 2 000 rows for
  one key spends its time in the per-row scan loop.  The index is a
  ``dict`` from key to the list of matching rows, built on the first
  lookup of a column and holding references to the table's own row
  tuples (the cost is the dict and one list per distinct key).
* ``scan_columns(batch_size)``: the full scan as column chunks, for the
  vectorized engine.  The table keeps a columnar copy — one plain list
  per column, built on the first columnar read — and hands out slices
  of it, so a batch scan copies each value reference once per chunk
  instead of pivoting row tuples into columns.  The copy holds
  references to the rows' own values: one pointer per cell, 8 bytes on
  64-bit CPython (4 MB for 100 000 rows of five columns).  No capability
  flag declares it; the vectorized scan asks every table, and the row
  engine never does.

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


def assign_partitions(columns: List[list], n: int, n_partitions: int,
                      keys: Tuple[int, ...]) -> Assignment:
    """Each row's partition under :func:`partition_of` on its ``keys``
    columns; without keys, a stride (any disjoint cover will do)."""
    if not keys:
        return [range(p, n, n_partitions) for p in range(n_partitions)]
    buckets: Assignment = [[] for _ in range(n_partitions)]
    for i, values in enumerate(zip(*[columns[k] for k in keys])):
        buckets[partition_of(values, n_partitions)].append(i)
    return buckets


def _chunks(columns: List[list], positions: Sequence[int],
            batch_size: int) -> Iterator[Tuple[List[list], int]]:
    """The rows at ``positions`` as ``(columns, n)`` chunks; a stride of
    positions is sliced, any other list gathered."""
    for lo in range(0, len(positions), batch_size):
        part = positions[lo:lo + batch_size]
        if isinstance(part, range):
            cut = slice(part.start, part.stop, part.step)
            yield [col[cut] for col in columns], len(part)
        else:
            yield ([list(map(col.__getitem__, part)) for col in columns],
                   len(part))


def _equals_nothing(value: Any) -> bool:
    """True for the values SQL ``=`` never matches: NULL, and NaN (which
    Python's ``==`` finds unequal even to itself)."""
    return value is None or value != value


class MemoryTable(BaseMemoryTable):
    """An in-memory table that serves hash-partitioned scans, key
    lookups and column chunks natively."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (columnar copy, assignment) per (n_partitions, keys) shape
        self._partitions: Dict[Tuple[int, Tuple[int, ...]],
                               Tuple[List[list], Assignment]] = {}
        #: cached hash index per column: key -> rows with that key
        self._indexes: Dict[int, Dict[Any, List[tuple]]] = {}
        #: the columnar copy as ``[(columns, n)]``, empty until first use
        self._columnar: List[Tuple[List[list], int]] = []

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
                     ) -> Iterator[Tuple[List[list], int]]:
        if shard is None:
            columns, n = self._columns()
            positions: Sequence[int] = range(n)
        else:
            partition_id, n_partitions, keys = shard
            columns, assignment = self._assignment(n_partitions, tuple(keys))
            positions = assignment[partition_id]
        return _chunks(columns, positions, batch_size)

    def scan_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> Iterable[tuple]:
        _, assignment = self._assignment(n_partitions, tuple(keys))
        # Rows are only ever appended, so positions in the copy the
        # assignment was computed from still name the same rows.
        return map(self.rows.__getitem__, assignment[partition_id])

    def _assignment(self, n_partitions: int, keys: Tuple[int, ...]
                   ) -> Tuple[List[list], Assignment]:
        """The columnar copy and, per partition, the positions in it of
        the partition's rows, in table order; built once per shape."""
        shape = (n_partitions, keys)
        cache = self._partitions
        entry = cache.get(shape)
        if entry is None:
            columns, n = self._columns()
            entry = cache[shape] = (
                columns, assign_partitions(columns, n, n_partitions, keys))
        return entry

    def _columns(self) -> Tuple[List[list], int]:
        holder = self._columnar
        if not holder:
            rows = list(self.rows)  # one snapshot: columns stay aligned
            if rows:
                columns = [list(col) for col in zip(*rows)]
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
