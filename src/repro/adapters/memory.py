"""The in-memory adapter: the reference capability implementation.

The base :class:`repro.schema.core.MemoryTable` implements only the
minimal adapter contract — ``scan()``.  The :class:`MemoryTable` here
is the reference implementation of the unified capability interface
(:mod:`repro.adapters.capability`) and serves three access paths
besides the row-at-a-time scan:

* ``supports_partitioned_scan`` with the canonical ``"hash-mod"``
  scheme, so the exchange-elision pass can hand each worker of a
  parallel plan its own shard directly from the adapter instead of
  re-sharding a gathered stream.  A keyed ``scan_partition`` buckets
  the table once per ``(n_partitions, keys)`` request shape and caches
  the buckets: serving all N partitions costs one pass over the data,
  like a real partitioned store, rather than N filtered rescans.  The
  per-partition call counters make the adapter the test probe for "did
  the planner actually push the partitioning down?".
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
  per column, built on the first columnar scan — and hands out slices
  of it, so a batch scan copies each value reference once per chunk
  instead of pivoting row tuples into columns.  The copy holds
  references to the rows' own values: one pointer per cell, 8 bytes on
  64-bit CPython (4 MB for 100 000 rows of five columns).  No capability
  flag declares it; the vectorized scan asks every table, and the row
  engine never does.

All three caches are dropped, never patched, on ``insert``: a reader
that already holds a bucket, an index list or the columnar copy keeps
reading lists nobody mutates — a scan sees the table as of its first
chunk — and the next request rebuilds from the grown table.

No predicate pushdown is declared: a key lookup is the one filter worth
serving natively, and the row engine keeps evaluating everything else.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..schema.core import MemoryTable as BaseMemoryTable
from ..schema.core import Statistic
from .capability import ScanCapabilities, partition_of

_CAPABILITIES = ScanCapabilities(
    supports_partitioned_scan=True,
    partition_scheme="hash-mod",
    supports_key_lookup=True,
)


def _equals_nothing(value: Any) -> bool:
    """True for the values SQL ``=`` never matches: NULL, and NaN (which
    Python's ``==`` finds unequal even to itself)."""
    return value is None or value != value


class MemoryTable(BaseMemoryTable):
    """An in-memory table that serves hash-partitioned scans, key
    lookups and column chunks natively."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: cached hash buckets per (n_partitions, keys) request shape
        self._buckets: Dict[Tuple[int, Tuple[int, ...]], List[List[tuple]]] = {}
        #: cached hash index per column: key -> rows with that key
        self._indexes: Dict[int, Dict[Any, List[tuple]]] = {}
        #: the columnar copy as ``[(columns, n)]``, empty until first use
        self._columnar: List[Tuple[List[list], int]] = []
        #: instrumentation: (partition_id, n_partitions, keys) per call
        self.partition_scans: List[Tuple[int, int, Tuple[int, ...]]] = []

    def capabilities(self) -> ScanCapabilities:
        return _CAPABILITIES

    def insert(self, row: Sequence) -> None:
        super().insert(row)
        # Replace rather than clear: a cache built concurrently from the
        # old rows lands in the discarded container.
        self._buckets = {}
        self._indexes = {}
        self._columnar = []

    def scan_columns(self, batch_size: int
                     ) -> Iterator[Tuple[List[list], int]]:
        holder = self._columnar
        if not holder:
            rows = list(self.rows)  # one snapshot: columns stay aligned
            if rows:
                columns = [list(col) for col in zip(*rows)]
            else:
                columns = [[] for _ in range(self.row_type.field_count)]
            holder.append((columns, len(rows)))
        columns, n = holder[0]
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            yield [col[lo:hi] for col in columns], hi - lo

    def scan_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> Iterable[tuple]:
        keys = tuple(keys)
        self.partition_scans.append((partition_id, n_partitions, keys))
        if not keys:
            # Stride slices are disjoint and free: no bucketing needed.
            return iter(self.rows[partition_id::n_partitions])
        shape = (n_partitions, keys)
        cache = self._buckets
        buckets = cache.get(shape)
        if buckets is None:
            buckets = [[] for _ in range(n_partitions)]
            for row in self.rows:
                buckets[partition_of([row[k] for k in keys], n_partitions)].append(row)
            cache[shape] = buckets
        return iter(buckets[partition_id])

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
