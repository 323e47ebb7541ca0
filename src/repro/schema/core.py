"""Schemas, tables and statistics (Section 5, Figure 3).

An adapter consists of a *model* (physical properties of the data
source), a *schema* (the definition of the data found in the model) and
a *schema factory* (acquires metadata from the model and generates the
schema).  Data is physically accessed via *tables*.

This module holds the engine-independent pieces; adapters subclass
:class:`Table` and register planner rules through :class:`Schema`.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.rel import RelOptTable
from ..core.traits import RelCollation
from ..core.types import DEFAULT_TYPE_FACTORY, RelDataType

_F = DEFAULT_TYPE_FACTORY


class Statistic:
    """Table statistics the optimizer's metadata providers consume."""

    def __init__(self, row_count: float = 100.0,
                 unique_keys: Sequence[Sequence[int]] = (),
                 collation: RelCollation = RelCollation.EMPTY) -> None:
        self.row_count = row_count
        self.unique_keys = [frozenset(k) for k in unique_keys]
        self.collation = collation


#: ``(partition_id, n_partitions, keys)``: one shard of a partitioned scan
Shard = Tuple[int, int, Sequence[int]]


class Table:
    """A queryable table exposed by an adapter.

    The minimal contract (the paper's "minimal interface that an
    adapter must implement") is :meth:`scan`; with just that, the
    enumerable convention can answer arbitrary SQL over the table.

    Backends additionally advertise what else their scans can do via
    :meth:`capabilities` (see
    :class:`repro.adapters.capability.ScanCapabilities`), and tables
    whose capability declares ``supports_partitioned_scan`` serve one
    shard of a partitioned scan through :meth:`scan_partition`.  Those
    declaring ``supports_key_lookup`` implement
    ``lookup(column, value)``: the rows whose column equals the value
    under SQL ``=`` (see :class:`repro.adapters.memory.MemoryTable`).
    Tables that hold their data column-wise may also serve
    :meth:`scan_columns`, which the vectorized engine prefers over
    :meth:`scan`.
    """

    def __init__(self, name: str, row_type: RelDataType,
                 statistic: Optional[Statistic] = None) -> None:
        self.name = name
        self.row_type = row_type
        self.statistic = statistic or Statistic()

    def scan(self) -> Iterable[tuple]:
        raise NotImplementedError

    def scan_columns(self, batch_size: int, shard: Optional[Shard] = None
                     ) -> Optional[Iterator[Tuple[List[list], int]]]:
        """The table as ``(columns, n)`` chunks of at most ``batch_size``
        rows, in :meth:`scan` order, or None when the table has no
        columnar path (the default).  With ``shard`` =
        ``(partition_id, n_partitions, keys)``, only the rows
        :meth:`scan_partition` serves for that shard, in its order.

        Each chunk is checked once for cancellation and deadline, so
        only tables that produce a chunk cheaply should serve one: a
        backend that takes real time per row keeps :meth:`scan`, whose
        rows are checked one at a time.  The lists handed out belong to
        the caller.
        """
        return None

    def capabilities(self) -> Any:
        """This table's :class:`~repro.adapters.capability.ScanCapabilities`.

        The base contract is scan-only; adapters override to declare
        pushdown/partitioning support.
        """
        from ..adapters.capability import SCAN_ONLY
        return SCAN_ONLY

    def scan_partition(self, partition_id: int, n_partitions: int,
                       keys: Sequence[int] = ()) -> Iterable[tuple]:
        """Serve one shard of a partitioned scan.

        With ``keys``, emits exactly the rows whose key columns hash to
        this partition under the canonical
        :func:`~repro.adapters.capability.partition_of` (co-partitioned
        with the parallel scheduler's hash split).  Without keys, deals
        out a disjoint stride slice — any disjoint cover is valid when
        no co-location is required.  This generic implementation still
        scans everything and filters client-side; backends that can
        filter server-side (e.g. SQL sources pushing
        ``MOD(HASH(keys), n) = i``) override it.
        """
        if not keys:
            return itertools.islice(self.scan(), partition_id, None, n_partitions)
        from ..adapters.capability import partition_of
        return (row for row in self.scan()
                if partition_of([row[k] for k in keys], n_partitions) == partition_id)

    #: adapters may set this to create their own physical scan node
    scan_factory: Optional[Callable[[RelOptTable], Any]] = None


class MemoryTable(Table):
    """An in-memory list-of-tuples table (the simplest adapter)."""

    def __init__(self, name: str, field_names: Sequence[str],
                 field_types: Sequence[RelDataType],
                 rows: Optional[List[tuple]] = None,
                 statistic: Optional[Statistic] = None) -> None:
        row_type = _F.struct(field_names, field_types)
        self.rows: List[tuple] = [tuple(r) for r in (rows or [])]
        if statistic is None:
            statistic = Statistic(row_count=float(len(self.rows)))
        super().__init__(name, row_type, statistic)

    def scan(self) -> Iterable[tuple]:
        return iter(self.rows)

    def insert(self, row: Sequence[Any]) -> None:
        self.rows.append(tuple(row))
        self.statistic.row_count = float(len(self.rows))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)


class ViewTable(Table):
    """A view: a named query expanded during SQL-to-rel conversion."""

    def __init__(self, name: str, sql: str, row_type: Optional[RelDataType] = None) -> None:
        # The row type is resolved lazily once the view SQL is planned.
        super().__init__(name, row_type or _F.struct([], []))
        self.sql = sql
        self._resolved_rel = None

    def scan(self) -> Iterable[tuple]:  # pragma: no cover - views expand in planning
        raise NotImplementedError("views are expanded during planning")


class Schema:
    """A namespace of tables, views, sub-schemas and planner rules."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.subschemas: Dict[str, "Schema"] = {}
        #: planner rules contributed by this adapter (Figure 3: "Rules")
        self.rules: List[Any] = []
        #: materialized views registered against this schema
        self.materializations: List[Any] = []
        #: lattices (Section 6) declared over this schema's star tables
        self.lattices: List[Any] = []
        #: bumped on every structural mutation (see :meth:`schema_version`)
        self._mutations = 0

    def add_table(self, table: Table) -> Table:
        self.tables[table.name.upper()] = table
        self._mutations += 1
        return table

    def add_subschema(self, schema: "Schema") -> "Schema":
        self.subschemas[schema.name.upper()] = schema
        self._mutations += 1
        return schema

    def add_rule(self, rule: Any) -> None:
        self.rules.append(rule)
        self._mutations += 1

    def schema_version(self) -> int:
        """A monotonically increasing structural version of this subtree.

        Counts explicit mutations plus the registered materializations,
        lattices and rules (which are commonly appended to directly),
        recursively over sub-schemas.  Plan caches compare versions to
        decide whether a cached plan may still be valid: any growth of
        the schema tree changes the version.
        """
        v = (self._mutations + len(self.materializations)
             + len(self.lattices) + len(self.rules))
        for sub in self.subschemas.values():
            v += sub.schema_version()
        return v

    def table(self, name: str) -> Optional[Table]:
        return self.tables.get(name.upper())

    def subschema(self, name: str) -> Optional["Schema"]:
        return self.subschemas.get(name.upper())

    def all_rules(self) -> List[Any]:
        rules = list(self.rules)
        for sub in self.subschemas.values():
            rules.extend(sub.all_rules())
        return rules

    def capability_entries(self, prefix: str = "") -> List[Tuple[str, Tuple]]:
        """(qualified name, capability fingerprint) for every table."""
        out: List[Tuple[str, Tuple]] = []
        for name, table in sorted(self.tables.items()):
            out.append((prefix + name, table.capabilities().fingerprint()))
        for name, sub in sorted(self.subschemas.items()):
            out.extend(sub.capability_entries(prefix + name + "."))
        return out

    def all_materializations(self) -> List[Any]:
        out = list(self.materializations)
        for sub in self.subschemas.values():
            out.extend(sub.all_materializations())
        return out

    def all_lattices(self) -> List[Any]:
        out = list(self.lattices)
        for sub in self.subschemas.values():
            out.extend(sub.all_lattices())
        return out


#: Process-wide identity tokens for catalogs (plan-cache keys must not
#: alias two different catalogs, even if one is garbage-collected and
#: another reuses its memory address).
_CATALOG_TOKENS = itertools.count()


class Catalog:
    """Root of the schema tree; resolves names to optimizer tables."""

    def __init__(self, root: Optional[Schema] = None) -> None:
        self.root = root or Schema("")
        self._opt_tables: Dict[int, RelOptTable] = {}
        #: schema search path for unqualified names
        self.default_path: List[str] = []
        #: stable identity for cache keys (never reused within a process)
        self.token = next(_CATALOG_TOKENS)
        self._explicit_version = 0

    @property
    def version(self) -> Tuple[int, int, Tuple[str, ...]]:
        """The catalog version a cached plan was built against.

        Combines the explicit invalidation counter (:meth:`invalidate`),
        the structural version of the schema tree, and the name search
        path (which changes how unqualified names resolve).  Plan caches
        key on this: any DDL-ish change — new table, schema, rule,
        materialization, lattice — yields a different version, so stale
        plans can never be served.
        """
        return (self._explicit_version, self.root.schema_version(),
                tuple(self.default_path))

    def invalidate(self) -> None:
        """Explicitly bump the catalog version.

        For mutations the structural version cannot see (e.g. a
        ``Table`` object changed in place): every plan cached against
        the old version stops matching immediately.
        """
        self._explicit_version += 1

    def add_schema(self, schema: Schema) -> Schema:
        return self.root.add_subschema(schema)

    def resolve_schema(self, path: Sequence[str]) -> Optional[Schema]:
        schema = self.root
        for part in path:
            schema = schema.subschema(part)
            if schema is None:
                return None
        return schema

    def find_table(self, names: Sequence[str]) -> Optional[Tuple[Table, Tuple[str, ...]]]:
        """Resolve a (possibly qualified) table name to a Table."""
        names = list(names)
        candidates: List[List[str]] = [names]
        if len(names) == 1 and self.default_path:
            candidates.insert(0, self.default_path + names)
        for cand in candidates:
            schema = self.resolve_schema(cand[:-1])
            if schema is None:
                continue
            table = schema.table(cand[-1])
            if table is not None:
                return table, tuple(cand)
        # search one level deep for unqualified names
        if len(names) == 1:
            for sub_name, sub in self.root.subschemas.items():
                table = sub.table(names[0])
                if table is not None:
                    return table, (sub_name, names[0])
        return None

    def resolve_table(self, names: Sequence[str]) -> Optional[RelOptTable]:
        """Resolve to a (cached) :class:`RelOptTable` for the planner.

        The handle is cached per table, but its ``row_count`` reads the
        table's live :class:`Statistic`, so the planner's estimates
        follow inserts.  Plans already cached are not invalidated by an
        insert.
        """
        found = self.find_table(names)
        if found is None:
            return None
        table, qualified = found
        key = id(table)
        if key not in self._opt_tables:
            stat = table.statistic
            self._opt_tables[key] = RelOptTable(
                qualified, table.row_type, source=table,
                unique_keys=stat.unique_keys,
                collation=stat.collation, scan_factory=table.scan_factory)
        return self._opt_tables[key]

    def capability_fingerprint(self) -> Tuple[Tuple[str, Tuple], ...]:
        """Adapter capability flags of every table, for plan-cache keys.

        Partitioning/pushdown capabilities shape the physical plan (a
        partition-pushdown scan is only valid against a backend that
        declared it), so a cached plan must never be served to a
        catalog whose adapters advertise different capabilities.
        """
        return tuple(self.root.capability_entries())

    def all_rules(self) -> List[Any]:
        return self.root.all_rules()

    def all_materializations(self) -> List[Any]:
        return self.root.all_materializations()

    def all_lattices(self) -> List[Any]:
        return self.root.all_lattices()
