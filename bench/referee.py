"""The referee: the same rows in stdlib ``sqlite3``, queried with the same
SQL text, decide what every benchmark statement must return.

Dialect shims (all on the referee's side; the engine sees the SQL as is):

* schemas ``lib`` and ``ev`` are two in-memory databases ``ATTACH``ed under
  those names, so ``lib.document`` resolves unchanged;
* ``?`` parameters are sqlite's own qmark style;
* results are compared as *row count + order-insensitive checksum*: each
  row is hashed after rounding floats to 9 places (``AVG`` is a float on
  both sides; ``hash(2.0) == hash(2)`` makes int/float spelling moot) and
  the hashes are summed modulo 2**64.  ``ORDER BY ... LIMIT`` statements
  have total orders by construction and are compared as ordered lists;
* window frames: sqlite defaults to ``RANGE`` and the engine to ``ROWS``;
  every window here orders by a key unique within its partition, where the
  two coincide.

Nothing here is ever inside a timed span.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, List, Optional, Tuple

from .data import TABLES, Statement

_SQLITE_TYPES = {"int": "INTEGER", "text": "TEXT", "real": "REAL"}
_MASK = (1 << 64) - 1

#: (row count, checksum, ordered rows or None)
Digest = Tuple[int, int, Optional[List[tuple]]]


def _normal(row: tuple) -> tuple:
    return tuple(round(v, 9) if type(v) is float else v for v in row)


def digest(rows: Iterable[tuple], ordered: bool) -> Digest:
    """Reduce a result to what is compared.  The checksum uses ``hash``,
    which is salted per process for strings: digests are only comparable
    within one process."""
    count = total = 0
    kept: Optional[List[tuple]] = [] if ordered else None
    for row in rows:
        row = _normal(row)
        count += 1
        total = (total + hash(row)) & _MASK
        if kept is not None:
            kept.append(row)
    return count, total, kept


class Referee:
    def __init__(self, tables: Dict[str, List[tuple]]) -> None:
        self._db = sqlite3.connect(":memory:", check_same_thread=False)
        for schema in sorted({name.split(".")[0] for name in TABLES}):
            self._db.execute(f"ATTACH DATABASE ':memory:' AS {schema}")
        for name, columns in TABLES.items():
            cols = ", ".join(f"{c} {_SQLITE_TYPES[k]}" for c, k in columns)
            self._db.execute(f"CREATE TABLE {name} ({cols})")
            marks = ", ".join("?" * len(columns))
            self._db.executemany(f"INSERT INTO {name} VALUES ({marks})",
                                 tables[name])
        self._db.commit()
        self._expected: Dict[Tuple[str, tuple], Digest] = {}

    def expected(self, statement: Statement) -> Digest:
        key = (statement.sql, statement.params)
        found = self._expected.get(key)
        if found is None:
            rows = self._db.execute(statement.sql, statement.params)
            found = self._expected[key] = digest(rows, statement.ordered)
        return found

    def close(self) -> None:
        self._db.close()
