"""The normalized-SQL plan cache backing the query server.

Repeated statements dominate server traffic, and for this engine the
planning pipeline (parse → validate → Hep → Volcano) costs orders of
magnitude more than executing a small result.  The cache maps a
*normalized* SQL text plus the catalog version and the planning
configuration to the finished physical plan, so a repeat statement
skips the whole pipeline.

Key design points:

* :func:`normalize_sql` canonicalises the statement through the lexer:
  whitespace, comments, keyword case and token spacing all disappear,
  so ``select  X from T`` and ``SELECT X FROM T -- hi`` share one
  entry.  Identifier case is preserved (it is semantically visible in
  result column names), as are string literals.
* The key carries the owning catalog's identity token and version
  (:attr:`repro.schema.core.Catalog.version`) — a plan cached against
  an older catalog can never be served, and two catalogs never share
  entries — plus a fingerprint of every ``FrameworkConfig`` field that
  affects planning.
* Eviction is LRU with a fixed capacity; :meth:`PlanCache.invalidate`
  drops entries eagerly (the server calls it when it observes a catalog
  version change, so superseded plans do not squat in the LRU order).
* All operations take an internal lock: one cache is shared by every
  connection of a server tenant, and statements run concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ..sql.lexer import SqlLexError, tokenize

#: Default number of plans retained per cache.
DEFAULT_PLAN_CACHE_SIZE = 128


def normalize_sql(sql: str) -> str:
    """Canonicalise SQL text for use as a cache key.

    Tokenizes and re-joins with single spaces: whitespace runs,
    comments, and keyword case are erased; identifier case, quoted
    identifiers and string literals are preserved exactly (they are
    semantically visible).  Unlexable text is returned stripped, so the
    eventual parse error still comes from the real parser.
    """
    try:
        tokens = tokenize(sql)
    except SqlLexError:
        return sql.strip()
    parts = []
    for tok in tokens:
        if tok.kind == "EOF":
            break
        if tok.kind == "STRING":
            parts.append("'" + tok.value.replace("'", "''") + "'")
        elif tok.kind == "QUOTED_IDENT":
            parts.append('"' + tok.value + '"')
        else:
            # KEYWORD values are already uppercased by the lexer;
            # IDENT/NUMBER/OP are kept verbatim.
            parts.append(tok.value)
    return " ".join(parts)


class PlanCacheStats:
    """Counters exposed on results and in server stats."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlanCacheStats(hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions}, "
                f"invalidations={self.invalidations})")


class PlanCache:
    """A thread-safe LRU of prepared plans keyed on normalized SQL.

    Keys are opaque tuples built by the planner:
    ``(catalog token, catalog version, planning fingerprint,
    normalized sql)``.  Values are whatever the planner wants to reuse
    (here: :class:`repro.framework.PreparedPlan`).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def note_reuse(self) -> None:
        """Count a hit for a plan its holder re-executed without a
        lookup (a prepared statement pins its plan)."""
        with self._lock:
            self.stats.hits += 1

    def put(self, key: Tuple, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, predicate: Optional[Callable[[Tuple], bool]] = None) -> int:
        """Drop entries matching ``predicate`` (all entries if None).

        Returns the number of entries removed; they are counted as
        invalidations, not evictions.
        """
        with self._lock:
            if predicate is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [k for k in self._entries if predicate(k)]
                for k in doomed:
                    del self._entries[k]
                dropped = len(doomed)
            self.stats.invalidations += dropped
            return dropped

    def invalidate_catalog(self, token: int,
                           current_version: Optional[Tuple] = None) -> int:
        """Drop this catalog's entries; keep the current version's if given."""
        return self.invalidate(
            lambda key: key[0] == token
            and (current_version is None or key[1] != current_version))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries
