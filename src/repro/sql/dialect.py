"""SQL dialects for relational-to-SQL generation (Section 8.2).

"The JDBC adapter supports the generation of multiple SQL dialects,
including those supported by popular RDBMSes such as PostgreSQL and
MySQL."  A dialect controls identifier quoting, literal formatting, and
a few feature spellings (LIMIT vs FETCH).
"""

from __future__ import annotations

from typing import Any


class SqlDialect:
    """Base (Calcite) dialect: double-quoted identifiers, ANSI forms."""

    name = "calcite"
    identifier_quote = '"'
    supports_limit = True

    def quote_identifier(self, name: str) -> str:
        q = self.identifier_quote
        return f"{q}{name}{q}"

    def quote_literal(self, value: Any) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)

    def limit_clause(self, offset, fetch) -> str:
        parts = []
        if fetch is not None:
            parts.append(f"LIMIT {fetch}")
        if offset is not None:
            parts.append(f"OFFSET {offset}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SqlDialect({self.name})"


class PostgresqlDialect(SqlDialect):
    name = "postgresql"


class MysqlDialect(SqlDialect):
    name = "mysql"
    identifier_quote = "`"

    def limit_clause(self, offset, fetch) -> str:
        # MySQL has no OFFSET without LIMIT; its documented stand-in for
        # "all rows" is the largest unsigned BIGINT.
        if offset is not None and fetch is None:
            fetch = 18446744073709551615
        return super().limit_clause(offset, fetch)


class AnsiDialect(SqlDialect):
    name = "ansi"

    def limit_clause(self, offset, fetch) -> str:
        parts = []
        if offset is not None:
            parts.append(f"OFFSET {offset} ROWS")
        if fetch is not None:
            parts.append(f"FETCH NEXT {fetch} ROWS ONLY")
        return " ".join(parts)


DIALECTS = {
    "calcite": SqlDialect(),
    "postgresql": PostgresqlDialect(),
    "mysql": MysqlDialect(),
    "ansi": AnsiDialect(),
}


def dialect_for(name: str) -> SqlDialect:
    try:
        return DIALECTS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown dialect {name!r}; have {sorted(DIALECTS)}")
