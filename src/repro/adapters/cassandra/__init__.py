"""Cassandra adapter + its simulated wide-column store."""

from .adapter import (
    CASSANDRA,
    CassandraQuery,
    CassandraSchema,
    CassandraTable,
)
from .store import CassandraError, CassandraStore, CassandraTableDef

__all__ = ["CASSANDRA", "CassandraError", "CassandraQuery", "CassandraSchema",
           "CassandraStore", "CassandraTable", "CassandraTableDef"]
