"""JDBC adapter + its simulated backend (MiniDB)."""

from .adapter import JdbcQuery, JdbcSchema, JdbcTable
from .minidb import MiniDb, MiniDbError, MiniTable

__all__ = ["JdbcQuery", "JdbcSchema", "JdbcTable", "MiniDb", "MiniDbError",
           "MiniTable"]
