"""MongoDB adapter + its simulated document store."""

from .adapter import MONGO, MongoQuery, MongoSchema, MongoTable
from .store import MongoError, MongoStore

__all__ = ["MONGO", "MongoError", "MongoQuery", "MongoSchema", "MongoStore",
           "MongoTable"]
