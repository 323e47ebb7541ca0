"""Elasticsearch adapter + its simulated search store."""

from .adapter import (
    ELASTIC,
    ElasticQuery,
    ElasticSchema,
    ElasticTable,
)
from .store import ElasticError, ElasticStore

__all__ = ["ELASTIC", "ElasticError", "ElasticQuery", "ElasticSchema",
           "ElasticStore", "ElasticTable"]
