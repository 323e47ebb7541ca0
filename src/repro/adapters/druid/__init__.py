"""Druid adapter + its simulated time-partitioned OLAP store."""

from .adapter import DRUID, DruidQuery, DruidSchema, DruidTable
from .store import DruidDatasource, DruidError, DruidStore

__all__ = ["DRUID", "DruidDatasource", "DruidError", "DruidQuery",
           "DruidSchema", "DruidStore", "DruidTable"]
