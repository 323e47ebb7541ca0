"""Splunk adapter + its simulated event store."""

from .adapter import SPLUNK, SplunkQuery, SplunkSchema, SplunkTable
from .store import SplunkError, SplunkStore

__all__ = ["SPLUNK", "SplunkError", "SplunkQuery", "SplunkSchema",
           "SplunkTable", "SplunkStore"]
