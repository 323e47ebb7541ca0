"""Adapters over (simulated) heterogeneous backends (Section 5, Table 2).

Every backend declares what its scans can do through one
:class:`~repro.adapters.capability.ScanCapabilities` — which operators
it evaluates itself plus partitioned scans (serving one
``MOD(HASH(keys), n) = i`` shard server-side).  See
:mod:`repro.adapters.capability` for the interface and the shared
filter-decomposition helper, and :mod:`repro.adapters.pushdown` for the
planner rules generated from each backend's declaration.
"""

from .capability import (
    SCAN_ONLY,
    Comparison,
    ScanCapabilities,
    partition_of,
    split_comparisons,
)

__all__ = [
    "SCAN_ONLY",
    "Comparison",
    "ScanCapabilities",
    "partition_of",
    "split_comparisons",
]
