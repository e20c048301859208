"""Front door for a million-user load: tiered freshness-aware result
caching, admission control, and the open-loop serving harness."""

from repro.frontdoor.admission import AdmissionController, AdmissionStats, TokenBucket
from repro.frontdoor.cache import (
    CacheStats,
    TieredResultCache,
    result_oldest_timestamp,
)
from repro.frontdoor.config import AdmissionConfig, FrontDoorConfig
from repro.frontdoor.frontdoor import FrontDoor, FrontDoorBatchResult, FrontDoorResult
from repro.frontdoor.harness import OpenLoopReport, OpenLoopRunner, ServedRecord

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "CacheStats",
    "FrontDoor",
    "FrontDoorBatchResult",
    "FrontDoorConfig",
    "FrontDoorResult",
    "OpenLoopReport",
    "OpenLoopRunner",
    "ServedRecord",
    "TieredResultCache",
    "TokenBucket",
    "result_oldest_timestamp",
]
