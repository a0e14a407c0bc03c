"""Performance layer: bounded caches and their counters.

See :mod:`repro.perf.caches` for the design notes.  This package must
not import from any other ``repro`` subpackage — every layer of the
stack imports *it*.
"""

from repro.perf.caches import (
    SIGNATURE_CACHE,
    XPATH_CACHE,
    CacheStats,
    LRUCache,
    all_caches,
    all_stats,
    clear_all_caches,
    drop_issuer_signatures,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "all_caches",
    "all_stats",
    "clear_all_caches",
    "XPATH_CACHE",
    "SIGNATURE_CACHE",
    "drop_issuer_signatures",
]
