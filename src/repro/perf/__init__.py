"""Performance layer: bounded caches and their counters.

See :mod:`repro.perf.caches` for the design notes.  This package must
not import from any other ``repro`` subpackage — every layer of the
stack imports *it*.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.perf.caches": (
        "CacheStats", "LRUCache", "SIGNATURE_CACHE", "XPATH_CACHE",
        "all_caches", "all_stats", "clear_all_caches",
        "drop_issuer_signatures",
    ),
})

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
