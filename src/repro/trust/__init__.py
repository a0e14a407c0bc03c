"""Nonmonotonic trust: the retraction-event bus.

See :mod:`repro.trust.bus` for the design notes.  This package may
import :mod:`repro.perf`, :mod:`repro.errors`, and
:mod:`repro.credentials` but never :mod:`repro.negotiation` — the
negotiation layer registers its sequence caches *into* the bus via
:func:`register_sequence_cache`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.trust.bus": (
        "RetractionReceipt", "TrustBus", "TrustEvent", "TrustEventKind",
        "default_bus", "register_sequence_cache", "trust_epoch",
    ),
})

__all__ = [
    "TrustEvent",
    "TrustEventKind",
    "TrustBus",
    "RetractionReceipt",
    "trust_epoch",
    "register_sequence_cache",
    "default_bus",
]
