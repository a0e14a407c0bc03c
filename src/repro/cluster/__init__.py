"""Multi-node TN service: consistent-hash routing and failover.

One :class:`~repro.services.tn_service.TNWebService` per shard, a
:class:`HashRing` to place sessions, and a
:class:`ShardedTNService` router bound at a single client-facing URL.
Clients keep speaking the three-operation TN protocol; the cluster
routes ``StartNegotiation`` by consistent hash, pins the minted
negotiation id to its shard, and — when a shard dies mid-negotiation —
fails the session over to the ring successor by replaying the dead
shard's durable :class:`~repro.storage.session_store.SessionStore`
journal.  Hedged ``StartNegotiation`` and health-aware shard ejection
are opt-in router policies (:class:`HedgePolicy`, :class:`HealthPolicy`).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cluster.health": ("HealthPolicy", "HealthTracker", "ShardHealth"),
    "repro.cluster.ring": ("HashRing",),
    "repro.cluster.sharded": (
        "HedgePolicy", "HedgeStats", "ShardNode", "ShardedTNService",
    ),
})

__all__ = [
    "HashRing",
    "HealthPolicy",
    "HealthTracker",
    "HedgePolicy",
    "HedgeStats",
    "ShardHealth",
    "ShardNode",
    "ShardedTNService",
]
