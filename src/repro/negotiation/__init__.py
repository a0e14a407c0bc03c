"""The Trust-X negotiation engine (paper Sections 4.1-4.2).

A Trust-X negotiation runs in two phases: a *policy-evaluation phase*
— a bilateral, ordered policy exchange that grows a negotiation tree
until one or more trust sequences satisfying both parties' disclosure
policies are found — and a *credential-exchange phase* that disclosures
credentials in sequence order, verifying each (signature, validity,
revocation, ownership) on receipt.

- :mod:`messages` — the protocol message vocabulary,
- :mod:`tree` — the negotiation tree (simple edges, multiedges, views),
- :mod:`sequence` — trust-sequence extraction from a satisfiable view,
- :mod:`strategies` — trusting / standard / suspicious /
  strong-suspicious,
- :mod:`agent` — the per-party Trust-X agent,
- :mod:`core` — the sans-IO protocol state machine (yields
  :class:`AgentOp` effects; drivers fulfil them),
- :mod:`engine` — the synchronous two-party negotiation driver,
- :mod:`outcomes` — results, transcripts, and the failure taxonomy.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.negotiation.agent": ("TrustXAgent",),
    "repro.negotiation.cache": ("CachingNegotiator", "SequenceCache"),
    "repro.negotiation.core": ("AgentOp", "NegotiationCore"),
    "repro.negotiation.eager": ("eager_negotiate",),
    "repro.negotiation.engine": ("NegotiationEngine", "negotiate"),
    "repro.negotiation.outcomes": ("FailureReason", "NegotiationResult"),
    "repro.negotiation.strategies": ("Strategy",),
    "repro.negotiation.tree": ("EdgeKind", "NegotiationTree", "NodeStatus"),
})

__all__ = [
    "TrustXAgent",
    "CachingNegotiator",
    "SequenceCache",
    "eager_negotiate",
    "AgentOp",
    "NegotiationCore",
    "NegotiationEngine",
    "negotiate",
    "NegotiationResult",
    "FailureReason",
    "Strategy",
    "NegotiationTree",
    "NodeStatus",
    "EdgeKind",
]
