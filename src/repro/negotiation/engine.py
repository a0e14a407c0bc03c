"""The two-party negotiation driver (synchronous).

Runs the Trust-X protocol of Section 4.2 between two
:class:`~repro.negotiation.agent.TrustXAgent` instances:

1. **Policy-evaluation phase** — a bilateral, ordered policy exchange.
   The engine grows the negotiation tree breadth-first: a node owned by
   party P is either *deliverable* (P can release it freely),
   *unsatisfiable* (P lacks a matching credential — P answers
   "does not possess"), or expanded with P's alternative policies,
   whose body terms become child nodes owned by the counterpart.
   Satisfiability is propagated and a view (trust sequence) selected.
2. **Credential-exchange phase** — disclosures follow the sequence
   order; each received credential is verified (signature, validity,
   revocation, ownership challenge, policy conditions) and
   acknowledged, and the originally requested resource is granted last.

The protocol itself lives in the sans-IO
:class:`~repro.negotiation.core.NegotiationCore`; this engine is the
*synchronous driver*: it resolves each :class:`AgentOp` effect the core
yields against the two in-process agents and feeds the answer back.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from repro.negotiation.agent import TrustXAgent
from repro.negotiation.core import (
    DEFAULT_NEGOTIATION_TIME,
    NegotiationCore,
    drive,
    record_outcome_obs,
)
from repro.obs import (
    enabled as obs_enabled,
    span as obs_span,
)
from repro.negotiation.outcomes import NegotiationResult

__all__ = ["NegotiationEngine", "negotiate", "DEFAULT_NEGOTIATION_TIME"]


@dataclass
class NegotiationEngine:
    """Drives one negotiation between a requester and a controller."""

    requester: TrustXAgent
    controller: TrustXAgent
    max_depth: int = 16
    max_nodes: int = 512
    view_limit: int = 64
    #: How to pick among the potential trust sequences ("one or more
    #: potential trust sequences are determined", paper Section 4.2):
    #: ``"first"`` — the first alternative offered (fewest policy-phase
    #: surprises, the prototype's behaviour); ``"min_disclosure"`` —
    #: enumerate views (up to ``view_limit``) and pick the one
    #: disclosing the fewest credentials; ``"min_sensitivity"`` — pick
    #: the one with the lowest summed sensitivity, ties broken by
    #: disclosure count.
    view_selection: str = "first"

    def _core(self) -> NegotiationCore:
        return NegotiationCore(
            requester=self.requester.name,
            controller=self.controller.name,
            max_depth=self.max_depth,
            max_nodes=self.max_nodes,
            view_limit=self.view_limit,
            view_selection=self.view_selection,
        )

    def run(
        self, resource: str, at: Optional[datetime] = None
    ) -> NegotiationResult:
        """Negotiate the release of ``resource`` held by the controller."""
        if not obs_enabled():
            return self._run(resource, at)
        with obs_span(
            "tn.negotiation",
            resource=resource,
            requester=self.requester.name,
            controller=self.controller.name,
        ) as root:
            result = self._run(resource, at)
            root.set(
                success=result.success,
                policy_messages=result.policy_messages,
                exchange_messages=result.exchange_messages,
            )
        record_outcome_obs(resource, result)
        return result

    def _run(
        self, resource: str, at: Optional[datetime]
    ) -> NegotiationResult:
        agents = {
            self.requester.name: self.requester,
            self.controller.name: self.controller,
        }
        return drive(self._core().run(resource, at), agents)


def negotiate(
    requester: TrustXAgent,
    controller: TrustXAgent,
    resource: str,
    at: Optional[datetime] = None,
    **engine_options,
) -> NegotiationResult:
    """Convenience wrapper: build an engine and run one negotiation."""
    return NegotiationEngine(requester, controller, **engine_options).run(
        resource, at=at
    )
