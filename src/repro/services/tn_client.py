"""``ClientWS``: the client application driving a negotiation.

"A client application has also been developed, ClientWS.java,
implementing the negotiation protocol by invoking the Web service's
operations" (paper Section 6.2).  The client walks the three
operations in order and returns the final
:class:`~repro.negotiation.outcomes.NegotiationResult`.

Every logical call carries idempotency tokens — a deterministic
``requestId`` for ``StartNegotiation`` and a per-negotiation
``clientSeq`` for the phase operations — so a retried delivery (the
transport below may be a
:class:`~repro.services.resilience.ResilientTransport` retrying over a
faulty network) is deduplicated server-side instead of re-executing.

:meth:`TNClient.anegotiate` runs the same three-call sequence from an
asyncio task, yielding to the event loop between calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime
from typing import Generator, Optional

from repro.errors import ServiceError
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.outcomes import NegotiationResult
from repro.negotiation.strategies import Strategy
from repro.services.transport import SimTransport

__all__ = ["TNClient", "next_request_id"]

#: Process-wide requestId counter.  The TN service deduplicates
#: ``StartNegotiation`` on the requestId *globally*, so the id must be
#: unique across every client instance — a per-instance counter would
#: make two fresh clients for the same agent collide on ``name:req-1``
#: and silently receive each other's negotiation session.
_request_ids: "itertools.count[int]" = itertools.count(1)


def next_request_id(agent_name: str, resource: str) -> str:
    """Mint a process-unique ``StartNegotiation`` requestId."""
    return f"{agent_name}:{resource}:req-{next(_request_ids)}"


@dataclass
class TNClient:
    """Drives negotiations against one TN Web service endpoint."""

    transport: SimTransport  # or ResilientTransport / FaultInjector
    service_url: str
    agent: TrustXAgent
    #: Optional absolute per-operation deadline (simulated ms) carried
    #: as ``deadlineMs`` so a hardened service sheds expired work
    #: before evaluation.  A :class:`ResilientTransport` in the stack
    #: fills this automatically from its own budget when unset.
    deadline_ms: Optional[float] = None
    #: Optional explicit priority class (``"operation"`` /
    #: ``"formation"`` / ``"identification"``) for admission control.
    priority: Optional[str] = None

    def _extras(self) -> dict:
        extras: dict = {}
        if self.deadline_ms is not None:
            extras["deadlineMs"] = self.deadline_ms
        if self.priority is not None:
            extras["priority"] = self.priority
        return extras

    def _steps(
        self,
        resource: str,
        strategy: Optional[Strategy],
        at: Optional[datetime],
    ) -> Generator[tuple[str, dict], dict, NegotiationResult]:
        """StartNegotiation → PolicyExchange → CredentialExchange as
        ``(operation, payload)`` steps; each step is sent the response
        to the previous one, and the generator returns the result."""
        strategy = strategy or self.agent.strategy
        extras = self._extras()
        start = yield "StartNegotiation", {
            "requester": self.agent,
            "strategy": strategy.value,
            "counterpartUrl": f"urn:repro:{self.agent.name}",
            "requestId": next_request_id(self.agent.name, resource),
            **extras,
        }
        negotiation_id = start.get("negotiationId")
        if not negotiation_id:
            raise ServiceError("StartNegotiation returned no negotiation id")
        yield "PolicyExchange", {
            "negotiationId": negotiation_id,
            "resource": resource,
            "at": at,
            "clientSeq": 1,
            **extras,
        }
        exchange = yield "CredentialExchange", {
            "negotiationId": negotiation_id,
            "clientSeq": 2,
            **extras,
        }
        result = exchange.get("result")
        if not isinstance(result, NegotiationResult):
            raise ServiceError("CredentialExchange returned no result")
        return result

    def negotiate(
        self,
        resource: str,
        strategy: Optional[Strategy] = None,
        at: Optional[datetime] = None,
    ) -> NegotiationResult:
        """Run StartNegotiation → PolicyExchange → CredentialExchange."""
        steps = self._steps(resource, strategy, at)
        try:
            operation, payload = next(steps)
            while True:
                response = self.transport.call(
                    self.service_url, operation, payload
                )
                operation, payload = steps.send(response)
        except StopIteration as done:
            return done.value

    async def anegotiate(
        self,
        resource: str,
        strategy: Optional[Strategy] = None,
        at: Optional[datetime] = None,
    ) -> NegotiationResult:
        """:meth:`negotiate` as a coroutine.

        Awaits ``asyncio.sleep(0)`` before each of the three calls, so
        concurrent tasks interleave their protocol turns and hold many
        sessions open at once; the calls themselves are the same sync
        transport calls, so the result equals :meth:`negotiate`'s.
        """
        # Imported here so the sync client never loads the event loop.
        import asyncio

        steps = self._steps(resource, strategy, at)
        try:
            operation, payload = next(steps)
            while True:
                await asyncio.sleep(0)
                response = self.transport.call(
                    self.service_url, operation, payload
                )
                operation, payload = steps.send(response)
        except StopIteration as done:
            return done.value
