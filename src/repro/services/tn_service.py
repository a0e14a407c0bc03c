"""The TN Web service (paper Section 6.2).

Exposes the three operations of the prototype:

``StartNegotiation``
    Receives the invoker's strategy, the counterpart reference, and the
    database parameters; opens the database connection, assigns a
    unique negotiation id, and returns it.

``PolicyExchange``
    Runs the policy-evaluation phase: "checks if the database contains
    disclosure policies protecting the credentials requested in the
    counterpart's disclosure policies" and returns them; iterated until
    a trust sequence is (or cannot be) determined.

``CredentialExchange``
    Runs the credential-exchange phase: "verifies the validity of the
    counterpart's credential ... then selects the next credential to be
    sent".

Simulation note: the protocol logic lives in
:class:`~repro.negotiation.engine.NegotiationEngine`; the service runs
the engine when ``PolicyExchange`` is first invoked and then *bills*
each phase's messages, database accesses, and cryptographic operations
to the latency model, so the simulated wall-clock reflects the same
per-message round trips the prototype paid without re-implementing the
protocol at the wire level.

Resilience (this module's additions for partial failure):

- **Idempotency** — ``StartNegotiation`` deduplicates on the client's
  ``requestId``; the phase operations deduplicate on the per-session
  ``clientSeq`` number, replaying the recorded response without
  re-billing.  A retried call whose first delivery *did* execute (a
  lost response) is therefore harmless.
- **Checkpoints** — after every operation the session's durable state
  is appended as one ``<negotiationSession>`` element to the service's
  :class:`~repro.storage.session_store.SessionStore` journal, the one
  durable copy of a session.  Checkpoints survive a service crash.
- **Residency** — a terminal session stays in memory for one session
  TTL after its last contact, so every faithful retry inside a client
  deadline is replayed from its recorded response.  Then it leaves
  memory and lives only in the journal: a later contact reads its
  final checkpoint back, as a restarted node would see it.
- **Suspend/resume** — :meth:`crash` simulates the process dying
  (volatile sessions lost, URL unbound); :meth:`TNWebService.restore`
  rebuilds a service from the journal and continues interrupted
  negotiations: with the requester agent available the engine re-runs
  deterministically at the checkpointed negotiation time (same
  disclosures, same sequence); without it, a checkpointed outcome is
  served as a degraded result.
- **Sequence caching** — with a
  :class:`~repro.negotiation.cache.SequenceCache` attached, repeat or
  resumed negotiations replay the cached trust sequence instead of
  re-running the policy phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional
from xml.etree import ElementTree as ET

from repro.errors import (
    CredentialRevokedError,
    ErrorCode,
    InternalServiceError,
    ReproError,
    ServiceError,
    SessionError,
    TransportError,
)
from repro.hardening.config import HardeningConfig
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    gauge as obs_gauge,
    span as obs_span,
)
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.cache import CachingNegotiator, SequenceCache
from repro.negotiation.engine import NegotiationEngine
from repro.negotiation.outcomes import (
    FailureReason,
    NegotiationResult,
    TranscriptEvent,
    UNSATISFIABLE_REASONS,
)
from repro.negotiation.strategies import Strategy
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from repro.storage.session_store import InMemorySessionStore, SessionStore
from repro.trust import trust_epoch

__all__ = ["TNWebService", "NegotiationSession", "TERMINAL_PHASES"]

#: The phases of a session that accepts no new work: ``exchange`` (set
#: only once the exchange phase produced a result) and ``expired`` (set
#: by the TTL reaper).  A checkpoint in one of them is terminal.
TERMINAL_PHASES = frozenset({"exchange", "expired"})


@dataclass
class NegotiationSession:
    """Server-side state of one negotiation."""

    session_id: str
    requester: Optional[TrustXAgent]
    strategy: Strategy
    requester_name: str = ""
    request_id: str = ""
    resource: Optional[str] = None
    at: Optional[datetime] = None
    result: Optional[NegotiationResult] = None
    #: "started" | "policy" | "exchange" | "expired"
    phase: str = "started"
    policy_phase_billed: bool = False
    exchange_phase_billed: bool = False
    last_seq: int = 0
    #: Recorded ``(operation, resource, response)`` by clientSeq, for
    #: duplicate/retry deduplication (volatile: not part of the
    #: checkpoint).  Operation and resource are kept so a replay with a
    #: *different* payload is rejected instead of answered with stale
    #: data.
    responses: dict[int, tuple[str, str, dict]] = field(
        default_factory=dict
    )
    restored: bool = False
    #: Simulated ms of the last inbound message, for TTL reaping and
    #: the replay window; checkpointed.
    touched_ms: float = 0.0
    #: The process-wide trust epoch the stored ``result`` was computed
    #: under; a later epoch forces a revocation re-check before the
    #: result is replayed.  (0 — e.g. after a crash restore — always
    #: forces the re-check.)
    trust_epoch: int = 0

    def __post_init__(self) -> None:
        if not self.requester_name and self.requester is not None:
            self.requester_name = self.requester.name

    @property
    def terminal(self) -> bool:
        """A terminal session accepts no new work: the exchange phase
        produced its result, or the TTL reaper expired it."""
        return self.phase in TERMINAL_PHASES


class TNWebService:
    """The service endpoint owned by one party (the controller side)."""

    def __init__(
        self,
        owner: TrustXAgent,
        transport: SimTransport,
        store: XMLDocumentStore,
        url: str,
        cache: Optional[SequenceCache] = None,
        hardening: Optional[HardeningConfig] = None,
        session_store: Optional[SessionStore] = None,
        node_id: Optional[str] = None,
    ) -> None:
        self.owner = owner
        self.transport = transport
        self.store = store
        self.url = url
        self.cache = cache
        self.hardening = hardening
        #: The checkpoint journal, sink and recovery source of every
        #: session; pass it to :meth:`restore` to resume this service.
        self.session_store = (
            session_store if session_store is not None
            else InMemorySessionStore()
        )
        #: Session-id prefix.  Cluster shards mint from disjoint
        #: namespaces (``tn-s0-1``, ``tn-s1-1``, ...), so ids never
        #: collide and the router places a session by its prefix.
        self.node_id = node_id or "tn"
        self.guard = hardening.guard() if hardening is not None else None
        self.admission = (
            hardening.admission() if hardening is not None else None
        )
        self.internal_errors = 0
        self._session_ids = itertools.count(1)
        #: Resident sessions; a terminal one leaves after a TTL idle.
        self._sessions: dict[str, NegotiationSession] = {}
        self._requests: dict[str, str] = {}  # requestId -> session_id
        #: Resident terminal sessions, least recently contacted first:
        #: the eviction sweep walks it from the front.
        self._terminal: dict[str, None] = {}
        #: Journalled sessions handed off to another node (migration,
        #: a cancelled hedge leg): no longer this node's to answer.
        self._released: set[str] = set()
        self.sessions_evicted = 0
        self._closed = False
        #: Live (non-terminal) session count and its high-water mark —
        #: the service-side measure of concurrent-session capacity.
        self._in_flight = 0
        self.in_flight_peak = 0
        self._persist_owner_state()
        transport.bind(url, self.handle)

    # -- in-flight session accounting ----------------------------------------------

    @property
    def sessions_in_flight(self) -> int:
        """Live (non-terminal) sessions this service currently holds."""
        return self._in_flight

    def _track_opened(self, session: NegotiationSession) -> None:
        if session.terminal:
            return
        self._in_flight += 1
        if self._in_flight > self.in_flight_peak:
            self.in_flight_peak = self._in_flight
        self._publish_in_flight()

    def _track_terminal(self, count: int = 1) -> None:
        self._in_flight = max(0, self._in_flight - count)
        self._publish_in_flight()

    def _publish_in_flight(self) -> None:
        if obs_enabled():
            obs_gauge("tn_service.sessions_in_flight", self._in_flight)
            obs_gauge(
                "tn_service.sessions_in_flight_peak", self.in_flight_peak
            )

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Graceful shutdown: checkpoint, unbind, and clear sessions.

        Idempotent.  Only non-terminal sessions are checkpointed: a
        terminal session's final state is in the journal already.  After
        ``close()`` the URL is free again, so a new service (or
        :meth:`restore`) can bind at the same address.
        """
        if self._closed:
            return
        for session in self._sessions.values():
            if not session.terminal:
                self._checkpoint(session)
        self.transport.unbind(self.url)
        self._forget_all()

    def crash(self) -> None:
        """Simulate the process dying: volatile state is lost *without*
        a final checkpoint flush; only per-operation checkpoints
        already in the journal survive."""
        self.transport.unbind(self.url)
        self._forget_all()

    def _forget_all(self) -> None:
        self._sessions.clear()
        self._requests.clear()
        self._terminal.clear()
        self._released.clear()
        self._closed = True
        if self._in_flight:
            self._track_terminal(self._in_flight)

    def __enter__(self) -> "TNWebService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def restore(
        cls,
        owner: TrustXAgent,
        transport: SimTransport,
        store: XMLDocumentStore,
        url: str,
        agents: Optional[dict[str, TrustXAgent]] = None,
        cache: Optional[SequenceCache] = None,
        hardening: Optional[HardeningConfig] = None,
        *,
        session_store: SessionStore,
        node_id: Optional[str] = None,
    ) -> "TNWebService":
        """Rebuild a service from the checkpoints in ``session_store``.

        ``agents`` maps requester names back to their in-process agent
        references (the prototype would re-resolve SOAP endpoints); a
        session whose requester cannot be resolved degrades to its
        checkpointed outcome.

        The journal is replayed into per-session latest state and the
        restored service keeps appending to it.  The restored service
        owns every journalled session but keeps only non-terminal ones
        in memory; terminal ones are read back on contact.  Live
        sessions re-anchor their TTL at restore time; their original
        ``touched_ms`` belongs to the dead node's timeline and would
        otherwise get them reaped as "expired" the moment the reaper
        runs.
        """
        service = cls(
            owner, transport, store, url, cache=cache, hardening=hardening,
            session_store=session_store, node_id=node_id,
        )
        agents = agents or {}
        checkpoints_by_id = session_store.latest()
        highest = 0
        now_ms = transport.clock.elapsed_ms
        for doc_id in sorted(checkpoints_by_id):
            session = service._rebuild(checkpoints_by_id[doc_id], agents)
            if session.request_id:
                service._requests[session.request_id] = session.session_id
            prefix, _, suffix = session.session_id.rpartition("-")
            if suffix.isdigit():
                highest = max(highest, int(suffix))
            if not session.terminal:
                session.touched_ms = now_ms
                service._sessions[session.session_id] = session
                service._track_opened(session)
        service._session_ids = itertools.count(highest + 1)
        if obs_enabled():
            obs_event(
                "tn_service.restore",
                clock=transport.clock,
                url=url,
                sessions=len(checkpoints_by_id),
            )
        return service

    def adopt_session(
        self,
        element: ET.Element,
        agents: Optional[dict[str, TrustXAgent]] = None,
    ) -> NegotiationSession:
        """Take ownership of a session checkpointed on another node.

        Failover and explicit migration both land here: the session is
        rebuilt from its last checkpoint, a live one's TTL re-anchored
        on this node's timeline, and a fresh checkpoint written so this
        node's journal becomes authoritative.  A session this node
        already owns is left untouched (adoption is idempotent).  A
        terminal session keeps its outcome and last contact, and is
        only journalled, not kept in memory.
        """
        existing = self.session(element.get("id", ""))
        if existing is not None:
            return existing
        session = self._rebuild(element, agents)
        self._released.discard(session.session_id)
        if not session.terminal:
            session.touched_ms = self.transport.clock.elapsed_ms
            self._sessions[session.session_id] = session
            self._track_opened(session)
        if session.request_id:
            self._requests[session.request_id] = session.session_id
        self._checkpoint(session)
        if obs_enabled():
            obs_event(
                "tn_service.adopt",
                clock=self.transport.clock,
                url=self.url,
                session=session.session_id,
                phase=session.phase,
            )
        return session

    # -- persistence ---------------------------------------------------------------

    def _persist_owner_state(self) -> None:
        """Mirror the owner's policies and credentials into the store,
        as the prototype kept them in Oracle."""
        from repro.policy.xmlcodec import policy_to_xml

        for policy in self.owner.policies:
            self.store.put(
                "policies", policy.policy_id, policy_to_xml(policy)
            )
        for credential in self.owner.profile:
            self.store.put(
                "credentials", credential.cred_id, credential.to_xml()
            )

    def _checkpoint(self, session: NegotiationSession) -> None:
        """Append the session's durable state to the journal."""
        element = ET.Element("negotiationSession", {
            "id": session.session_id,
            "phase": session.phase,
            "requester": session.requester_name,
            "strategy": session.strategy.value,
            "resource": session.resource or "",
            "at": session.at.isoformat() if session.at else "",
            "requestId": session.request_id,
            "lastSeq": str(session.last_seq),
            "touched": repr(session.touched_ms),
            "policyBilled": str(session.policy_phase_billed).lower(),
            "exchangeBilled": str(session.exchange_phase_billed).lower(),
        })
        result = session.result
        if result is not None:
            outcome = ET.SubElement(element, "outcome", {
                "success": str(result.success).lower(),
                "failureReason": (
                    result.failure_reason.value if result.failure_reason
                    else ""
                ),
                "policyMessages": str(result.policy_messages),
                "exchangeMessages": str(result.exchange_messages),
            })
            if result.failure_detail:
                outcome.set("failureDetail", result.failure_detail)
            for party, ids in (
                ("requester", result.disclosed_by_requester),
                ("controller", result.disclosed_by_controller),
            ):
                disclosed = ET.SubElement(
                    outcome, "disclosedBy", {"party": party}
                )
                for cred_id in ids:
                    ET.SubElement(disclosed, "credential", {"id": cred_id})
        self.session_store.append(session.session_id, element)
        if obs_enabled():
            obs_count("tn_service.checkpoints")
            obs_event(
                "tn_service.checkpoint",
                clock=self.transport.clock,
                session=session.session_id,
                phase=session.phase,
            )

    def _rebuild(
        self,
        element: ET.Element,
        agents: Optional[dict[str, TrustXAgent]] = None,
    ) -> NegotiationSession:
        """A session from its last checkpoint, the one way back in for
        restore, adoption and read-back.

        The checkpointed outcome becomes the session's result when the
        engine need not or cannot re-run it: the session is terminal,
        or its requester agent is gone (degraded completion).  A live
        session whose requester resolves re-runs the engine instead,
        deterministically at the checkpointed negotiation time.
        """
        requester_name = element.get("requester", "")
        at_text = element.get("at", "")
        session = NegotiationSession(
            session_id=element.get("id", ""),
            requester=(agents or {}).get(requester_name),
            strategy=Strategy.parse(element.get("strategy", "standard")),
            requester_name=requester_name,
            request_id=element.get("requestId", ""),
            resource=element.get("resource") or None,
            at=datetime.fromisoformat(at_text) if at_text else None,
            phase=element.get("phase", "started"),
            policy_phase_billed=element.get("policyBilled") == "true",
            exchange_phase_billed=element.get("exchangeBilled") == "true",
            last_seq=int(element.get("lastSeq", "0")),
            touched_ms=float(element.get("touched", "0")),
            restored=True,
        )
        outcome = element.find("outcome")
        if outcome is None or session.resource is None or not (
            session.terminal or session.requester is None
        ):
            return session
        disclosed = {
            block.get("party", ""): tuple(
                cred.get("id", "") for cred in block.findall("credential")
            )
            for block in outcome.findall("disclosedBy")
        }
        reason_text = outcome.get("failureReason", "")
        session.result = NegotiationResult(
            resource=session.resource,
            requester=requester_name,
            controller=self.owner.name,
            success=outcome.get("success") == "true",
            failure_reason=(
                FailureReason(reason_text) if reason_text else None
            ),
            failure_detail=outcome.get("failureDetail", ""),
            transcript=(
                TranscriptEvent(
                    "setup", self.owner.name, "checkpoint-restore",
                    session.session_id,
                ),
            ),
            policy_messages=int(outcome.get("policyMessages", "0")),
            exchange_messages=int(outcome.get("exchangeMessages", "0")),
            disclosed_by_requester=disclosed.get("requester", ()),
            disclosed_by_controller=disclosed.get("controller", ()),
        )
        return session

    # -- dispatch ---------------------------------------------------------------------

    def handle(self, operation: str, payload: dict) -> dict:
        if self.hardening is None:
            return self._handle(operation, payload)
        # Hardened boundary: library errors pass through typed, but
        # nothing else may leak to the peer as a stack trace.
        try:
            return self._handle(operation, payload)
        except ReproError:
            raise
        except Exception as exc:
            self.internal_errors += 1
            obs_count("tn_service.internal_errors")
            raise InternalServiceError(
                f"TN service at {self.url!r} failed handling "
                f"{operation!r}: {type(exc).__name__}"
            ) from exc

    def _handle(self, operation: str, payload: dict) -> dict:
        if self._closed:
            raise TransportError(
                f"TN service at {self.url!r} is closed",
                error_code=ErrorCode.SERVICE_CLOSED,
            )
        if self.guard is not None:
            self.guard.validate(operation, payload)
        if self.admission is not None:
            self.admission.admit(
                operation, payload, self.transport.clock.elapsed_ms
            )
        if operation == "StartNegotiation":
            return self.start_negotiation(payload)
        if operation not in ("PolicyExchange", "CredentialExchange"):
            raise ServiceError(
                f"unknown TN operation {operation!r}",
                error_code=ErrorCode.UNKNOWN_OPERATION,
            )
        session = self._session(payload)
        seq = payload.get("clientSeq")
        now = self.transport.clock.elapsed_ms
        if (
            operation == "CredentialExchange" and seq == session.last_seq
            and seq not in session.responses and session.phase == "exchange"
            and session.result is not None
            and now - session.touched_ms < self.session_ttl_ms
        ):
            # Rebuilt from the journal, so no recorded responses: the
            # replay window still runs from the checkpointed last
            # contact, and the retry is answered from the outcome.
            session.responses[seq] = (
                operation, "", self._exchange_response(session)
            )
        session.touched_ms = now
        if session.session_id in self._terminal:
            # contacted again: to the back of the eviction queue
            del self._terminal[session.session_id]
            self._terminal[session.session_id] = None
        resource = (
            payload.get("resource", "")
            if operation == "PolicyExchange" else ""
        )
        if self.guard is not None:
            self.guard.check_transition(session, operation, seq, resource)
        if seq is not None and seq in session.responses:
            # Duplicate delivery or retry after a lost response:
            # replay without re-billing — but only if the retry really
            # repeats the original call.  A different operation or
            # resource under a recorded clientSeq is a duplicate-key
            # bug that must fail loudly, not be answered with stale
            # data.
            recorded_op, recorded_resource, response = session.responses[seq]
            if recorded_op != operation or recorded_resource != resource:
                raise ServiceError(
                    f"clientSeq {seq} of {session.session_id!r} was "
                    f"recorded for {recorded_op!r}"
                    + (f" on {recorded_resource!r}" if recorded_resource
                       else "")
                    + f" but retried as {operation!r}"
                    + (f" on {resource!r}" if resource else ""),
                    error_code=ErrorCode.REPLAY_MISMATCH,
                )
            if obs_enabled():
                obs_count("tn_service.replays")
                obs_event(
                    "tn_service.replay",
                    clock=self.transport.clock,
                    session=session.session_id,
                    operation=operation,
                    client_seq=seq,
                )
            return response
        if session.terminal:
            # Hardened, the guard has already refused this.  Without
            # it, a terminal session still never changes: a repeated
            # final exchange is answered from the outcome (nothing
            # runs, nothing is billed), and anything else is refused.
            if (
                operation == "CredentialExchange"
                and session.phase == "exchange"
                and session.result is not None
            ):
                return self._exchange_response(session)
            raise ServiceError(
                f"session {session.session_id!r} already terminated "
                f"(phase {session.phase!r}); {operation} rejected",
                error_code=ErrorCode.POST_TERMINAL,
            )
        if operation == "PolicyExchange":
            response = self.policy_exchange(payload)
        else:
            response = self.credential_exchange(payload)
        if seq is not None:
            session.responses[seq] = (operation, resource, response)
            session.last_seq = max(session.last_seq, seq)
        self._checkpoint(session)
        if session.terminal:
            self._track_terminal()
            self._terminal[session.session_id] = None
            self._evict_idle()
        return response

    def _session(self, payload: dict) -> NegotiationSession:
        session_id = payload.get("negotiationId", "")
        session = self.session(session_id)
        if session is None:
            raise SessionError(f"unknown negotiation id {session_id!r}")
        if session_id not in self._sessions:
            # contacted: resident again for another TTL
            self._sessions[session_id] = session
            self._track_opened(session)
            if session.terminal:
                self._terminal[session_id] = None
        return session

    # -- residency -------------------------------------------------------------------

    @property
    def session_ttl_ms(self) -> float:
        """Idle time after which the reaper expires a live session and
        a terminal session leaves memory."""
        if self.hardening is not None:
            return self.hardening.session_ttl_ms
        return 120_000.0

    def _evict_idle(self) -> None:
        """Evict every queued terminal session idle for a TTL; its
        final checkpoint is in the journal already.  Runs on each
        terminal transition of a contacted session."""
        queue = self._terminal
        now = self.transport.clock.elapsed_ms
        ttl = self.session_ttl_ms
        evicted = 0
        while queue:
            session_id = next(iter(queue))
            session = self._sessions.get(session_id)
            if session is not None and session.terminal:
                if now - session.touched_ms < ttl:
                    break
                del self._sessions[session_id]
                evicted += 1
            del queue[session_id]
        if evicted:
            self.sessions_evicted += evicted
            obs_count("tn_service.sessions_evicted", evicted)

    def session(self, session_id: str) -> Optional[NegotiationSession]:
        """The session ``session_id`` if this node owns it: the
        resident object, or one read back from its last checkpoint."""
        session = self._sessions.get(session_id)
        if session is not None or session_id in self._released:
            return session
        element = self.session_store.get(session_id)
        return None if element is None else self._rebuild(element)

    def session_ids(self) -> list[str]:
        """Ids of every session this node owns, resident or only
        journalled, without reading the journal."""
        if self._closed:
            return []
        owned = dict.fromkeys(self._sessions)
        owned.update(
            (session_id, None)
            for session_id in self.session_store.session_ids()
            if session_id not in self._released
        )
        return list(owned)

    def sessions(self) -> dict[str, NegotiationSession]:
        """Every session this node owns; the ones that left memory are
        read back from the journal."""
        owned = dict(self._sessions)
        missing = [
            session_id for session_id in self.session_ids()
            if session_id not in owned
        ]
        if missing:
            checkpoints = self.session_store.latest()
            for session_id in missing:
                owned[session_id] = self._rebuild(checkpoints[session_id])
        return owned

    def release_session(self, session_id: str) -> None:
        """Forget a session locally without touching its durable
        checkpoints — the hand-off half of a migration to another
        node, which adopts from the checkpoint."""
        self._released.add(session_id)
        self._terminal.pop(session_id, None)
        session = self._sessions.pop(session_id, None)
        if session is not None:
            if session.request_id:
                self._requests.pop(session.request_id, None)
            if not session.terminal:
                self._track_terminal()

    def reap_expired(self, older_than_ms: Optional[float] = None) -> int:
        """Expire non-terminal sessions idle longer than the TTL.

        A peer that opens sessions and walks away (or is shed mid-way
        by admission control) would otherwise leave them dangling in
        the ``started``/``policy`` phase forever.  Reaping moves them
        to the terminal ``expired`` phase — checkpointed, rejected on
        further contact with :data:`ErrorCode.POST_TERMINAL` — so the
        "no session ends non-terminal" invariant holds under abuse.
        Returns the number of sessions reaped.
        """
        ttl = self.session_ttl_ms if older_than_ms is None else older_than_ms
        now = self.transport.clock.elapsed_ms
        reaped = 0
        for session in self._sessions.values():
            if session.terminal:
                continue
            if now - session.touched_ms >= ttl:
                session.phase = "expired"
                reaped += 1
                self._checkpoint(session)
                # queued: the next terminal transition evicts it
                self._terminal[session.session_id] = None
        if reaped:
            self._track_terminal(reaped)
        if reaped and obs_enabled():
            obs_count("tn_service.sessions_expired", reaped)
            obs_event(
                "tn_service.reap",
                clock=self.transport.clock,
                reaped=reaped,
            )
        return reaped

    # -- operations --------------------------------------------------------------------

    def start_negotiation(self, payload: dict) -> dict:
        """``StartNegotiation`` (paper Section 6.2): open the DB
        connection and mint the negotiation id."""
        with obs_span(
            "tn_service.start_negotiation", clock=self.transport.clock
        ):
            obs_count("tn_service.operations.start_negotiation")
            return self._start_negotiation_body(payload)

    def _start_negotiation_body(self, payload: dict) -> dict:
        request_id = payload.get("requestId", "")
        requester = payload.get("requester")
        if not isinstance(requester, TrustXAgent):
            raise ServiceError(
                "StartNegotiation requires a requester agent reference",
                error_code=ErrorCode.SCHEMA_VIOLATION,
            )
        strategy = Strategy.parse(payload.get("strategy", "standard"))
        recorded = (
            self.session(self._requests[request_id])
            if request_id and request_id in self._requests else None
        )
        if recorded is not None:
            # Idempotent retry: the first delivery already opened the
            # session (resident, or read back from the journal); hand
            # the same id back without re-billing — but only if the
            # retry carries the original payload.  The same requestId
            # arriving with a different requester or strategy is a
            # duplicate-key bug (e.g. colliding client counters), which
            # must be rejected rather than silently answered with
            # another negotiation's session.
            if (
                recorded.requester_name != requester.name
                or recorded.strategy is not strategy
            ):
                raise ServiceError(
                    f"requestId {request_id!r} was already used by "
                    f"requester {recorded.requester_name!r} with "
                    f"strategy {recorded.strategy.value!r}; a retry "
                    "must repeat the original payload",
                    error_code=ErrorCode.REPLAY_MISMATCH,
                )
            return {"negotiationId": recorded.session_id}
        self.transport.charge_db(connect=True, writes=1)
        session_id = f"{self.node_id}-{next(self._session_ids)}"
        session = NegotiationSession(
            session_id=session_id,
            requester=requester,
            strategy=strategy,
            request_id=request_id,
            touched_ms=self.transport.clock.elapsed_ms,
        )
        self._sessions[session_id] = session
        self._track_opened(session)
        if request_id:
            self._requests[request_id] = session_id
        self._checkpoint(session)
        return {"negotiationId": session_id}

    def _run_engine(
        self, session: NegotiationSession, resource: str, at: Optional[datetime]
    ) -> NegotiationResult:
        if session.result is not None and session.resource == resource:
            return session.result
        requester = session.requester
        if requester is None:
            # Rebuilt without its requester agent and without a
            # checkpointed outcome for this resource to degrade to.
            raise SessionError(
                f"cannot resume {session.session_id!r}: requester "
                f"{session.requester_name!r} is unavailable and no "
                "checkpointed outcome exists"
            )
        at = at or session.at or self.transport.clock.now()
        previous_strategy = requester.strategy
        requester.strategy = session.strategy
        try:
            if self.cache is not None:
                result = CachingNegotiator(self.cache).negotiate(
                    requester, self.owner, resource, at=at
                )
            else:
                engine = NegotiationEngine(requester, self.owner)
                result = engine.run(resource, at=at)
        finally:
            requester.strategy = previous_strategy
        session.result = result
        session.resource = resource
        session.at = at
        session.trust_epoch = trust_epoch()
        return result

    def policy_exchange(self, payload: dict) -> dict:
        """``PolicyExchange`` (paper Section 6.2): run (or bill) the
        policy-evaluation phase for the session in ``payload``."""
        session = self._session(payload)
        with obs_span(
            "tn_service.policy_exchange",
            clock=self.transport.clock,
            session=session.session_id,
            resource=payload.get("resource", ""),
        ):
            obs_count("tn_service.operations.policy_exchange")
            resource = payload.get("resource", "")
            if not resource:
                raise ServiceError(
                    "PolicyExchange requires a resource",
                    error_code=ErrorCode.SCHEMA_VIOLATION,
                )
            result = self._run_engine(session, resource, payload.get("at"))
            session.phase = "policy"
            if not session.policy_phase_billed:
                # The PolicyExchange call itself is the first protocol
                # message; the remaining policy-phase rounds each pay a
                # full message cost, and every policy lookup hits the DB.
                self.transport.charge_messages(
                    max(0, result.policy_messages - 1)
                )
                self.transport.charge_db(reads=max(1, result.policy_messages))
                session.policy_phase_billed = True
            # Unsatisfiable == the policy phase *proved* no trust
            # sequence can exist; transient failures stay "satisfiable"
            # because a retry may still succeed.
            unsatisfiable = (
                not result.success
                and result.failure_reason in UNSATISFIABLE_REASONS
            )
            return {
                "negotiationId": session.session_id,
                "satisfiable": not unsatisfiable,
                "sequenceFound": bool(result.sequence) or result.success,
                "policyMessages": result.policy_messages,
            }

    def credential_exchange(self, payload: dict) -> dict:
        """``CredentialExchange`` (paper Section 6.2): run (or bill)
        the credential-exchange phase for the session in ``payload``."""
        session = self._session(payload)
        with obs_span(
            "tn_service.credential_exchange",
            clock=self.transport.clock,
            session=session.session_id,
        ):
            obs_count("tn_service.operations.credential_exchange")
            if session.result is None:
                if not (session.restored and session.phase == "policy"):
                    raise ServiceError(
                        "CredentialExchange before PolicyExchange for "
                        f"{session.session_id!r}",
                        error_code=ErrorCode.PHASE_SKIP,
                    )
                # Resuming after a crash: the policy phase completed
                # before the service died; re-derive its result (or
                # degrade to the checkpoint) without re-billing.
                self._run_engine(session, session.resource or "", session.at)
            return self._credential_response(session)

    def _recheck_retractions(self, session: NegotiationSession) -> None:
        """Nonmonotonic trust at the phase boundary (paper Section
        4.2's revocation check, re-applied at exchange time).

        The policy phase precomputes the negotiation result; it is only
        replayable while the trust epoch it was computed under still
        stands.  When a retraction advanced the epoch between
        ``PolicyExchange`` and ``CredentialExchange``, every credential
        the stored result would disclose is re-checked against the
        revocation registry, and a now-revoked credential turns the
        stored success into a ``CREDENTIAL_REVOKED`` failure instead of
        completing on stale trust.
        """
        result = session.result
        if result is None or not result.success:
            return
        current = trust_epoch()
        if current == session.trust_epoch:
            return
        session.trust_epoch = current
        obs_count("tn_service.revocation_rechecks")
        holders = {self.owner.name: self.owner}
        if session.requester is not None:
            holders[session.requester.name] = session.requester
        for holder_name, cred_ids in (
            (result.requester, result.disclosed_by_requester),
            (result.controller, result.disclosed_by_controller),
        ):
            holder = holders.get(holder_name)
            if holder is None:
                continue
            for cred_id in cred_ids:
                try:
                    credential = holder.profile.get(cred_id)
                except ReproError:
                    continue
                try:
                    self.owner.validator.revocations.ensure_not_revoked(
                        credential.issuer, credential.serial
                    )
                except CredentialRevokedError as exc:
                    session.result = NegotiationResult(
                        resource=result.resource,
                        requester=result.requester,
                        controller=result.controller,
                        success=False,
                        failure_reason=FailureReason.CREDENTIAL_REVOKED,
                        failure_detail=str(exc),
                        transcript=tuple(result.transcript) + (
                            TranscriptEvent(
                                "exchange", self.owner.name,
                                "revocation-recheck", str(exc),
                            ),
                        ),
                        policy_messages=result.policy_messages,
                        exchange_messages=result.exchange_messages,
                    )
                    self._checkpoint(session)
                    return

    def _credential_response(self, session: NegotiationSession) -> dict:
        """Bill the exchange phase (once) and build the response."""
        self._recheck_retractions(session)
        result = session.result
        session.phase = "exchange"
        if not session.exchange_phase_billed:
            disclosures = result.disclosures
            self.transport.charge_messages(max(0, result.exchange_messages - 1))
            # Each disclosure: fetch from DB, one issuer-signature
            # verification plus one ownership verification on the
            # receiving side, one ownership-proof signature on the
            # disclosing side.
            self.transport.charge_db(reads=disclosures)
            self.transport.charge_crypto(
                signs=disclosures, verifies=2 * disclosures
            )
            session.exchange_phase_billed = True
        return self._exchange_response(session)

    @staticmethod
    def _exchange_response(session: NegotiationSession) -> dict:
        result = session.result
        return {
            "negotiationId": session.session_id,
            "success": result.success,
            "failureReason": (
                result.failure_reason.value if result.failure_reason else ""
            ),
            "result": result,
        }
