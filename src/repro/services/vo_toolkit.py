"""The VO Management toolkit: Host, Initiator, and Member editions.

"The toolkit is deployed as three distinct components" (paper
Section 6.1): the *Host Edition* (member registration, VO monitoring,
the list of services available for participating), the *Initiator
Edition* (VO creation and management, candidate discovery, invitations,
role assignment), and the *Member Edition* (registration with a host,
mailbox, property configuration).

This module reproduces those components over the simulated SOA: every
toolkit step charges the latency model, so the end-to-end *join*
flow — with or without the interleaved trust negotiation — can be
timed exactly as the paper's experiment does (Section 6.3.1, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.errors import (
    CircuitOpenError,
    DatabaseUnavailableError,
    ErrorCode,
    MembershipError,
    RetryExhaustedError,
    ServiceError,
    TimeoutError,
    TransportError,
)
from repro.hardening.config import HardeningConfig
from repro.negotiation.cache import SequenceCache
from repro.negotiation.outcomes import FailureReason, NegotiationResult
from repro.negotiation.strategies import Strategy
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    observe as obs_observe,
    span as obs_span,
)
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from repro.vo.contract import Contract
from repro.vo.initiator import VOInitiator
from repro.vo.member import VOMember
from repro.vo.organization import VirtualOrganization
from repro.vo.registry import ServiceRegistry
from repro.vo.reputation import ReputationEvent

__all__ = [
    "HostEdition",
    "MemberEdition",
    "InitiatorEdition",
    "JoinOutcome",
    "FormationOutcome",
    "UNREACHABLE_ERRORS",
]

#: Typed failures meaning "the peer did not answer" (as opposed to "the
#: peer said no"): the join survives them in degraded mode.
UNREACHABLE_ERRORS = (
    TimeoutError,
    RetryExhaustedError,
    CircuitOpenError,
    TransportError,
    DatabaseUnavailableError,
)


class HostEdition:
    """Member registration and VO monitoring services."""

    def __init__(
        self,
        transport: SimTransport,
        url: str = "urn:vo:host",
        hardening: Optional[HardeningConfig] = None,
    ) -> None:
        self.transport = transport
        self.url = url
        self.hardening = hardening
        self.admission = (
            hardening.admission() if hardening is not None else None
        )
        self.registry = ServiceRegistry()
        self._registered: dict[str, VOMember] = {}
        self._active_vos: dict[str, VirtualOrganization] = {}
        transport.bind(url, self._handle)

    def _handle(self, operation: str, payload: dict) -> dict:
        if self.admission is not None:
            # Priority-aware shedding: operation-phase traffic
            # (MonitorVO, ServiceAvailability) outlasts formation and
            # identification traffic under load.
            self.admission.admit(
                operation, payload, self.transport.clock.elapsed_ms
            )
        # A dissolved VO holds no members and no longer operates: forget
        # it, so a long-lived host does not keep every VO it announced.
        self._active_vos = {
            name: vo for name, vo in self._active_vos.items()
            if not vo.lifecycle.is_dissolved
        }
        if operation == "RegisterMember":
            member = payload.get("member")
            if not isinstance(member, VOMember):
                raise ServiceError("RegisterMember requires a member")
            self.transport.charge_db(writes=1 + len(member.services))
            self._registered[member.name] = member
            member.prepare(self.registry)
            return {"registered": member.name}
        if operation == "ListServices":
            self.transport.charge_db(reads=1)
            role = payload.get("role")
            if role:
                found = self.registry.find_by_role(role)
            else:
                found = self.registry.all()
            return {"services": found}
        if operation == "ServiceAvailability":
            # "the list of services that are available for participating
            # in a VO (this includes the ones that are already in a VO
            # plus the ones that are waiting for an invitation)" (§6.1).
            self.transport.charge_db(reads=1)
            engaged: dict[str, list[str]] = {}
            for vo in self._active_vos.values():
                for role_name, member in vo.members().items():
                    engaged.setdefault(member.name, []).append(
                        f"{vo.contract.vo_name}:{role_name}"
                    )
            rows = []
            for description in self.registry.all():
                assignments = engaged.get(description.provider, [])
                rows.append({
                    "provider": description.provider,
                    "service": description.service_name,
                    "status": "in-vo" if assignments else "awaiting-invitation",
                    "assignments": sorted(assignments),
                })
            return {"availability": rows}
        if operation == "MonitorVO":
            self.transport.charge_db(reads=1)
            vo_name = payload.get("voName", "")
            vo = self._active_vos.get(vo_name)
            return {
                "voName": vo_name,
                "phase": vo.lifecycle.phase.value if vo else "unknown",
                "members": sorted(
                    m.name for m in vo.members().values()
                ) if vo else [],
            }
        if operation == "AnnounceVO":
            vo = payload.get("vo")
            if not isinstance(vo, VirtualOrganization):
                raise ServiceError("AnnounceVO requires a VO")
            self.transport.charge_db(writes=1)
            self._active_vos[vo.contract.vo_name] = vo
            return {"announced": vo.contract.vo_name}
        raise ServiceError(
            f"unknown host operation {operation!r}",
            error_code=ErrorCode.UNKNOWN_OPERATION,
        )

    def member(self, name: str) -> VOMember:
        try:
            return self._registered[name]
        except KeyError as exc:
            raise MembershipError(f"member {name!r} is not registered") from exc

    def directory(self) -> dict[str, VOMember]:
        return dict(self._registered)


@dataclass
class MemberEdition:
    """The member-side application."""

    member: VOMember
    transport: SimTransport
    host_url: str = "urn:vo:host"

    def register(self) -> None:
        """Register with the host and publish services (Preparation)."""
        self.transport.call(
            self.host_url, "RegisterMember", {"member": self.member}
        )

    def check_mailbox(self) -> list:
        """Open the mailbox screen (one GUI interaction)."""
        self.transport.charge_ui()
        return self.member.mailbox.pending()

    def respond(self, invitation) -> bool:
        """Decide on an invitation; the answer travels back by mail."""
        accepted = self.member.respond_to_invitation(invitation)
        self.transport.charge_mail()
        self.transport.charge_db(writes=1)
        return accepted


@dataclass
class JoinOutcome:
    """Result of one toolkit join flow."""

    member: str
    role: str
    joined: bool
    elapsed_ms: float
    negotiation: Optional[NegotiationResult] = None
    reason: str = ""
    #: The join failed because the TN endpoint never answered (after
    #: retries), not because trust was denied.
    unreachable: bool = False


@dataclass
class FormationOutcome:
    """Result of a quorum-based formation run (paper Fig. 4 under
    partial failure)."""

    outcomes: dict[str, JoinOutcome] = field(default_factory=dict)
    #: role -> member recorded as degraded (unreachable after retries).
    degraded: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    quorum: int = 0
    #: ``"serial"`` or ``"parallel"`` — how the joins were scheduled.
    mode: str = "serial"
    #: Simulated ms the formation advanced the main timeline: the sum
    #: of the join durations in serial mode, the batch critical path in
    #: parallel mode.
    elapsed_ms: float = 0.0
    #: Longest single join chain (== elapsed_ms of the schedule run).
    critical_path_ms: float = 0.0
    #: What the same joins cost end to end — the serial-equivalent sum
    #: of per-join durations; in parallel mode the Fig. 9 baseline the
    #: speedup is measured against.
    serial_ms: float = 0.0

    @property
    def joined(self) -> list[str]:
        return sorted(
            role for role, outcome in self.outcomes.items() if outcome.joined
        )

    @property
    def quorum_met(self) -> bool:
        return len(self.joined) >= self.quorum


class InitiatorEdition:
    """The initiator-side application driving VO creation and joins."""

    def __init__(
        self,
        initiator: VOInitiator,
        transport: SimTransport,
        host: HostEdition,
        hardening: Optional[HardeningConfig] = None,
    ) -> None:
        self.initiator = initiator
        self.transport = transport
        self.host = host
        self.hardening = hardening
        self.vo: Optional[VirtualOrganization] = None
        self._tn_service: Optional[TNWebService] = None
        self._tn_store: Optional[XMLDocumentStore] = None
        self._tn_cache: Optional[SequenceCache] = None

    # -- VO creation --------------------------------------------------------------

    def create_vo(self, contract: Contract) -> VirtualOrganization:
        """Identification: define the contract and the TN policies."""
        with obs_span(
            "vo.identification",
            clock=self.transport.clock,
            vo=contract.vo_name,
            roles=len(contract.roles),
        ):
            obs_count("vo.created")
            self.transport.charge_ui(2)  # contract + role definition screens
            vo = VirtualOrganization(
                contract=contract, initiator=self.initiator
            )
            vo.identify()
            self.transport.charge_db(writes=1 + len(contract.roles))
            self.transport.call(self.host.url, "AnnounceVO", {"vo": vo})
            vo.enter_formation()
            self.vo = vo
            return vo

    def enable_trust_negotiation(
        self, store: Optional[XMLDocumentStore] = None,
        url: str = "urn:vo:tn",
        cache: Optional[SequenceCache] = None,
        hardening: Optional[HardeningConfig] = None,
    ) -> TNWebService:
        """Deploy the TN Web service next to the toolkit (Fig. 5)."""
        self._tn_store = store or XMLDocumentStore("tn-store")
        self._tn_cache = cache
        if hardening is not None:
            self.hardening = hardening
        self._tn_service = TNWebService(
            owner=self.initiator.agent,
            transport=self.transport,
            store=self._tn_store,
            url=url,
            cache=cache,
            hardening=self.hardening,
        )
        return self._tn_service

    def restart_trust_negotiation(
        self, agents: Optional[dict] = None
    ) -> TNWebService:
        """Revive a crashed TN Web service from its checkpoint journal,
        resuming any interrupted negotiations."""
        if self._tn_service is None or self._tn_store is None:
            raise MembershipError(
                "enable_trust_negotiation must run before a restart"
            )
        self._tn_service.close()  # no-op after a crash; frees the URL
        self._tn_service = TNWebService.restore(
            owner=self.initiator.agent,
            transport=self.transport,
            store=self._tn_store,
            url=self._tn_service.url,
            agents=agents,
            cache=self._tn_cache,
            hardening=self.hardening,
            session_store=self._tn_service.session_store,
        )
        return self._tn_service

    # -- discovery -------------------------------------------------------------------

    def discover(self, role_name: str) -> list:
        """Query the host for candidates registered for a role."""
        response = self.transport.call(
            self.host.url, "ListServices", {"role": role_name}
        )
        return response["services"]

    # -- the join flow (the Fig. 9 measurable) ------------------------------------------

    def execute_join(
        self,
        member_app: MemberEdition,
        role_name: str,
        with_negotiation: bool,
        at: Optional[datetime] = None,
        strategy: Strategy = Strategy.STANDARD,
    ) -> JoinOutcome:
        """Run one member's complete join, optionally with the TN.

        Mirrors the experiment of Section 6.3.1: the member is invited,
        reads and answers the invitation, (optionally) negotiates trust
        through the TN Web service, and on success is assigned the role
        and receives the X.509 membership certificate.
        """
        if not obs_enabled():
            return self._execute_join_body(
                member_app, role_name, with_negotiation, at, strategy
            )
        with obs_span(
            "vo.join",
            clock=self.transport.clock,
            member=member_app.member.name,
            role=role_name,
            negotiation=with_negotiation,
        ) as join_span:
            outcome = self._execute_join_body(
                member_app, role_name, with_negotiation, at, strategy
            )
            join_span.set(
                joined=outcome.joined,
                elapsed_ms=outcome.elapsed_ms,
                reason=outcome.reason,
            )
            obs_count("vo.joins" if outcome.joined else "vo.joins_failed")
            obs_observe("vo.join_ms", outcome.elapsed_ms)
            return outcome

    def _execute_join_body(
        self,
        member_app: MemberEdition,
        role_name: str,
        with_negotiation: bool,
        at: Optional[datetime],
        strategy: Strategy,
    ) -> JoinOutcome:
        vo = self.vo
        if vo is None:
            raise MembershipError("create_vo must run before joins")
        if with_negotiation and self._tn_service is None:
            raise MembershipError(
                "enable_trust_negotiation must run before a join with TN"
            )
        member = member_app.member
        role = vo.contract.role(role_name)
        at = at or self.transport.clock.now()

        with self.transport.clock.measure() as stopwatch:
            with obs_span(
                "vo.invitation", role=role_name, member=member.name
            ) as invite_span:
                # 1. The initiator reviews candidates and fills the
                #    invitation screen.
                self.discover(role_name)
                self.transport.charge_ui(2)
                # 2. Invitation into the member's mailbox.
                invitation = self.initiator.invite(vo.contract, role, member)
                self.transport.charge_mail()
                self.transport.charge_db(writes=1)
                # 3. The member reads the mailbox and answers.
                member_app.check_mailbox()
                accepted = member_app.respond(invitation)
                invite_span.set(accepted=accepted)
            if not accepted:
                return JoinOutcome(
                    member=member.name,
                    role=role_name,
                    joined=False,
                    elapsed_ms=stopwatch.elapsed_ms,
                    reason="invitation declined",
                )
            negotiation: Optional[NegotiationResult] = None
            if with_negotiation:
                # 4. The TN interleaves with the join (Fig. 3, arrow 0):
                #    the candidate negotiates the role's membership
                #    resource against the Initiator's transient policies.
                client = TNClient(
                    transport=self.transport,
                    service_url=self._tn_service.url,
                    agent=member.agent,
                )
                resource = role.membership_resource(vo.contract.vo_name)
                try:
                    negotiation = client.negotiate(
                        resource, strategy=strategy, at=at,
                    )
                except UNREACHABLE_ERRORS as exc:
                    # The endpoint never answered: no reputation hit
                    # (trust was not denied), the join is degraded.
                    return JoinOutcome(
                        member=member.name,
                        role=role_name,
                        joined=False,
                        elapsed_ms=stopwatch.elapsed_ms,
                        negotiation=NegotiationResult(
                            resource=resource,
                            requester=member.name,
                            controller=self.initiator.name,
                            success=False,
                            failure_reason=FailureReason.UNREACHABLE,
                            failure_detail=str(exc),
                        ),
                        reason=f"unreachable: {exc}",
                        unreachable=True,
                    )
                event = (
                    ReputationEvent.SUCCESSFUL_NEGOTIATION
                    if negotiation.success
                    else ReputationEvent.FAILED_NEGOTIATION
                )
                vo.reputation.record(member.name, event, at=at)
                if not negotiation.success:
                    return JoinOutcome(
                        member=member.name,
                        role=role_name,
                        joined=False,
                        elapsed_ms=stopwatch.elapsed_ms,
                        negotiation=negotiation,
                        reason=negotiation.failure_detail,
                    )
            # 5. Role assignment ("Assign Member" screen) and the
            #    runtime creation of the X.509 membership credential.
            self.transport.charge_ui()
            vo.admit_member(role_name, member, at)
            self.transport.charge_crypto(signs=1)
            self.transport.charge_db(writes=2)
            # 6. The certificate reaches the member by mail.
            self.transport.charge_mail()
        return JoinOutcome(
            member=member.name,
            role=role_name,
            joined=True,
            elapsed_ms=stopwatch.elapsed_ms,
            negotiation=negotiation,
        )

    # -- quorum-based formation under partial failure -----------------------------------

    def execute_formation(
        self,
        plans: list[tuple[MemberEdition, str]],
        with_negotiation: bool = True,
        quorum: Optional[int] = None,
        max_attempts: int = 2,
        at: Optional[datetime] = None,
        strategy: Strategy = Strategy.STANDARD,
        parallel: bool = False,
    ) -> FormationOutcome:
        """Drive all joins, retrying unreachable invitees.

        Each ``(member_app, role)`` plan is attempted up to
        ``max_attempts`` times; a candidate still unreachable after
        that is recorded as *degraded* on the VO (for later
        re-negotiation via :meth:`retry_degraded`) instead of aborting
        the formation.  ``quorum`` is the minimum number of joined
        roles for :attr:`FormationOutcome.quorum_met` (default: all).

        With ``parallel=True`` the per-role joins — which are mutually
        independent: distinct members, distinct roles, each negotiating
        only against the Initiator — are scheduled concurrently in
        simulated time.  Each plan runs, in plan order, inside its own
        clock branch (see :meth:`SimTransport.clock_branch`) started at
        the batch dispatch instant; the main timeline then advances by
        the *critical path* (the longest branch), while the
        serial-equivalent sum is reported as
        :attr:`FormationOutcome.serial_ms` — Fig. 9 semantics are
        preserved, only the schedule changes.  Outcome bookkeeping is
        applied in plan order, so the resulting
        :class:`FormationOutcome` is identical to serial mode's.  When
        the transport stack has no branchable base clock the call falls
        back to serial execution.
        """
        if self.vo is None:
            raise MembershipError("create_vo must run before formation")
        if not obs_enabled():
            return self._execute_formation_body(
                plans, with_negotiation, quorum, max_attempts,
                at, strategy, parallel,
            )
        with obs_span(
            "vo.formation",
            clock=self.transport.clock,
            plans=len(plans),
            parallel=parallel,
        ) as formation_span:
            outcome = self._execute_formation_body(
                plans, with_negotiation, quorum, max_attempts,
                at, strategy, parallel,
            )
            formation_span.set(
                mode=outcome.mode,
                joined=len(outcome.joined),
                degraded=len(outcome.degraded),
                critical_path_ms=outcome.critical_path_ms,
                serial_ms=outcome.serial_ms,
            )
            obs_count("vo.formations")
            return outcome

    def _execute_formation_body(
        self,
        plans: list[tuple[MemberEdition, str]],
        with_negotiation: bool,
        quorum: Optional[int],
        max_attempts: int,
        at: Optional[datetime],
        strategy: Strategy,
        parallel: bool,
    ) -> FormationOutcome:
        outcome = FormationOutcome(
            quorum=len(plans) if quorum is None else quorum
        )
        if parallel and len(plans) > 1:
            base = self._branchable_transport()
            if base is not None:
                return self._formation_parallel(
                    plans, outcome, with_negotiation, max_attempts,
                    at, strategy, base,
                )
        clock = self.transport.clock
        started_ms = clock.elapsed_ms
        for member_app, role_name in plans:
            attempts, last = self._attempt_plan(
                member_app, role_name, with_negotiation,
                max_attempts, at, strategy,
            )
            self._record_plan(outcome, member_app, role_name, attempts, last)
        outcome.mode = "serial"
        outcome.elapsed_ms = clock.elapsed_ms - started_ms
        outcome.critical_path_ms = outcome.elapsed_ms
        outcome.serial_ms = outcome.elapsed_ms
        return outcome

    def _attempt_plan(
        self,
        member_app: MemberEdition,
        role_name: str,
        with_negotiation: bool,
        max_attempts: int,
        at: Optional[datetime],
        strategy: Strategy,
    ) -> tuple[int, Optional[JoinOutcome]]:
        """One plan's retry loop; returns (attempts used, last outcome)."""
        last: Optional[JoinOutcome] = None
        attempts = 0
        for attempt in range(1, max_attempts + 1):
            attempts = attempt
            last = self.execute_join(
                member_app, role_name, with_negotiation,
                at=at, strategy=strategy,
            )
            if last.joined or not last.unreachable:
                break  # success, or a definitive (non-transient) no
        return attempts, last

    def _record_plan(
        self,
        outcome: FormationOutcome,
        member_app: MemberEdition,
        role_name: str,
        attempts: int,
        last: Optional[JoinOutcome],
    ) -> None:
        outcome.attempts[role_name] = attempts
        outcome.outcomes[role_name] = last
        if last is not None and last.unreachable:
            member_name = member_app.member.name
            outcome.degraded[role_name] = member_name
            self.vo.record_degraded(role_name, member_name, last.reason)
            if obs_enabled():
                obs_count("vo.joins_degraded")
                obs_event(
                    "vo.degraded",
                    clock=self.transport.clock,
                    role=role_name,
                    member=member_name,
                    reason=last.reason,
                )

    def _branchable_transport(self) -> Optional[SimTransport]:
        """Unwrap decorators down to a transport with clock branching."""
        transport = self.transport
        seen: set[int] = set()
        while transport is not None and id(transport) not in seen:
            if hasattr(transport, "clock_branch"):
                return transport
            seen.add(id(transport))
            transport = getattr(transport, "inner", None)
        return None

    def _formation_parallel(
        self,
        plans: list[tuple[MemberEdition, str]],
        outcome: FormationOutcome,
        with_negotiation: bool,
        max_attempts: int,
        at: Optional[datetime],
        strategy: Strategy,
        base: SimTransport,
    ) -> FormationOutcome:
        """Run each plan, in plan order, on its own clock branch, then
        merge the lanes: record outcomes in plan order and advance the
        main timeline by the longest lane."""
        clock = base.base_clock
        batch_start_ms = clock.elapsed_ms
        # Freeze `at` at batch dispatch: every invitee negotiates
        # against the same instant, as concurrency implies (and as the
        # serial default only approximates).
        at = at or clock.now()
        results, deltas = [], []
        for member_app, role_name in plans:
            with base.clock_branch() as branch:
                attempts, last = self._attempt_plan(
                    member_app, role_name, with_negotiation,
                    max_attempts, at, strategy,
                )
            results.append((attempts, last))
            deltas.append(branch.elapsed_ms - batch_start_ms)
        for (member_app, role_name), (attempts, last) in zip(plans, results):
            self._record_plan(outcome, member_app, role_name, attempts, last)
        clock.advance(max(deltas))
        outcome.mode = "parallel"
        outcome.elapsed_ms = clock.elapsed_ms - batch_start_ms
        outcome.critical_path_ms = outcome.elapsed_ms
        outcome.serial_ms = sum(deltas)
        return outcome

    def retry_degraded(
        self,
        member_apps: dict[str, MemberEdition],
        with_negotiation: bool = True,
        at: Optional[datetime] = None,
        strategy: Strategy = Strategy.STANDARD,
    ) -> dict[str, JoinOutcome]:
        """Re-negotiate the VO's degraded roles (``role`` →
        member app).  Successful joins clear the degraded mark."""
        if self.vo is None:
            raise MembershipError("create_vo must run before formation")
        results: dict[str, JoinOutcome] = {}
        for role_name in sorted(self.vo.degraded()):
            member_app = member_apps.get(role_name)
            if member_app is None:
                continue
            results[role_name] = self.execute_join(
                member_app, role_name, with_negotiation,
                at=at, strategy=strategy,
            )
        return results
