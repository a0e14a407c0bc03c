"""The Virtual Organization: lifecycle orchestration.

Ties together contract, initiator, members, reputation, monitoring, and
the trust negotiations that interleave with the lifecycle (paper
Fig. 3): formation-phase admission TNs, operation-phase authorization
TNs, and member replacement after violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.credentials.attributes import AttributeValue
from repro.credentials.credential import Credential, ValidityPeriod
from repro.credentials.x509 import VOMembershipToken
from repro.errors import MembershipError
from repro.negotiation.engine import negotiate
from repro.negotiation.outcomes import NegotiationResult
from repro.obs import event as obs_event, span as obs_span
from repro.vo.contract import Contract
from repro.vo.initiator import VOInitiator
from repro.vo.lifecycle import LifecycleTracker, VOPhase
from repro.vo.member import VOMember
from repro.vo.monitoring import OperationMonitor, ViolationEvent, ViolationKind
from repro.vo.registry import ServiceRegistry
from repro.vo.reputation import ReputationEvent, ReputationSystem
from repro.vo.roles import Role

__all__ = ["FormationReport", "VirtualOrganization"]


@dataclass
class FormationReport:
    """What happened while covering one role."""

    role: str
    admitted: Optional[str] = None
    declined: list[str] = field(default_factory=list)
    failed_negotiation: list[str] = field(default_factory=list)
    below_reputation: list[str] = field(default_factory=list)
    negotiations: list[NegotiationResult] = field(default_factory=list)

    @property
    def covered(self) -> bool:
        return self.admitted is not None


@dataclass
class VirtualOrganization:
    """One VO instance across its whole lifecycle."""

    contract: Contract
    initiator: VOInitiator
    reputation: ReputationSystem = field(default_factory=ReputationSystem)
    monitor: OperationMonitor = field(default_factory=OperationMonitor)
    lifecycle: LifecycleTracker = field(default_factory=LifecycleTracker)
    _members: dict[str, VOMember] = field(default_factory=dict)  # role -> member
    _tokens: dict[str, VOMembershipToken] = field(default_factory=dict)
    _revoked_serials: set[int] = field(default_factory=set)
    #: Roles the formation proceeded without (unreachable candidate):
    #: role -> "member-name: reason", awaiting later re-negotiation.
    _degraded: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Violations automatically hit the offender's reputation.
        self.monitor.subscribe(self._on_violation)

    # -- identification ------------------------------------------------------------

    def identify(self) -> int:
        """Enter Identification: define the contract's TN policies."""
        self.lifecycle.require(VOPhase.PREPARATION)
        installed = self.initiator.define_vo_policies(self.contract)
        self.lifecycle.advance(VOPhase.IDENTIFICATION)
        return installed

    # -- formation -------------------------------------------------------------------

    def form(
        self,
        registry: ServiceRegistry,
        directory: dict[str, VOMember],
        at: Optional[datetime] = None,
        negotiate_all: bool = False,
    ) -> dict[str, FormationReport]:
        """Cover every contract role (paper Fig. 4 flow).

        For each role: discover candidates in the registry, filter by
        reputation, invite, negotiate with acceptors, and admit.  With
        ``negotiate_all`` the Initiator "may engage multiple
        negotiations for a same role" and admits the successful
        candidate with the best reputation; otherwise candidates are
        tried best-advertised-quality first and the first success wins.
        Unsuccessful candidates are removed from the potential-partner
        list for the role.
        """
        self.lifecycle.require(VOPhase.IDENTIFICATION)
        self.lifecycle.advance(VOPhase.FORMATION)
        at = at or self.contract.created_at
        reports = {}
        for role in self.contract.roles:
            reports[role.name] = self._cover_role(
                role, registry, directory, at, negotiate_all
            )
        return reports

    def _cover_role(
        self,
        role: Role,
        registry: ServiceRegistry,
        directory: dict[str, VOMember],
        at: datetime,
        negotiate_all: bool,
        exclude: frozenset[str] = frozenset(),
    ) -> FormationReport:
        """Cover one role.  A member may hold several roles; ``exclude``
        bars specific members (e.g. the outgoing one on replacement)."""
        report = FormationReport(role=role.name)
        successes: list[tuple[float, VOMember]] = []
        for description in registry.find_by_role(role.name):
            member = directory.get(description.provider)
            if member is None or member.name == self.initiator.name:
                continue
            if member.name in exclude:
                continue
            if any(chosen.name == member.name for _, chosen in successes):
                continue  # already a success candidate for this role
            if not self.reputation.meets(member.name, role.min_reputation):
                report.below_reputation.append(member.name)
                continue
            invitation = self.initiator.invite(self.contract, role, member)
            if not member.respond_to_invitation(invitation):
                report.declined.append(member.name)
                continue
            result = self.initiator.negotiate_membership(
                self.contract, role, member, at=at
            )
            report.negotiations.append(result)
            if result.success:
                self.reputation.record(
                    member.name, ReputationEvent.SUCCESSFUL_NEGOTIATION, at=at
                )
                successes.append((self.reputation.score(member.name), member))
                if not negotiate_all:
                    break
            else:
                # "If a negotiation is not successful, the VO Initiator
                # removes the invited VO partner from the potential
                # partners list."
                self.reputation.record(
                    member.name, ReputationEvent.FAILED_NEGOTIATION, at=at
                )
                report.failed_negotiation.append(member.name)
        if successes:
            successes.sort(key=lambda item: (-item[0], item[1].name))
            chosen = successes[0][1]
            token = self.initiator.issue_membership_token(
                self.contract, role, chosen, at
            )
            self._members[role.name] = chosen
            self._tokens[role.name] = token
            report.admitted = chosen.name
        return report

    def admit_member(
        self, role_name: str, member: VOMember, at: datetime
    ) -> VOMembershipToken:
        """Directly admit ``member`` to a role (used by the toolkit's
        join flow after its own invitation/negotiation steps)."""
        self.lifecycle.require(VOPhase.FORMATION, VOPhase.OPERATION)
        role = self.contract.role(role_name)
        if role_name in self._members:
            raise MembershipError(
                f"role {role_name!r} is already covered by "
                f"{self._members[role_name].name!r}"
            )
        token = self.initiator.issue_membership_token(
            self.contract, role, member, at
        )
        self._members[role_name] = member
        self._tokens[role_name] = token
        self._degraded.pop(role_name, None)
        return token

    # -- degraded-mode bookkeeping -----------------------------------------------

    def record_degraded(
        self, role_name: str, member_name: str, reason: str = ""
    ) -> None:
        """Record that formation proceeded without covering ``role_name``
        because ``member_name`` was unreachable; the role stays on the
        books for later re-negotiation (:meth:`admit_member` clears it)."""
        self.contract.role(role_name)  # validate the role exists
        detail = f"{member_name}: {reason}" if reason else member_name
        self._degraded[role_name] = detail

    def degraded(self) -> dict[str, str]:
        """Roles currently operating in degraded mode."""
        return dict(self._degraded)

    def enter_formation(self) -> None:
        """Advance Identification → Formation without running
        :meth:`form` (the toolkit drives joins one member at a time)."""
        self.lifecycle.require(VOPhase.IDENTIFICATION)
        self.lifecycle.advance(VOPhase.FORMATION)

    def begin_operation(self, allow_degraded: bool = False) -> None:
        """Enter Operation.  With ``allow_degraded``, roles recorded via
        :meth:`record_degraded` may stay uncovered (the quorum decided
        to proceed); any *other* uncovered role still blocks."""
        with obs_span(
            "vo.operation",
            vo=self.contract.vo_name,
            allow_degraded=allow_degraded,
        ) as operation_span:
            self.lifecycle.require(VOPhase.FORMATION)
            uncovered = [
                role.name
                for role in self.contract.roles
                if role.name not in self._members
                and not (allow_degraded and role.name in self._degraded)
            ]
            if uncovered:
                raise MembershipError(
                    f"cannot operate {self.contract.vo_name!r}: uncovered "
                    f"roles {uncovered}"
                )
            self.lifecycle.advance(VOPhase.OPERATION)
            operation_span.set(
                members=len(self._members), degraded=len(self._degraded)
            )
            obs_event(
                "vo.operation_started",
                vo=self.contract.vo_name,
                members=len(self._members),
                degraded=sorted(self._degraded),
            )

    # -- membership queries -------------------------------------------------------------

    def member_for(self, role_name: str) -> VOMember:
        try:
            return self._members[role_name]
        except KeyError as exc:
            raise MembershipError(
                f"role {role_name!r} of {self.contract.vo_name!r} is not "
                "covered"
            ) from exc

    def members(self) -> dict[str, VOMember]:
        return dict(self._members)

    def token_for_role(self, role_name: str) -> VOMembershipToken:
        try:
            return self._tokens[role_name]
        except KeyError as exc:
            raise MembershipError(
                f"no membership token for role {role_name!r}"
            ) from exc

    def verify_member(self, token: VOMembershipToken, at: datetime) -> bool:
        """Operational-phase authentication with the membership token."""
        if token.certificate.serial in self._revoked_serials:
            return False
        if not token.certificate.is_valid_at(at):
            return False
        return self.initiator.verify_membership_token(token)

    # -- operation -----------------------------------------------------------------------

    def authorize_operation(
        self,
        source_role: str,
        target_role: str,
        resource: str,
        at: Optional[datetime] = None,
    ) -> NegotiationResult:
        """Operation-phase TN between two members.

        "Unlike TN carried out during the formation phase, the result
        of a TN in this case is not a credential, but it is an
        authorization to execute the next VO operations" (Section 5.1).
        """
        self.lifecycle.require(VOPhase.OPERATION)
        source = self.member_for(source_role)
        target = self.member_for(target_role)
        result = negotiate(source.agent, target.agent, resource, at=at)
        self.monitor.record_interaction(
            source.name, target.name, resource, result.success, at=at
        )
        if not result.success:
            self.reputation.record(
                source.name, ReputationEvent.FAILED_NEGOTIATION, at=at,
                detail=f"authorization for {resource!r} failed",
            )
        return result

    def _on_violation(self, event: ViolationEvent) -> None:
        mapped = {
            ViolationKind.CONTRACT_BREACH: ReputationEvent.CONTRACT_VIOLATION,
            ViolationKind.RESOURCE_MISUSE: ReputationEvent.RESOURCE_MISUSE,
            ViolationKind.INFORMATION_GATHERING: ReputationEvent.RESOURCE_MISUSE,
            ViolationKind.QOS_DEGRADATION: ReputationEvent.LOW_QUALITY_SERVICE,
            ViolationKind.CREDENTIAL_EXPIRED: ReputationEvent.FAILED_NEGOTIATION,
        }[event.kind]
        self.reputation.record(
            event.member, mapped, at=event.at, detail=event.detail
        )

    def report_violation(
        self,
        member_name: str,
        kind: ViolationKind,
        detail: str = "",
        at: Optional[datetime] = None,
    ) -> ViolationEvent:
        self.lifecycle.require(VOPhase.OPERATION)
        return self.monitor.report_violation(member_name, kind, detail, at)

    def replace_member(
        self,
        role_name: str,
        registry: ServiceRegistry,
        directory: dict[str, VOMember],
        at: datetime,
        negotiate_all: bool = False,
    ) -> FormationReport:
        """Replace a role's member "by following the same protocols of
        the formation phase" (Section 5.1, third arrow of Fig. 3)."""
        self.lifecycle.require(VOPhase.OPERATION)
        role = self.contract.role(role_name)
        outgoing = self._members.pop(role_name, None)
        old_token = self._tokens.pop(role_name, None)
        if old_token is not None:
            self._revoked_serials.add(old_token.certificate.serial)
        if outgoing is not None:
            outgoing.drop_token(self.contract.vo_name, role_name)
        report = self._cover_role(
            role, registry, directory, at, negotiate_all,
            exclude=frozenset({outgoing.name} if outgoing else ()),
        )
        if not report.covered:
            raise MembershipError(
                f"could not re-cover role {role_name!r} after replacement"
            )
        return report

    # -- dissolution -----------------------------------------------------------------------

    def _participation_outcome(self, member_name: str) -> str:
        """How the member's participation ended, for its ticket."""
        if self.monitor.violation_count(member_name) > 0:
            return "violated"
        if self.reputation.score(member_name) >= 0.5:
            return "fulfilled"
        return "completed"

    def issue_participation_ticket(
        self,
        member: VOMember,
        role_name: str,
        validity: ValidityPeriod,
        vo_name: AttributeValue,
    ) -> Credential:
        """Issue the member a "VO Participation Ticket".

        The Identification-phase policies of future VOs can require
        "tickets attesting their participation to other VOs" (paper
        Section 5.1); the ticket records the VO, the role played, and
        the outcome derived from the member's final reputation and
        violation record.  ``validity`` and the ``voName`` attribute
        are the same for every ticket of one dissolution, so the
        tickets share them instead of each holding an equal copy.
        """
        ticket_body = Credential.build(
            cred_type="VO Participation Ticket",
            cred_id=(
                f"{self.initiator.name}:ticket:{self.contract.vo_name}:"
                f"{member.name}:{role_name}"
            ),
            issuer=self.initiator.name,
            subject=member.name,
            subject_key=member.agent.keypair.fingerprint,
            validity=validity,
            attributes=(
                vo_name,
                AttributeValue.of("role", role_name),
                AttributeValue.of(
                    "outcome", self._participation_outcome(member.name)
                ),
                AttributeValue.of(
                    "finalReputation",
                    round(self.reputation.score(member.name), 3),
                ),
            ),
        )
        ticket = ticket_body.with_signature(
            self.initiator.agent.keypair.private.sign_b64(
                ticket_body.signing_bytes()
            )
        )
        if ticket.cred_id in member.agent.profile:
            member.agent.profile.remove(ticket.cred_id)
        member.agent.profile.add(ticket)
        return ticket

    def dissolve(self, at: Optional[datetime] = None) -> list:
        """Nullify all contractual bindings (Section 2).

        As part of the final operations, every member receives a
        participation ticket usable in future VO formations; the ticket
        is all it keeps of the VO (its token, transient policies and
        answered invitations go).  Returns the issued tickets.
        """
        self.lifecycle.require(VOPhase.OPERATION)
        validity = ValidityPeriod.starting(
            at or self.contract.created_at, days=3650
        )
        vo_name = AttributeValue.of("voName", self.contract.vo_name)
        tickets = [
            self.issue_participation_ticket(
                member, role_name, validity, vo_name
            )
            for role_name, member in self._members.items()
        ]
        for token in self._tokens.values():
            self._revoked_serials.add(token.certificate.serial)
        for member in self._members.values():
            member.drop_token(self.contract.vo_name)
            member.clear_transient_policies()
            member.mailbox.discard_answered(self.contract.vo_name)
        self._members.clear()
        self._tokens.clear()
        self.initiator.clear_vo_policies()
        self.lifecycle.advance(VOPhase.DISSOLUTION)
        return tickets
