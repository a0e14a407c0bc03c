"""Negotiation results, transcripts, and the failure taxonomy."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from repro.negotiation.tree import NegotiationTree, TreeNode

__all__ = [
    "FailureReason",
    "UNSATISFIABLE_REASONS",
    "TranscriptEvent",
    "NegotiationResult",
]


class FailureReason(Enum):
    #: The policy phase found no satisfiable view ("the counterpart
    #: then sends an alternative policy, if any, or halts the process").
    NO_TRUST_SEQUENCE = "no_trust_sequence"
    #: A disclosed credential failed verification — e.g. "a party uses
    #: a revoked certificate, the negotiation fails".
    CREDENTIAL_REJECTED = "credential_rejected"
    #: A credential *already accepted* this negotiation was retracted
    #: mid-flight (revocation, CRL publication) and the re-verification
    #: triggered by the trust-epoch advance caught it.  Transient, like
    #: CREDENTIAL_REJECTED: a later attempt without the revoked
    #: credential may still succeed.
    CREDENTIAL_REVOKED = "credential_revoked"
    #: A strategy constraint was violated (X.509 without partial hiding).
    STRATEGY_VIOLATION = "strategy_violation"
    #: The negotiation exceeded its depth/round budget.
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: A party violated the protocol.
    PROTOCOL = "protocol"
    #: The counterpart could not be reached (timeouts, crash, open
    #: circuit) and retries were exhausted — the negotiation never got
    #: a definitive answer.
    UNREACHABLE = "unreachable"

    @property
    def is_unsatisfiable(self) -> bool:
        """Whether the policy phase proved no trust sequence can exist.

        Distinguishes *unsatisfiable* outcomes (retrying cannot help:
        the policies, budget, or strategy rule trust out) from
        *transient* ones (a rejected credential, a protocol slip, an
        unreachable peer — a later attempt may still succeed)."""
        return self in UNSATISFIABLE_REASONS


#: Reasons for which the policy phase determined that no trust
#: sequence can be established, no matter how often the negotiation
#: is retried.
UNSATISFIABLE_REASONS = frozenset({
    FailureReason.NO_TRUST_SEQUENCE,
    FailureReason.BUDGET_EXHAUSTED,
    FailureReason.STRATEGY_VIOLATION,
})


class TranscriptEvent(NamedTuple):
    """One step of the negotiation, for inspection and debugging."""

    phase: str  # "policy" | "exchange" | "setup"
    actor: str
    action: str
    detail: str = ""


@dataclass
class NegotiationResult:
    """Outcome of one trust negotiation."""

    resource: str
    requester: str
    controller: str
    success: bool
    failure_reason: Optional[FailureReason] = None
    failure_detail: str = ""
    tree: Optional[NegotiationTree] = None
    #: Nodes in the order their credentials were disclosed (the trust
    #: sequence actually executed); the root resource is last.
    sequence: tuple[TreeNode, ...] = ()
    transcript: tuple[TranscriptEvent, ...] = ()
    #: Message counts, split by phase — the cost measure trust
    #: negotiation papers report ("with a relatively small number of
    #: messages", Section 1).
    policy_messages: int = 0
    exchange_messages: int = 0
    #: Credentials disclosed by each side (ids), for privacy accounting.
    disclosed_by_requester: tuple[str, ...] = ()
    disclosed_by_controller: tuple[str, ...] = ()

    @property
    def total_messages(self) -> int:
        return self.policy_messages + self.exchange_messages

    @property
    def disclosures(self) -> int:
        return len(self.disclosed_by_requester) + len(self.disclosed_by_controller)

    def to_audit_record(self) -> dict:
        """A JSON-serializable audit record of the negotiation.

        The VO's monitoring requirement ("all the interactions must be
        monitored", Section 2) extends to negotiations; this record
        captures the outcome, the cost accounting, and the full
        transcript without any credential *contents*.
        """
        return {
            "resource": self.resource,
            "requester": self.requester,
            "controller": self.controller,
            "success": self.success,
            "failureReason": (
                self.failure_reason.value if self.failure_reason else None
            ),
            "failureDetail": self.failure_detail,
            "policyMessages": self.policy_messages,
            "exchangeMessages": self.exchange_messages,
            "disclosedByRequester": list(self.disclosed_by_requester),
            "disclosedByController": list(self.disclosed_by_controller),
            "transcript": [
                {
                    "phase": event.phase,
                    "actor": event.actor,
                    "action": event.action,
                    "detail": event.detail,
                }
                for event in self.transcript
            ],
        }

    def to_audit_json(self) -> str:
        import json

        return json.dumps(self.to_audit_record(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if self.success:
            return (
                f"SUCCESS: {self.requester} obtained {self.resource!r} from "
                f"{self.controller} ({self.total_messages} messages, "
                f"{self.disclosures} disclosures)"
            )
        reason = self.failure_reason.value if self.failure_reason else "unknown"
        return (
            f"FAILURE({reason}): {self.requester} did not obtain "
            f"{self.resource!r} from {self.controller}"
            + (f" — {self.failure_detail}" if self.failure_detail else "")
        )
