"""Protocol messages exchanged during a Trust-X negotiation.

The vocabulary mirrors the interplay of Section 4.2: a resource
request, policy messages (sets of disclosure policies protecting
requested items), non-possession notices, sequence agreement, the
credential disclosures of the exchange phase with their
acknowledgements, and the final grant or failure.

Messages are plain frozen dataclasses; the service layer (see
:mod:`repro.services.soap`) wraps them in SOAP-ish envelopes when the
negotiation runs through the TN Web service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ErrorCode

if TYPE_CHECKING:
    from repro.credentials.credential import Credential
    from repro.credentials.selective import Presentation
    from repro.credentials.validation import OwnershipProof
    from repro.policy.rules import DisclosurePolicy

__all__ = [
    "ResourceRequest",
    "PolicyMessage",
    "NotPossess",
    "SequenceProposal",
    "SequenceAccept",
    "Disclosure",
    "DisclosureAck",
    "ResourceGrant",
    "FailureNotice",
    "Message",
]


@dataclass(frozen=True)
class ResourceRequest:
    """Opens the negotiation: ``requester`` asks for ``resource``."""

    requester: str
    resource: str


@dataclass(frozen=True)
class PolicyMessage:
    """Disclosure policies protecting a requested node.

    ``node_id`` ties the policies to the negotiation-tree node they
    expand; ``policies`` are alternatives (a disjunction).
    """

    sender: str
    node_id: int
    policies: tuple[DisclosurePolicy, ...]


@dataclass(frozen=True)
class NotPossess:
    """The receiver does not possess a credential for the given node."""

    sender: str
    node_id: int


@dataclass(frozen=True)
class SequenceProposal:
    """End of the policy phase: a trust sequence was detected.

    Carries node ids in disclosure order; each party checks the
    sequence against its local tree view before accepting.
    """

    sender: str
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class SequenceAccept:
    sender: str


@dataclass(frozen=True)
class Disclosure:
    """One credential disclosure of the exchange phase.

    Either a full credential (trusting/standard strategies) or a
    selective presentation revealing only the needed attributes
    (suspicious strategies).  ``proof`` answers the receiver's
    ownership challenge.
    """

    sender: str
    node_id: int
    credential: Optional[Credential] = None
    presentation: Optional[Presentation] = None
    proof: Optional[OwnershipProof] = None

    def __post_init__(self) -> None:
        if (self.credential is None) == (self.presentation is None):
            raise ValueError(
                "a disclosure carries exactly one of credential/presentation"
            )

    @property
    def subject_key(self) -> str:
        if self.credential is not None:
            return self.credential.subject_key
        return self.presentation.credential.subject_key


@dataclass(frozen=True)
class DisclosureAck:
    """Acknowledgement with the next ownership challenge nonce."""

    sender: str
    node_id: int
    accepted: bool
    next_nonce: Optional[str] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class ResourceGrant:
    """Final message: the requested resource is released."""

    sender: str
    resource: str


@dataclass(frozen=True)
class FailureNotice:
    """Terminal failure message.

    ``reason`` stays the human-readable explanation; ``code`` is the
    machine-readable entry from the :class:`repro.errors.ErrorCode`
    taxonomy so peers can branch without parsing strings.
    """

    sender: str
    reason: str
    code: ErrorCode = ErrorCode.NEGOTIATION_FAILED


Message = Union[
    ResourceRequest,
    PolicyMessage,
    NotPossess,
    SequenceProposal,
    SequenceAccept,
    Disclosure,
    DisclosureAck,
    ResourceGrant,
    FailureNotice,
]
