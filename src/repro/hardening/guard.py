"""Protocol guard: inbound-message validation and sequence enforcement.

The TN Web service mediates between mutually distrusting parties, so
its boundary must assume the peer is not merely slow or crashed but
actively hostile: malformed fields, oversized or deeply nested XML,
replayed or reordered sequence numbers, messages for sessions that
already terminated.  The guard runs *before* any engine or billing
code and answers every violation with a typed
:class:`~repro.errors.GuardRejection` carrying an
:class:`~repro.errors.ErrorCode` — never a stack trace from the
engine.

Two passes:

:meth:`ProtocolGuard.validate`
    Stateless schema/size/depth validation of one ``(operation,
    payload)`` pair against the service contract.  Any string field
    that looks like an XML document is additionally parsed and checked
    against the structural limits (byte size, nesting depth, fan-out).

:meth:`ProtocolGuard.check_transition`
    Stateful per-session sequence machine: a new ``clientSeq`` must be
    exactly ``last_seq + 1`` (recorded seqs fall through to the
    service's idempotent replay path), ``CredentialExchange`` cannot
    run before ``PolicyExchange``, and nothing new is accepted once the
    session reached a terminal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING, Mapping, Optional
from xml.etree import ElementTree as ET

from repro.errors import ErrorCode, GuardRejection, XMLError
from repro.hardening.config import HardeningConfig
from repro.obs import count as obs_count
from repro.xmlutil.canonical import parse_xml

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.tn_service import NegotiationSession

__all__ = ["FieldSpec", "GuardStats", "ProtocolGuard", "TN_SCHEMAS"]


@dataclass(frozen=True)
class FieldSpec:
    """Schema entry for one payload field."""

    required: bool = False
    #: Accepted value types; ``None`` means any type (checked by kind).
    types: tuple[type, ...] | None = (str,)
    #: ``True`` when ``None`` is an acceptable value.
    nullable: bool = False


def _agent_spec() -> FieldSpec:
    from repro.negotiation.agent import TrustXAgent

    return FieldSpec(required=True, types=(TrustXAgent,))


def _tn_schemas() -> dict[str, dict[str, FieldSpec]]:
    number = (int, float)
    return {
        "StartNegotiation": {
            "requester": _agent_spec(),
            "strategy": FieldSpec(required=True),
            "counterpartUrl": FieldSpec(),
            "requestId": FieldSpec(),
            "deadlineMs": FieldSpec(types=number, nullable=True),
            "priority": FieldSpec(nullable=True),
        },
        "PolicyExchange": {
            "negotiationId": FieldSpec(required=True),
            "resource": FieldSpec(required=True),
            "at": FieldSpec(types=(datetime,), nullable=True),
            "clientSeq": FieldSpec(types=(int,), nullable=True),
            "deadlineMs": FieldSpec(types=number, nullable=True),
            "priority": FieldSpec(nullable=True),
        },
        "CredentialExchange": {
            "negotiationId": FieldSpec(required=True),
            "at": FieldSpec(types=(datetime,), nullable=True),
            "clientSeq": FieldSpec(types=(int,), nullable=True),
            "deadlineMs": FieldSpec(types=number, nullable=True),
            "priority": FieldSpec(nullable=True),
        },
    }


#: Message schemas of the TN service contract (lazy because the agent
#: type lives higher in the import graph).
TN_SCHEMAS: dict[str, dict[str, FieldSpec]] = {}


@dataclass
class GuardStats:
    """Counts of validated and rejected messages, by error code."""

    validated: int = 0
    rejected: int = 0
    by_code: dict[str, int] = field(default_factory=dict)

    def record_rejection(self, code: ErrorCode) -> None:
        self.rejected += 1
        self.by_code[code.value] = self.by_code.get(code.value, 0) + 1


@dataclass
class ProtocolGuard:
    """Validates inbound TN messages against schema and session state."""

    config: HardeningConfig = field(default_factory=HardeningConfig)
    stats: GuardStats = field(default_factory=GuardStats)

    def _reject(self, code: ErrorCode, message: str) -> GuardRejection:
        self.stats.record_rejection(code)
        obs_count(f"hardening.guard.{code.value}")
        return GuardRejection(message, error_code=code)

    # -- stateless validation ------------------------------------------------

    def validate(self, operation: str, payload: object) -> None:
        """Raise :class:`GuardRejection` unless ``payload`` conforms to
        the schema of ``operation``."""
        if not TN_SCHEMAS:
            TN_SCHEMAS.update(_tn_schemas())
        schema = TN_SCHEMAS.get(operation)
        if schema is None:
            raise self._reject(
                ErrorCode.UNKNOWN_OPERATION,
                f"unknown TN operation {operation!r}",
            )
        if not isinstance(payload, Mapping):
            raise self._reject(
                ErrorCode.MALFORMED_MESSAGE,
                f"{operation} payload must be a mapping, "
                f"got {type(payload).__name__}",
            )
        if len(payload) > self.config.max_payload_keys:
            raise self._reject(
                ErrorCode.OVERSIZED_PAYLOAD,
                f"{operation} payload has {len(payload)} keys "
                f"(limit {self.config.max_payload_keys})",
            )
        for key in payload:
            if not isinstance(key, str):
                raise self._reject(
                    ErrorCode.MALFORMED_MESSAGE,
                    f"{operation} payload key {key!r} is not a string",
                )
            if key not in schema:
                raise self._reject(
                    ErrorCode.SCHEMA_VIOLATION,
                    f"{operation} does not accept field {key!r}",
                )
        for name, spec in schema.items():
            if name not in payload:
                if spec.required:
                    raise self._reject(
                        ErrorCode.SCHEMA_VIOLATION,
                        f"{operation} requires field {name!r}",
                    )
                continue
            self._check_field(operation, name, spec, payload[name])
        self._check_semantics(operation, payload)
        self.stats.validated += 1

    def _check_field(
        self, operation: str, name: str, spec: FieldSpec, value: object
    ) -> None:
        if value is None:
            if spec.nullable:
                return
            raise self._reject(
                ErrorCode.SCHEMA_VIOLATION,
                f"{operation}.{name} must not be null",
            )
        if spec.types is not None and (
            not isinstance(value, spec.types)
            # bool passes isinstance(..., int); a boolean clientSeq or
            # deadline is a type error, not a number.
            or (isinstance(value, bool) and bool not in spec.types)
        ):
            raise self._reject(
                ErrorCode.SCHEMA_VIOLATION,
                f"{operation}.{name} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in spec.types)}",
            )
        if isinstance(value, str):
            self._check_string(operation, name, value)

    def _check_string(self, operation: str, name: str, value: str) -> None:
        encoded = len(value.encode("utf-8"))
        if encoded > self.config.max_string_bytes:
            raise self._reject(
                ErrorCode.OVERSIZED_PAYLOAD,
                f"{operation}.{name} is {encoded} bytes "
                f"(limit {self.config.max_string_bytes})",
            )
        if value.lstrip().startswith("<"):
            self._check_xml(operation, name, value)

    def _check_xml(self, operation: str, name: str, document: str) -> None:
        """Structural validation of an embedded XML document (its size
        is the string's, already checked)."""
        try:
            root = parse_xml(document)
        except XMLError as exc:
            raise self._reject(
                ErrorCode.MALFORMED_MESSAGE,
                f"{operation}.{name} carries malformed XML: {exc}",
            ) from exc
        self._check_element(operation, name, root, depth=1)

    def _check_element(
        self, operation: str, name: str, element: ET.Element, depth: int
    ) -> None:
        if depth > self.config.max_xml_depth:
            raise self._reject(
                ErrorCode.DEPTH_EXCEEDED,
                f"{operation}.{name} XML nests deeper than "
                f"{self.config.max_xml_depth} levels",
            )
        if len(element) > self.config.max_xml_children:
            raise self._reject(
                ErrorCode.DEPTH_EXCEEDED,
                f"{operation}.{name} XML element {element.tag!r} has "
                f"{len(element)} children "
                f"(limit {self.config.max_xml_children})",
            )
        for child in element:
            self._check_element(operation, name, child, depth + 1)

    def _check_semantics(self, operation: str, payload: Mapping) -> None:
        """Field-level constraints beyond plain types."""
        if operation == "StartNegotiation":
            from repro.negotiation.strategies import Strategy

            try:
                Strategy.parse(payload["strategy"])
            except Exception as exc:
                raise self._reject(
                    ErrorCode.SCHEMA_VIOLATION,
                    f"StartNegotiation.strategy "
                    f"{payload['strategy']!r} is not a known strategy",
                ) from exc
        seq = payload.get("clientSeq")
        if seq is not None and not (1 <= seq <= self.config.max_client_seq):
            raise self._reject(
                ErrorCode.SCHEMA_VIOLATION,
                f"{operation}.clientSeq {seq} is outside "
                f"[1, {self.config.max_client_seq}]",
            )
        priority = payload.get("priority")
        if priority is not None:
            from repro.hardening.admission import Priority

            try:
                Priority.parse(priority)
            except ValueError as exc:
                raise self._reject(
                    ErrorCode.SCHEMA_VIOLATION,
                    f"{operation}.priority {priority!r} is not a known "
                    "priority class",
                ) from exc

    # -- stateful sequence machine -------------------------------------------

    def check_transition(
        self,
        session: "NegotiationSession",
        operation: str,
        seq: Optional[int],
        resource: str,
    ) -> None:
        """Enforce the per-session negotiation state machine.

        Recorded sequence numbers are *not* rejected here — they fall
        through to the service's idempotent replay path, which verifies
        the payload matches the recording.  Everything genuinely new
        must advance the session by exactly one step.
        """
        del resource  # replay payload matching stays in the service
        is_replay = seq is not None and seq in session.responses
        if session.terminal and not is_replay:
            raise self._reject(
                ErrorCode.POST_TERMINAL,
                f"session {session.session_id!r} already terminated "
                f"(phase {session.phase!r}); {operation} rejected",
            )
        if is_replay or seq is None:
            return
        if operation == "CredentialExchange" and session.phase == "started" \
                and not session.restored:
            raise self._reject(
                ErrorCode.PHASE_SKIP,
                f"CredentialExchange before PolicyExchange for "
                f"{session.session_id!r}",
            )
        if seq > session.last_seq + 1:
            raise self._reject(
                ErrorCode.OUT_OF_ORDER,
                f"clientSeq {seq} skips ahead of session "
                f"{session.session_id!r} (last acknowledged "
                f"{session.last_seq})",
            )
        if seq <= session.last_seq and not session.restored:
            raise self._reject(
                ErrorCode.OUT_OF_ORDER,
                f"clientSeq {seq} is stale for session "
                f"{session.session_id!r} (last acknowledged "
                f"{session.last_seq})",
            )
