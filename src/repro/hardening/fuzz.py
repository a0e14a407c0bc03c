"""Fuzz corpus for the TN service boundary.

A fixed library of malformed, oversized, mistyped, out-of-order, and
post-terminal probes.  Each probe is delivered to a hardened service
and must be answered with a *typed* :class:`~repro.errors.ReproError`
(an ``error_code`` from the taxonomy) — never an unhandled exception
and never a success.  The chaos-soak driver replays the whole corpus
up front and folds the verdicts into its invariant report; the unit
tests in ``tests/hardening/test_fuzz_corpus.py`` run it standalone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ErrorCode, ReproError
from repro.hardening.config import HardeningConfig

__all__ = [
    "FuzzProbe",
    "FuzzOutcome",
    "run_probe",
    "session_probes",
    "stateless_probes",
    "terminal_probes",
]


@dataclass(frozen=True)
class FuzzProbe:
    """One adversarial message and the codes that may reject it."""

    name: str
    operation: str
    payload: object
    #: Acceptable rejection codes; empty means any typed code counts.
    expected: tuple[ErrorCode, ...] = ()


@dataclass(frozen=True)
class FuzzOutcome:
    """Verdict of one delivered probe."""

    name: str
    rejected: bool
    code: Optional[ErrorCode] = None
    #: Populated when the probe was *not* cleanly rejected: it
    #: succeeded, raised an untyped error, or leaked a non-library
    #: exception.
    anomaly: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.rejected and self.anomaly is None


def _deep_xml(depth: int) -> str:
    return "<a>" * depth + "x" + "</a>" * depth


def _wide_xml(children: int) -> str:
    return "<a>" + "<b></b>" * children + "</a>"


def stateless_probes(
    config: Optional[HardeningConfig] = None,
) -> list[FuzzProbe]:
    """Probes needing no live session."""
    config = config or HardeningConfig()
    long_string = "x" * (config.max_string_bytes + 1)
    big_xml = "<a>" + "y" * config.max_string_bytes + "</a>"
    many_keys = {f"k{i}": i for i in range(config.max_payload_keys + 1)}
    return [
        FuzzProbe(
            "payload-is-list", "StartNegotiation", ["not", "a", "dict"],
            (ErrorCode.MALFORMED_MESSAGE,),
        ),
        FuzzProbe(
            "payload-is-string", "PolicyExchange", "<xml/>",
            (ErrorCode.MALFORMED_MESSAGE,),
        ),
        FuzzProbe(
            "unknown-operation", "DropAllTables", {},
            (ErrorCode.UNKNOWN_OPERATION,),
        ),
        FuzzProbe(
            "unknown-field", "CredentialExchange",
            {"negotiationId": "tn-1", "clientSeq": 2, "exploit": "1"},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "missing-requester", "StartNegotiation",
            {"strategy": "standard"},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "non-string-key", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": "R", 7: "seven"},
            (ErrorCode.MALFORMED_MESSAGE,),
        ),
        FuzzProbe(
            "string-clientSeq", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": "R", "clientSeq": "one"},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "boolean-clientSeq", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": "R", "clientSeq": True},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "zero-clientSeq", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": "R", "clientSeq": 0},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "negative-clientSeq", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": "R", "clientSeq": -3},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "flooding-clientSeq", "PolicyExchange",
            {
                "negotiationId": "tn-1", "resource": "R",
                "clientSeq": config.max_client_seq + 1,
            },
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "null-resource", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": None, "clientSeq": 1},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "oversized-string", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": long_string, "clientSeq": 1},
            (ErrorCode.OVERSIZED_PAYLOAD,),
        ),
        FuzzProbe(
            "too-many-keys", "StartNegotiation", many_keys,
            (ErrorCode.OVERSIZED_PAYLOAD,),
        ),
        FuzzProbe(
            "truncated-xml", "PolicyExchange",
            {
                "negotiationId": "tn-1", "clientSeq": 1,
                "resource": "<credential><attr name='x'",
            },
            (ErrorCode.MALFORMED_MESSAGE,),
        ),
        FuzzProbe(
            "deep-xml", "PolicyExchange",
            {
                "negotiationId": "tn-1", "clientSeq": 1,
                "resource": _deep_xml(config.max_xml_depth + 4),
            },
            (ErrorCode.DEPTH_EXCEEDED,),
        ),
        FuzzProbe(
            "wide-xml", "PolicyExchange",
            {
                "negotiationId": "tn-1", "clientSeq": 1,
                "resource": _wide_xml(config.max_xml_children + 4),
            },
            (ErrorCode.DEPTH_EXCEEDED,),
        ),
        FuzzProbe(
            "oversized-xml", "PolicyExchange",
            {"negotiationId": "tn-1", "resource": big_xml, "clientSeq": 1},
            (ErrorCode.OVERSIZED_PAYLOAD,),
        ),
        FuzzProbe(
            "unknown-strategy", "StartNegotiation",
            {"strategy": "yolo"},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "unknown-priority", "CredentialExchange",
            {"negotiationId": "tn-1", "clientSeq": 2, "priority": "vip"},
            (ErrorCode.SCHEMA_VIOLATION,),
        ),
        FuzzProbe(
            "unknown-session", "PolicyExchange",
            {
                "negotiationId": "tn-nonexistent", "resource": "R",
                "clientSeq": 1,
            },
            (ErrorCode.UNKNOWN_SESSION,),
        ),
    ]


def session_probes(session_id: str) -> list[FuzzProbe]:
    """Probes against a live session still in its ``started`` phase."""
    return [
        FuzzProbe(
            "phase-skip", "CredentialExchange",
            {"negotiationId": session_id, "clientSeq": 1},
            (ErrorCode.PHASE_SKIP,),
        ),
        FuzzProbe(
            "skip-ahead-seq", "PolicyExchange",
            {"negotiationId": session_id, "resource": "R", "clientSeq": 5},
            (ErrorCode.OUT_OF_ORDER,),
        ),
    ]


def terminal_probes(session_id: str, resource: str) -> list[FuzzProbe]:
    """Probes against a session that already completed."""
    return [
        FuzzProbe(
            "post-terminal-policy", "PolicyExchange",
            {
                "negotiationId": session_id, "resource": resource,
                "clientSeq": 3,
            },
            (ErrorCode.POST_TERMINAL,),
        ),
        FuzzProbe(
            "post-terminal-credential", "CredentialExchange",
            {"negotiationId": session_id, "clientSeq": 4},
            (ErrorCode.POST_TERMINAL,),
        ),
        FuzzProbe(
            "replay-forgery", "CredentialExchange",
            {"negotiationId": session_id, "clientSeq": 1},
            # clientSeq 1 was recorded for PolicyExchange; replaying it
            # as CredentialExchange is a forged retry, not idempotency.
            (ErrorCode.REPLAY_MISMATCH,),
        ),
    ]


def run_probe(
    call: Callable[[str, object], object], probe: FuzzProbe
) -> FuzzOutcome:
    """Deliver ``probe`` through ``call`` and classify the response."""
    try:
        call(probe.operation, probe.payload)
    except ReproError as exc:
        code = getattr(exc, "error_code", None)
        if code is None:
            return FuzzOutcome(
                probe.name, rejected=True,
                anomaly=f"untyped {type(exc).__name__}: {exc}",
            )
        if probe.expected and code not in probe.expected:
            return FuzzOutcome(
                probe.name, rejected=True, code=code,
                anomaly=(
                    f"rejected with {code.value}, expected one of "
                    f"{[c.value for c in probe.expected]}"
                ),
            )
        return FuzzOutcome(probe.name, rejected=True, code=code)
    except Exception as exc:  # noqa: BLE001 - the whole point
        return FuzzOutcome(
            probe.name, rejected=False,
            anomaly=f"leaked {type(exc).__name__}: {exc}",
        )
    return FuzzOutcome(
        probe.name, rejected=False, anomaly="probe was accepted"
    )
