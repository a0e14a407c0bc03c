"""Tuning knobs for the hardening layer.

One frozen config object gathers every limit of the protocol guard
(schema/size/depth validation, sequence state machine) and the
admission controller (bounded queue, drain rate, priority shed
thresholds, session TTL), so the :mod:`repro.api` facade can thread a
single ``hardening=`` argument through the toolkit the same way
``ResilienceConfig`` threads the retry knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HardeningConfig"]


@dataclass(frozen=True, kw_only=True)
class HardeningConfig:
    """Knobs for the protocol guard and the admission controller.

    The defaults are sized for the simulated testbed: payloads are a
    handful of scalar fields plus optionally one embedded X-TNL
    document, and a service that cannot drain roughly one negotiation
    operation per 20 simulated ms is saturated.
    """

    # -- protocol guard ------------------------------------------------------
    #: Master switch for inbound message validation.
    guard_enabled: bool = True
    #: Maximum number of top-level keys in one payload mapping.
    max_payload_keys: int = 16
    #: Maximum byte length of any single string field (UTF-8), an
    #: embedded XML document included.
    max_string_bytes: int = 4096
    #: Maximum element nesting depth of an embedded XML document.
    max_xml_depth: int = 32
    #: Maximum direct children of any one element.
    max_xml_children: int = 256
    #: Highest acceptable clientSeq; beyond it the peer is flooding.
    max_client_seq: int = 10_000

    # -- admission control ---------------------------------------------------
    #: Master switch for overload protection.
    admission_enabled: bool = True
    #: Bounded work-queue capacity (outstanding admitted requests).
    queue_capacity: int = 64
    #: Queue slots drained per simulated millisecond.
    drain_per_ms: float = 0.05
    #: Per-priority shed thresholds as fractions of ``queue_capacity``:
    #: operation-phase traffic may fill the whole queue, formation
    #: traffic three quarters, identification traffic half — so under
    #: saturation the cheap-to-redo identification work is shed first
    #: (operation-phase > formation > identification).
    shed_threshold_operation: float = 1.0
    shed_threshold_formation: float = 0.75
    shed_threshold_identification: float = 0.5
    #: Simulated ms after which an untouched non-terminal session is
    #: reaped to the terminal "expired" phase.
    session_ttl_ms: float = 120_000.0

    def guard(self):
        """Build a :class:`~repro.hardening.guard.ProtocolGuard` from
        these knobs, or ``None`` when the guard is disabled."""
        from repro.hardening.guard import ProtocolGuard

        if not self.guard_enabled:
            return None
        return ProtocolGuard(config=self)

    def admission(self):
        """Build an :class:`~repro.hardening.admission.AdmissionController`
        from these knobs, or ``None`` when admission is disabled."""
        from repro.hardening.admission import AdmissionController

        if not self.admission_enabled:
            return None
        return AdmissionController(config=self)
