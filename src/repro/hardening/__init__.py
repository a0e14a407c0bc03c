"""Adversarial-peer hardening for the simulated SOA stack.

The resilience layer (:mod:`repro.services.resilience`) protects a
*client* from a failing network; this package protects a *service*
from a hostile or overloading peer, and provides the harness that
proves the protection holds:

- :mod:`repro.hardening.guard` — the protocol guard at the TN service
  boundary: strict schema/size/depth validation of every inbound
  message plus a per-session negotiation state machine that rejects
  out-of-order, replayed-with-different-payload, phase-skipping, and
  post-terminal messages with typed :class:`~repro.errors.ErrorCode`
  rejections.
- :mod:`repro.hardening.admission` — overload protection: a bounded
  admission bucket drained in simulated time, priority-aware load
  shedding (operation phase > formation > identification), and
  deadline-expired work shed before the engine pays for it.
- :mod:`repro.hardening.fuzz` — a corpus of malformed / out-of-order
  probes with expected rejection codes, for directed boundary testing.
- :mod:`repro.hardening.soak` — the chaos-soak driver: thousands of
  negotiations under mixed adversarial faults and overload bursts,
  with an invariant checker over disclosure safety, session
  terminality, admission reconciliation, and exception hygiene.

All knobs live on :class:`HardeningConfig`; a service constructed with
one gets the guard and admission control, a service constructed
without stays byte-for-byte on its pre-hardening behavior.
"""

from __future__ import annotations

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.hardening.admission": (
        "AdmissionController", "AdmissionStats", "Priority",
        "operation_priority",
    ),
    "repro.hardening.config": ("HardeningConfig",),
    "repro.hardening.fuzz": (
        "FuzzOutcome", "FuzzProbe", "run_probe", "session_probes",
        "stateless_probes", "terminal_probes",
    ),
    "repro.hardening.guard": ("GuardStats", "ProtocolGuard"),
    "repro.hardening.soak": (
        "InvariantViolation", "SoakConfig", "SoakReport",
        "check_service_invariants", "run_soak",
    ),
})

__all__ = [
    "HardeningConfig",
    "ProtocolGuard",
    "GuardStats",
    "AdmissionController",
    "AdmissionStats",
    "Priority",
    "operation_priority",
    "FuzzProbe",
    "FuzzOutcome",
    "stateless_probes",
    "session_probes",
    "terminal_probes",
    "run_probe",
    "SoakConfig",
    "SoakReport",
    "InvariantViolation",
    "run_soak",
    "check_service_invariants",
]
