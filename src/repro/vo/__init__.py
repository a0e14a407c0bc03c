"""Virtual Organization management (paper Sections 2, 5, 6.1).

Models the VO lifecycle the paper extends with trust negotiation:

- **Preparation** — service providers publish resource descriptions in
  a public repository (:mod:`registry`);
- **Identification** — the VO Initiator defines the contract with its
  roles and requirements and the disclosure policies for the TNs to
  come (:mod:`contract`, :mod:`roles`, :mod:`initiator`);
- **Formation** — candidates are discovered, invited (:mod:`invitations`),
  negotiated with, and issued VO membership certificates
  (:mod:`initiator`, :mod:`member`);
- **Operation** — interactions are monitored (:mod:`monitoring`),
  reputations updated (:mod:`reputation`), operation-phase TNs
  authorize sensitive steps, and violating members are replaced
  (:mod:`organization`);
- **Dissolution** — contractual bindings are nullified
  (:mod:`organization`).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.vo.contract": ("Contract",),
    "repro.vo.initiator": ("VOInitiator",),
    "repro.vo.invitations": ("Invitation", "InvitationStatus", "Mailbox"),
    "repro.vo.lifecycle": ("LifecycleTracker", "VOPhase"),
    "repro.vo.member": ("VOMember",),
    "repro.vo.monitoring": (
        "OperationMonitor", "ViolationEvent", "ViolationKind",
    ),
    "repro.vo.organization": ("VirtualOrganization",),
    "repro.vo.registry": ("ServiceDescription", "ServiceRegistry"),
    "repro.vo.reputation": ("ReputationEvent", "ReputationSystem"),
    "repro.vo.roles": ("Role",),
})

__all__ = [
    "Role",
    "Contract",
    "ServiceDescription",
    "ServiceRegistry",
    "ReputationSystem",
    "ReputationEvent",
    "Invitation",
    "InvitationStatus",
    "Mailbox",
    "VOPhase",
    "LifecycleTracker",
    "ViolationKind",
    "ViolationEvent",
    "OperationMonitor",
    "VOMember",
    "VOInitiator",
    "VirtualOrganization",
]
