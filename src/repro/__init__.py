"""repro — Trust-X trust negotiation for Virtual Organization management.

A from-scratch Python reproduction of

    A.C. Squicciarini, F. Paci, E. Bertino,
    "Trust establishment in the formation of Virtual Organizations",
    Computer Standards & Interfaces (2010).

The package provides:

- the **Trust-X negotiation engine** (:mod:`repro.negotiation`) with
  X-TNL credentials (:mod:`repro.credentials`) and disclosure policies
  (:mod:`repro.policy`),
- the **semantic layer** of ontologies, similarity matching, and the
  paper's Algorithm 1 (:mod:`repro.ontology`),
- the **VO Management toolkit** (:mod:`repro.vo`) and the simulated
  SOA it is deployed on (:mod:`repro.services`, :mod:`repro.storage`),
- the paper's **Aircraft Optimization scenario** and synthetic
  workloads (:mod:`repro.scenario`).

Quickstart::

    from repro.scenario import build_aircraft_scenario
    from repro.scenario.aircraft import ROLE_DESIGN_PORTAL

    scenario = build_aircraft_scenario()
    edition = scenario.initiator_edition
    vo = edition.create_vo(scenario.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_join(
        scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
        with_negotiation=True,
    )
    assert outcome.joined
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose
    exports are imported on first access, not when the package is.

    ``exports`` maps each defining module to the names the package
    re-exports from it; ``"name as alias"`` exports ``name`` under
    ``alias``.  Importing any ``repro`` module runs the ``__init__`` of
    every package above it, so eager re-exports would load the whole
    package tree for one module.  A name is looked up in its module on
    every access and never copied into the package, so the package
    always shows the module's current binding.
    """
    where: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            where[alias or name] = (module, name)

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), attr)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.credentials.authority": ("CredentialAuthority",),
    "repro.credentials.credential": ("Credential", "ValidityPeriod"),
    "repro.credentials.profile": ("XProfile",),
    "repro.credentials.revocation": ("RevocationRegistry",),
    "repro.credentials.selective": ("SelectiveCredential",),
    "repro.credentials.sensitivity": ("Sensitivity",),
    "repro.credentials.validation": ("CredentialValidator",),
    "repro.credentials.x509": ("AttributeCertificate", "VOMembershipToken"),
    "repro.crypto.keys": ("KeyPair", "Keyring"),
    "repro.negotiation.agent": ("TrustXAgent",),
    "repro.negotiation.engine": ("negotiate",),
    "repro.negotiation.outcomes": ("FailureReason", "NegotiationResult"),
    "repro.negotiation.strategies": ("Strategy",),
    "repro.ontology.graph": ("Ontology",),
    "repro.ontology.mapping": ("ConceptMapper",),
    "repro.policy.parser": ("parse_policies", "parse_policy"),
    "repro.policy.policybase": ("PolicyBase",),
    "repro.policy.rules": ("DisclosurePolicy",),
    "repro.vo.contract": ("Contract",),
    "repro.vo.initiator": ("VOInitiator",),
    "repro.vo.member": ("VOMember",),
    "repro.vo.organization": ("VirtualOrganization",),
    "repro.vo.registry": ("ServiceRegistry",),
    "repro.vo.roles": ("Role",),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # credentials
    "Credential",
    "ValidityPeriod",
    "XProfile",
    "Sensitivity",
    "CredentialAuthority",
    "CredentialValidator",
    "RevocationRegistry",
    "AttributeCertificate",
    "VOMembershipToken",
    "SelectiveCredential",
    # crypto
    "KeyPair",
    "Keyring",
    # policy
    "DisclosurePolicy",
    "PolicyBase",
    "parse_policy",
    "parse_policies",
    # ontology
    "Ontology",
    "ConceptMapper",
    # negotiation
    "TrustXAgent",
    "negotiate",
    "NegotiationResult",
    "FailureReason",
    "Strategy",
    # vo
    "Role",
    "Contract",
    "ServiceRegistry",
    "VOMember",
    "VOInitiator",
    "VirtualOrganization",
]
