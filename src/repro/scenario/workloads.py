"""Synthetic workload generators for benchmarks and stress tests.

Deterministic (seeded) builders for the structures whose scaling the
ablation benches measure: policy *chains* (negotiation depth), *bushy*
policy sets (alternatives per resource → tree branching), credential
portfolios, and ontologies with controlled vocabulary overlap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

from repro.credentials.authority import CredentialAuthority
from repro.credentials.profile import XProfile
from repro.credentials.revocation import RevocationRegistry
from repro.credentials.sensitivity import Sensitivity
from repro.credentials.validation import CredentialValidator
from repro.crypto.keys import KeyPair, Keyring
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.strategies import Strategy
from repro.policy.policybase import PolicyBase
from repro.trust import TrustBus

if TYPE_CHECKING:
    from repro.ontology.graph import Ontology
    from repro.services.transport import LatencyModel, SimTransport
    from repro.services.vo_toolkit import (
        HostEdition,
        InitiatorEdition,
        MemberEdition,
    )
    from repro.vo.contract import Contract
    from repro.vo.initiator import VOInitiator

__all__ = [
    "NegotiationFixture",
    "FormationFixture",
    "CapacityFixture",
    "capacity_workload",
    "chain_workload",
    "bushy_workload",
    "formation_workload",
    "make_portfolio",
    "random_ontology",
    "overlapping_ontologies",
]

_ISSUE = datetime(2009, 10, 26)


@dataclass
class NegotiationFixture:
    """Two ready-to-negotiate agents plus the requested resource."""

    requester: TrustXAgent
    controller: TrustXAgent
    resource: str
    authority: CredentialAuthority
    revocations: RevocationRegistry

    def negotiation_time(self) -> datetime:
        return datetime(2010, 3, 1)


def _make_party(
    name: str,
    authority: CredentialAuthority,
    revocations: RevocationRegistry,
    cred_types: list[str],
    policies_dsl: str,
    strategy: Strategy = Strategy.STANDARD,
) -> TrustXAgent:
    keypair = KeyPair.generate(512)
    profile = XProfile.of(
        name,
        [
            authority.issue(
                cred_type,
                name,
                keypair.fingerprint,
                {"holder": name, "level": index},
                _ISSUE,
                days=3650,
                sensitivity=Sensitivity.LOW,
            )
            for index, cred_type in enumerate(cred_types)
        ],
    )
    keyring = Keyring()
    keyring.add(authority.name, authority.public_key)
    return TrustXAgent(
        name=name,
        profile=profile,
        policies=PolicyBase.from_dsl(name, policies_dsl),
        keypair=keypair,
        validator=CredentialValidator(keyring, revocations),
        strategy=strategy,
    )


def chain_workload(
    depth: int,
    authority: CredentialAuthority | None = None,
    strategy: Strategy = Strategy.STANDARD,
) -> NegotiationFixture:
    """A negotiation whose tree is a chain of ``depth`` policy levels.

    The controller protects the resource with a policy requiring the
    requester's credential ``R0``; ``R0`` requires the controller's
    ``C0``; ``C0`` requires ``R1``; ... the final credential is freely
    deliverable.  Depth therefore equals the number of alternating
    policy exchanges before a trust sequence exists.
    """
    if depth < 1:
        raise ValueError(f"chain depth must be >= 1, got {depth}")
    authority = authority or CredentialAuthority.create("ChainCA", key_bits=512)
    revocations = RevocationRegistry()
    TrustBus(registry=revocations).publish_crl(authority.crl)

    requester_types = [f"R{level}" for level in range((depth + 1) // 2)]
    controller_types = [f"C{level}" for level in range(depth // 2)]

    # Build the alternating requirement chain.
    chain = ["RES"]
    for level in range(depth):
        side = "R" if level % 2 == 0 else "C"
        chain.append(f"{side}{level // 2}")

    requester_rules = []
    controller_rules = []
    for position in range(len(chain) - 1):
        rule = f"{chain[position]} <- {chain[position + 1]}"
        if position % 2 == 0:
            controller_rules.append(rule)
        else:
            requester_rules.append(rule)
    # The deepest credential is deliverable.
    last_owner_rules = (
        requester_rules if depth % 2 == 1 else controller_rules
    )
    last_owner_rules.append(f"{chain[-1]} <- DELIV")

    requester = _make_party(
        "chain-requester", authority, revocations, requester_types,
        "\n".join(requester_rules), strategy,
    )
    controller = _make_party(
        "chain-controller", authority, revocations, controller_types,
        "\n".join(controller_rules), strategy,
    )
    return NegotiationFixture(
        requester, controller, "RES", authority, revocations
    )


def bushy_workload(
    alternatives: int,
    satisfiable_index: int | None = None,
    authority: CredentialAuthority | None = None,
) -> NegotiationFixture:
    """A negotiation with ``alternatives`` alternative policies for the
    resource, of which only one is satisfiable.

    ``satisfiable_index`` selects which alternative the requester can
    satisfy (defaults to the last, the worst case for the greedy
    first-alternative preference).
    """
    if alternatives < 1:
        raise ValueError(f"need >= 1 alternatives, got {alternatives}")
    if satisfiable_index is None:
        satisfiable_index = alternatives - 1
    if not 0 <= satisfiable_index < alternatives:
        raise ValueError(
            f"satisfiable_index {satisfiable_index} out of range"
        )
    authority = authority or CredentialAuthority.create("BushyCA", key_bits=512)
    revocations = RevocationRegistry()
    TrustBus(registry=revocations).publish_crl(authority.crl)

    controller_rules = [
        f"RES <- Alt{index}" for index in range(alternatives)
    ]
    held_type = f"Alt{satisfiable_index}"
    # The satisfiable alternative also carries an XPath condition over
    # the credential body (the holder attribute `_make_party` always
    # sets), so bushy runs exercise condition evaluation — and with it
    # the shared XPath AST cache — on every compliance check.
    controller_rules[satisfiable_index] = (
        f"RES <- {held_type}(xpath('/credential/content/holder'))"
    )
    requester = _make_party(
        "bushy-requester", authority, revocations, [held_type],
        f"{held_type} <- DELIV",
    )
    controller = _make_party(
        "bushy-controller", authority, revocations, [],
        "\n".join(controller_rules),
    )
    return NegotiationFixture(
        requester, controller, "RES", authority, revocations
    )


@dataclass
class CapacityFixture:
    """One controller and many independent requesters for session-
    capacity benchmarks: every requester runs the same two-round
    negotiation against the controller's TN service, so per-session
    cost is uniform and concurrent-session scheduling is the only
    variable."""

    controller: TrustXAgent
    requesters: list[TrustXAgent]
    resource: str
    authority: CredentialAuthority
    revocations: RevocationRegistry

    def negotiation_time(self) -> datetime:
        return datetime(2010, 3, 1)


def capacity_workload(requesters: int) -> CapacityFixture:
    """``requesters`` independent parties negotiating one resource.

    The controller protects ``RES`` behind the requester's
    ``MemberQual`` credential; each requester protects its
    ``MemberQual`` behind the controller's freely-deliverable
    ``ControllerAccreditation`` — the same two-round shape as a real
    formation join, repeated across distinct requesters so a service
    can hold many *distinct* sessions open at once.
    """
    if requesters < 1:
        raise ValueError(f"need >= 1 requesters, got {requesters}")
    authority = CredentialAuthority.create("CapacityCA", key_bits=512)
    revocations = RevocationRegistry()
    TrustBus(registry=revocations).publish_crl(authority.crl)
    controller = _make_party(
        "capacity-controller", authority, revocations,
        ["ControllerAccreditation"],
        "RES <- MemberQual\nControllerAccreditation <- DELIV",
    )
    parties = [
        _make_party(
            f"capacity-requester-{index:03d}", authority, revocations,
            ["MemberQual"],
            "MemberQual <- ControllerAccreditation",
        )
        for index in range(requesters)
    ]
    return CapacityFixture(
        controller, parties, "RES", authority, revocations
    )


@dataclass
class FormationFixture:
    """An N-role VO on a fresh simulated SOA, ready for formation.

    The caller drives the toolkit itself (so serial and parallel runs
    can start from identical fresh fixtures)::

        fixture = formation_workload(8)
        edition = fixture.initiator_edition
        edition.create_vo(fixture.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_formation(
            fixture.plans(), at=fixture.contract.created_at, parallel=True
        )
    """

    transport: SimTransport
    host: HostEdition
    initiator: VOInitiator
    initiator_edition: InitiatorEdition
    member_apps: dict[str, MemberEdition]  # role name -> member app
    contract: Contract
    authority: CredentialAuthority
    revocations: RevocationRegistry

    def plans(self) -> list[tuple[MemberEdition, str]]:
        """One (member app, role) plan per contract role, in order."""
        return [
            (self.member_apps[role.name], role.name)
            for role in self.contract.roles
        ]


def formation_workload(
    roles: int,
    latency: LatencyModel | None = None,
    with_negotiation_depth: bool = True,
) -> FormationFixture:
    """A VO of ``roles`` independent roles, one candidate each.

    Every role ``Role-i`` requires the candidate's ``MemberQual-i``
    credential; with ``with_negotiation_depth`` (the default) the
    candidate protects it behind the Initiator's freely-deliverable
    ``InitiatorAccreditation``, so each join runs a real two-round
    trust negotiation rather than a bare delivery.  All joins are
    mutually independent — the workload the parallel formation
    scheduler is designed for.
    """
    # The VO and services stack loads only for the workload that runs it.
    from repro.services.transport import LatencyModel, SimTransport
    from repro.services.vo_toolkit import (
        HostEdition,
        InitiatorEdition,
        MemberEdition,
    )
    from repro.vo.contract import Contract
    from repro.vo.initiator import VOInitiator
    from repro.vo.member import VOMember
    from repro.vo.registry import ServiceDescription
    from repro.vo.roles import Role

    if roles < 1:
        raise ValueError(f"need >= 1 roles, got {roles}")
    authority = CredentialAuthority.create("FormationCA", key_bits=512)
    revocations = RevocationRegistry()
    TrustBus(registry=revocations).publish_crl(authority.crl)
    transport = SimTransport(model=latency or LatencyModel())

    initiator_agent = _make_party(
        "FormationInitiator", authority, revocations,
        ["InitiatorAccreditation"],
        "InitiatorAccreditation <- DELIV",
    )
    initiator = VOInitiator(
        name="FormationInitiator", agent=initiator_agent
    )

    contract_roles = []
    member_apps: dict[str, MemberEdition] = {}
    host = HostEdition(transport)
    for index in range(roles):
        role_name = f"Role-{index:02d}"
        qualification = f"MemberQual-{index:02d}"
        contract_roles.append(
            Role(
                name=role_name,
                description=f"Synthetic formation role {index}",
                requirements=(qualification,),
            )
        )
        member_name = f"member-{index:02d}"
        member_policy = (
            f"{qualification} <- InitiatorAccreditation"
            if with_negotiation_depth
            else f"{qualification} <- DELIV"
        )
        agent = _make_party(
            member_name, authority, revocations, [qualification],
            member_policy,
        )
        member = VOMember(
            name=member_name,
            agent=agent,
            services=[
                ServiceDescription.of(
                    member_name, f"service-{index:02d}",
                    roles=[role_name],
                    capabilities={"slot": str(index)},
                    quality=0.8,
                )
            ],
        )
        app = MemberEdition(member=member, transport=transport)
        app.register()
        member_apps[role_name] = app
        # Members must also trust the Initiator's key directly, so the
        # membership tokens it self-signs verify.
        agent.validator.keyring.add(
            initiator.name, initiator_agent.keypair.public
        )

    contract = Contract(
        vo_name=f"FormationVO-{roles}",
        business_goal="Throughput benchmark formation workload",
        roles=tuple(contract_roles),
        created_at=datetime(2010, 3, 1, 12, 0, 0),
    )
    initiator_edition = InitiatorEdition(initiator, transport, host)
    return FormationFixture(
        transport=transport,
        host=host,
        initiator=initiator,
        initiator_edition=initiator_edition,
        member_apps=member_apps,
        contract=contract,
        authority=authority,
        revocations=revocations,
    )


def make_portfolio(
    owner: str,
    size: int,
    authority: CredentialAuthority,
    seed: int = 7,
) -> tuple[XProfile, KeyPair]:
    """A profile of ``size`` credentials with mixed sensitivities."""
    rng = random.Random(seed)
    keypair = KeyPair.generate(512)
    profile = XProfile(owner)
    levels = list(Sensitivity)
    for index in range(size):
        profile.add(
            authority.issue(
                f"Cred{index}",
                owner,
                keypair.fingerprint,
                {"index": index, "score": rng.randint(0, 100)},
                _ISSUE,
                days=3650,
                sensitivity=rng.choice(levels),
            )
        )
    return profile, keypair


def random_ontology(
    name: str, concepts: int, seed: int = 11, is_a_probability: float = 0.4
) -> Ontology:
    """A random ontology of ``concepts`` concepts with is_a edges.

    Each concept binds one credential type and one attribute drawn from
    a compound-word vocabulary so similarity scores are non-trivial.
    """
    from repro.ontology.graph import Ontology

    rng = random.Random(seed)
    words = [
        "quality", "service", "storage", "design", "license", "privacy",
        "member", "balance", "grid", "portal", "aircraft", "optimization",
        "record", "seal", "history", "capacity",
    ]
    onto = Ontology(name)
    names = []
    for index in range(concepts):
        concept_name = (
            f"{rng.choice(words).title()}{rng.choice(words).title()}{index}"
        )
        onto.add_concept(
            concept_name,
            bindings=[f"{concept_name}Cred.{rng.choice(words)}"],
            attributes=[rng.choice(words)],
        )
        names.append(concept_name)
    for index in range(1, concepts):
        if rng.random() < is_a_probability:
            onto.relate(names[index], names[rng.randrange(index)])
    return onto


def overlapping_ontologies(
    concepts: int, overlap: float, seed: int = 13
) -> tuple[Ontology, Ontology]:
    """Two ontologies sharing ``overlap`` of their concept vocabulary.

    Used to exercise cross-ontology matching: shared concepts differ
    only in naming convention (camelCase vs snake_case), so a token-
    based matcher should align them with high confidence.
    """
    from repro.ontology.graph import Ontology

    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    base = random_ontology("left", concepts, seed=seed)
    right = Ontology("right")
    shared = int(concepts * overlap)
    for index, concept in enumerate(sorted(base, key=lambda c: c.name)):
        if index < shared:
            snake = "_".join(
                piece.lower() for piece in concept.feature_tokens()
            )
            right.add_concept(
                snake or f"shared_{index}",
                bindings=[binding.qualified() for binding in concept.bindings],
                attributes=list(concept.attributes),
            )
        else:
            right.add_concept(
                f"unrelated_{index}",
                bindings=[f"Unrelated{index}Cred"],
                attributes=[f"field{index}"],
            )
    return base, right
