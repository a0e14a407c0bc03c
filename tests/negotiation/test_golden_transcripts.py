"""Golden pins: negotiation outcomes are byte-identical across changes.

Each case negotiates a fixed fixture and hashes, with SHA-256, the
transcript, the executed trust sequence, the message counts and the
disclosed credential ids.  The expected digests were captured before
the single-pass satisfiability search replaced the fixed-point loop,
so any change to the policy-phase search that alters what a
negotiation says, selects or discloses fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.credentials.authority import CredentialAuthority
from repro.credentials.revocation import RevocationRegistry
from repro.credentials.sensitivity import Sensitivity
from repro.crypto.keys import Keyring
from repro.negotiation.engine import negotiate
from repro.negotiation.outcomes import NegotiationResult
from repro.scenario import build_aircraft_scenario
from repro.scenario.aircraft import ROLE_DESIGN_PORTAL
from repro.scenario.workloads import bushy_workload, chain_workload
from repro.trust import TrustBus
from tests.conftest import ISSUE_AT, NEGOTIATION_AT, make_agent


def outcome_digest(result: NegotiationResult) -> str:
    """SHA-256 over everything a negotiation observably produced."""
    payload = {
        "success": result.success,
        "failure": (
            result.failure_reason.value if result.failure_reason else None
        ),
        "transcript": [
            [event.phase, event.actor, event.action, event.detail]
            for event in result.transcript
        ],
        "sequence": [
            [node.node_id, node.owner, node.label, node.credential_id]
            for node in result.sequence
        ],
        "policy_messages": result.policy_messages,
        "exchange_messages": result.exchange_messages,
        "disclosed_by_requester": list(result.disclosed_by_requester),
        "disclosed_by_controller": list(result.disclosed_by_controller),
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _workload_result(fixture) -> NegotiationResult:
    return negotiate(
        fixture.requester, fixture.controller, fixture.resource,
        at=fixture.negotiation_time(),
    )


def _fig2_result(view_selection: str) -> NegotiationResult:
    scenario = build_aircraft_scenario()
    scenario.initiator.define_vo_policies(scenario.contract)
    role = scenario.contract.role(ROLE_DESIGN_PORTAL)
    return negotiate(
        scenario.member("AerospaceCo").agent,
        scenario.initiator.agent,
        role.membership_resource(scenario.contract.vo_name),
        at=scenario.contract.created_at,
        view_selection=view_selection,
    )


GOLDEN = {
    ("bushy-256", "first"): (
        "2693e08d2da69da77f0f8679aa672a4d"
        "b58378737cde1cdc429e7c3ed5b7ac75"
    ),
    ("chain-6", "first"): (
        "de3e85700475fea6f06e2a858b7e49f0"
        "f7efb64b2af388c51173bb1cae232d0f"
    ),
    ("fig2", "first"): (
        "c6ff9c6a9c3687d79346e9364c8f6c88"
        "88ed1887eaba7c686caa63ca492b5f9d"
    ),
    ("fig2", "min_disclosure"): (
        "e4c57c28283cc5b1994c00e95d0be1af"
        "e620a922648c2ee14fa429d18b766584"
    ),
    ("fig2", "min_sensitivity"): (
        "6c7185718fd444490bd769c276d2d04d"
        "060bdc5d1b9d7ed23f1e63186c506336"
    ),
    ("alternatives", "first"): (
        "eaaaacc8d5265b3dabbb61d1b502e0fd"
        "d891b9b049197a429b128b7a8e3ca43f"
    ),
    ("alternatives", "min_disclosure"): (
        "e4ebc311a145e742657ad17e31533793"
        "50b4c5783b77afe11ab46ac4d1e06254"
    ),
    ("alternatives", "min_sensitivity"): (
        "0bc3a4c0f797bbb9df6f927c430cb79b"
        "2cdbc36b971d18e076e5d82a65636faf"
    ),
}


@pytest.mark.parametrize(
    "view_selection", ["first", "min_disclosure", "min_sensitivity"]
)
def test_fig2_membership_negotiation(view_selection):
    result = _fig2_result(view_selection)
    assert result.success
    assert outcome_digest(result) == GOLDEN[("fig2", view_selection)]


def test_bushy_256():
    result = _workload_result(bushy_workload(256))
    assert result.success
    assert outcome_digest(result) == GOLDEN[("bushy-256", "first")]


def test_chain_6():
    result = _workload_result(chain_workload(6))
    assert result.success
    assert outcome_digest(result) == GOLDEN[("chain-6", "first")]


@pytest.mark.parametrize(
    "view_selection", ["first", "min_disclosure", "min_sensitivity"]
)
def test_alternatives_by_view_selection(
    shared_keypair, other_keypair, view_selection
):
    """Three alternatives, so each selection mode picks a different
    view: two MEDIUM credentials (listed first), one HIGH credential
    (fewest disclosures), or one LOW credential that needs a LOW
    credential back from the controller (lowest summed sensitivity).

    The authority is built here, not shared, because credential ids
    carry its serial numbers and the digest covers them."""
    authority = CredentialAuthority.create("GoldenCA", key_bits=512)
    keyring = Keyring()
    keyring.add(authority.name, authority.public_key)
    registry = RevocationRegistry()
    TrustBus(registry=registry).publish_crl(authority.crl)

    def issue(cred_type, holder, keypair, sensitivity):
        return authority.issue(
            cred_type, holder, keypair.fingerprint, {}, ISSUE_AT,
            sensitivity=sensitivity,
        )

    requester = make_agent(
        "Req",
        [
            issue("WideA", "Req", shared_keypair, Sensitivity.MEDIUM),
            issue("WideB", "Req", shared_keypair, Sensitivity.MEDIUM),
            issue("Secret", "Req", shared_keypair, Sensitivity.HIGH),
            issue("Plain", "Req", shared_keypair, Sensitivity.LOW),
        ],
        "Plain <- Token",
        shared_keypair, keyring, registry,
    )
    controller = make_agent(
        "Ctrl",
        [issue("Token", "Ctrl", other_keypair, Sensitivity.LOW)],
        "RES <- WideA, WideB\nRES <- Secret\nRES <- Plain\n"
        "Token <- DELIV",
        other_keypair, keyring, registry,
    )
    result = negotiate(
        requester, controller, "RES", at=NEGOTIATION_AT,
        view_selection=view_selection,
    )
    assert result.success
    assert outcome_digest(result) == GOLDEN[("alternatives", view_selection)]
