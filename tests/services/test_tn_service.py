"""The TN Web service and its client (paper Section 6.2)."""

import pytest

from repro.errors import ErrorCode, ServiceError, SessionError
from repro.negotiation.outcomes import (
    FailureReason,
    UNSATISFIABLE_REASONS,
)
from repro.negotiation.strategies import Strategy
from repro.scenario.workloads import formation_workload
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from tests.conftest import ISSUE_AT, NEGOTIATION_AT


@pytest.fixture()
def parties(agent_factory, infn, aaa_authority, shared_keypair, other_keypair):
    requester = agent_factory(
        "AerospaceCo",
        [infn.issue("ISO 9000 Certified", "AerospaceCo",
                    shared_keypair.fingerprint,
                    {"QualityRegulation": "UNI EN ISO 9000"}, ISSUE_AT)],
        "ISO 9000 Certified <- AAA Member",
        shared_keypair,
    )
    controller = agent_factory(
        "AircraftCo",
        [aaa_authority.issue("AAA Member", "AircraftCo",
                             other_keypair.fingerprint,
                             {"association": "AAA"}, ISSUE_AT)],
        "VoMembership <- WebDesignerQuality\nAAA Member <- DELIV",
        other_keypair,
    )
    return requester, controller


@pytest.fixture()
def service(parties):
    _, controller = parties
    transport = SimTransport()
    store = XMLDocumentStore("tn")
    return TNWebService(controller, transport, store, "urn:tn"), transport


class TestStartNegotiation:
    def test_assigns_unique_ids(self, service, parties):
        svc, transport = service
        requester, _ = parties
        first = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        second = transport.call("urn:tn", "StartNegotiation",
                                {"requester": requester, "strategy": "standard"})
        assert first["negotiationId"] != second["negotiationId"]

    def test_charges_db_connect(self, service, parties):
        svc, transport = service
        requester, _ = parties
        before = transport.clock.elapsed_ms
        transport.call("urn:tn", "StartNegotiation",
                       {"requester": requester, "strategy": "standard"})
        elapsed = transport.clock.elapsed_ms - before
        assert elapsed >= transport.model.db_connect_ms

    def test_requires_requester(self, service):
        svc, transport = service
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "StartNegotiation", {"strategy": "standard"})

    def test_unknown_operation(self, service, parties):
        svc, transport = service
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "Frobnicate", {})

    def test_request_id_retry_is_idempotent(self, service, parties):
        svc, transport = service
        requester, _ = parties
        payload = {"requester": requester, "strategy": "standard",
                   "requestId": "rid-1"}
        first = transport.call("urn:tn", "StartNegotiation", dict(payload))
        retry = transport.call("urn:tn", "StartNegotiation", dict(payload))
        assert retry["negotiationId"] == first["negotiationId"]

    def test_request_id_reuse_with_different_payload_rejected(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        transport.call("urn:tn", "StartNegotiation",
                       {"requester": requester, "strategy": "standard",
                        "requestId": "rid-1"})
        # Same requestId, different strategy: a duplicate-key bug, not
        # a retry — must fail loudly instead of replaying the session.
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "StartNegotiation",
                           {"requester": requester, "strategy": "trusting",
                            "requestId": "rid-1"})


class TestPhases:
    def test_policy_exchange_reports_sequence(self, service, parties):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        response = transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "VoMembership",
            "at": NEGOTIATION_AT,
        })
        assert response["sequenceFound"]
        assert response["policyMessages"] > 0

    def test_credential_exchange_before_policy_rejected(self, service, parties):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "CredentialExchange",
                           {"negotiationId": start["negotiationId"]})

    def test_unknown_session_rejected(self, service):
        svc, transport = service
        with pytest.raises(SessionError):
            transport.call("urn:tn", "PolicyExchange",
                           {"negotiationId": "ghost", "resource": "R"})

    def test_policy_exchange_requires_resource(self, service, parties):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "PolicyExchange",
                           {"negotiationId": start["negotiationId"]})

    def test_client_seq_replay_returns_recorded_response(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        payload = {"negotiationId": start["negotiationId"],
                   "resource": "VoMembership", "at": NEGOTIATION_AT,
                   "clientSeq": 1}
        first = transport.call("urn:tn", "PolicyExchange", dict(payload))
        replay = transport.call("urn:tn", "PolicyExchange", dict(payload))
        assert replay == first

    def test_client_seq_replay_with_different_resource_rejected(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "VoMembership", "at": NEGOTIATION_AT,
            "clientSeq": 1,
        })
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "PolicyExchange", {
                "negotiationId": start["negotiationId"],
                "resource": "SomethingElse", "at": NEGOTIATION_AT,
                "clientSeq": 1,
            })

    def test_client_seq_replay_with_different_operation_rejected(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "VoMembership", "at": NEGOTIATION_AT,
            "clientSeq": 1,
        })
        with pytest.raises(ServiceError):
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": start["negotiationId"], "clientSeq": 1,
            })


class TestTerminalStaysTerminal:
    """Without hardening there is no guard to answer ``POST_TERMINAL``;
    the service itself must keep a finished or expired negotiation
    terminal."""

    @staticmethod
    def _policy_phase(transport, requester) -> str:
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester, "strategy": "standard"})
        transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "VoMembership", "at": NEGOTIATION_AT,
            "clientSeq": 1,
        })
        return start["negotiationId"]

    def test_policy_exchange_after_completion_is_refused(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        nid = self._policy_phase(transport, requester)
        transport.call("urn:tn", "CredentialExchange",
                       {"negotiationId": nid, "clientSeq": 2})
        session = svc.session(nid)
        assert (session.phase, session.terminal) == ("exchange", True)
        assert svc.sessions_in_flight == 0
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "PolicyExchange", {
                "negotiationId": nid, "resource": "VoMembership",
                "at": NEGOTIATION_AT, "clientSeq": 3,
            })
        assert excinfo.value.error_code is ErrorCode.POST_TERMINAL
        assert (session.phase, session.terminal) == ("exchange", True)
        assert session.result.success
        assert svc.sessions_in_flight == 0

    def test_formation_session_stays_terminal(self):
        fixture = formation_workload(2)
        fixture.initiator_edition.create_vo(fixture.contract)
        svc = fixture.initiator_edition.enable_trust_negotiation()
        try:
            outcome = fixture.initiator_edition.execute_formation(
                fixture.plans(), at=fixture.contract.created_at
            )
            assert len(outcome.joined) == 2
            assert svc.hardening is None
            nid, session = next(iter(svc.sessions().items()))
            assert session.terminal and svc.sessions_in_flight == 0
            with pytest.raises(ServiceError) as excinfo:
                svc.handle("PolicyExchange", {
                    "negotiationId": nid, "resource": session.resource,
                    "clientSeq": session.last_seq + 1,
                })
            assert excinfo.value.error_code is ErrorCode.POST_TERMINAL
            session = svc.session(nid)
            assert (session.phase, session.terminal) == ("exchange", True)
            assert svc.sessions_in_flight == 0
        finally:
            svc.close()

    def test_expired_session_cannot_complete(self, service, parties):
        svc, transport = service
        requester, _ = parties
        nid = self._policy_phase(transport, requester)
        assert svc.reap_expired(older_than_ms=0) == 1
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "CredentialExchange",
                           {"negotiationId": nid, "clientSeq": 2})
        assert excinfo.value.error_code is ErrorCode.POST_TERMINAL
        assert svc.session(nid).phase == "expired"
        assert svc.sessions_in_flight == 0

    def test_repeated_final_exchange_is_answered_from_the_outcome(
        self, service, parties
    ):
        svc, transport = service
        requester, _ = parties
        nid = self._policy_phase(transport, requester)
        first = transport.call("urn:tn", "CredentialExchange",
                               {"negotiationId": nid, "clientSeq": 2})
        charges = transport.charges.db_reads, transport.charges.crypto_verifies
        again = transport.call("urn:tn", "CredentialExchange",
                               {"negotiationId": nid, "clientSeq": 3})
        assert again["result"] is first["result"]
        after = transport.charges.db_reads, transport.charges.crypto_verifies
        assert after == charges
        assert svc.session(nid).phase == "exchange"


class TestClient:
    def test_full_negotiation_via_client(self, service, parties):
        svc, transport = service
        requester, _ = parties
        client = TNClient(transport, "urn:tn", requester)
        result = client.negotiate("VoMembership", at=NEGOTIATION_AT)
        assert result.success

    def test_client_respects_strategy_parameter(self, service, parties):
        svc, transport = service
        requester, _ = parties
        client = TNClient(transport, "urn:tn", requester)
        result = client.negotiate(
            "VoMembership", strategy=Strategy.TRUSTING, at=NEGOTIATION_AT
        )
        assert result.success
        # The requester agent's own strategy must be restored.
        assert requester.strategy is Strategy.STANDARD

    def test_fresh_clients_do_not_collide_on_request_ids(
        self, service, parties
    ):
        # Regression: a per-instance requestId counter made every new
        # client for the same agent reuse "name:req-1", so a second
        # negotiation (e.g. joining a second role via a new TNClient)
        # hit the server's dedup and got the FIRST negotiation's
        # cached result back for the wrong resource.
        svc, transport = service
        requester, _ = parties
        first = TNClient(transport, "urn:tn", requester).negotiate(
            "VoMembership", at=NEGOTIATION_AT
        )
        second = TNClient(transport, "urn:tn", requester).negotiate(
            "AnotherResource", at=NEGOTIATION_AT
        )
        assert first.resource == "VoMembership"
        assert second.resource == "AnotherResource"
        assert len(svc.sessions()) == 2

    def test_simulated_time_advances_with_messages(self, service, parties):
        svc, transport = service
        requester, _ = parties
        client = TNClient(transport, "urn:tn", requester)
        with transport.clock.measure() as stopwatch:
            result = client.negotiate("VoMembership", at=NEGOTIATION_AT)
        minimum = result.total_messages * transport.model.message_cost()
        assert stopwatch.elapsed_ms >= minimum

    def test_failed_negotiation_reported(self, service, parties):
        svc, transport = service
        requester, _ = parties
        client = TNClient(transport, "urn:tn", requester)
        result = client.negotiate("SomethingUnreachable:ButProtected",
                                  at=NEGOTIATION_AT)
        # Unprotected unknown resources are freely granted; use a
        # protected one that cannot be satisfied instead.
        assert result.success  # unknown == unprotected == deliverable


class TestPersistence:
    def test_owner_state_mirrored_into_store(self, parties):
        _, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        TNWebService(controller, transport, store, "urn:tn")
        assert store.count("policies") == len(controller.policies)
        assert store.count("credentials") == len(controller.profile)


class TestSatisfiable:
    """Pin the PolicyExchange ``satisfiable`` flag per FailureReason
    (unsatisfiable = retrying the same negotiation cannot help)."""

    EXPECTED = {
        FailureReason.NO_TRUST_SEQUENCE: True,
        FailureReason.BUDGET_EXHAUSTED: True,
        FailureReason.STRATEGY_VIOLATION: True,
        FailureReason.CREDENTIAL_REJECTED: False,
        FailureReason.CREDENTIAL_REVOKED: False,
        FailureReason.PROTOCOL: False,
        FailureReason.UNREACHABLE: False,
    }

    def test_every_reason_is_pinned(self):
        assert set(self.EXPECTED) == set(FailureReason)

    @pytest.mark.parametrize("reason", list(FailureReason))
    def test_unsatisfiable_classification(self, reason):
        assert (reason in UNSATISFIABLE_REASONS) == self.EXPECTED[reason]
        assert reason.is_unsatisfiable == self.EXPECTED[reason]

    def test_success_reports_satisfiable(self, service, parties):
        _, transport = service
        requester, _ = parties
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester,
                                "strategy": "standard"})
        policy = transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "VoMembership", "at": NEGOTIATION_AT,
        })
        assert policy["satisfiable"] is True

    def test_no_trust_sequence_reports_unsatisfiable(
        self, agent_factory, shared_keypair, other_keypair
    ):
        # RES demands a credential nobody holds: the policy phase
        # proves no trust sequence exists, so retrying cannot help.
        requester = agent_factory("Req", [], "", shared_keypair)
        controller = agent_factory(
            "Ctrl", [], "RES <- SomethingNobodyHas", other_keypair
        )
        transport = SimTransport()
        TNWebService(controller, transport, XMLDocumentStore("tn"),
                     "urn:tn")
        start = transport.call("urn:tn", "StartNegotiation",
                               {"requester": requester,
                                "strategy": "standard"})
        policy = transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": start["negotiationId"],
            "resource": "RES", "at": NEGOTIATION_AT,
        })
        assert policy["satisfiable"] is False
