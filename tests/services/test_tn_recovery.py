"""TN service resilience: checkpoints, crash/restore, idempotency,
close() lifecycle, and degraded completion."""

import pytest

from repro.errors import ErrorCode, GuardRejection, SessionError, TransportError
from repro.hardening.config import HardeningConfig
from repro.negotiation.cache import SequenceCache
from repro.services.tn_client import TNClient
from repro.services.tn_service import NegotiationSession, TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from repro.storage.session_store import WALSessionStore
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


def run_policy_phase(transport, requester):
    start = transport.call("urn:tn", "StartNegotiation", {
        "requester": requester, "strategy": "standard",
        "requestId": "req-1",
    })
    nid = start["negotiationId"]
    transport.call("urn:tn", "PolicyExchange", {
        "negotiationId": nid, "resource": "VoMembership",
        "at": NEGOTIATION_AT, "clientSeq": 1,
    })
    return nid


class TestCheckpoints:
    def test_checkpoint_written_per_operation(self, parties):
        requester, controller = parties
        transport = SimTransport()
        service = TNWebService(controller, transport,
                               XMLDocumentStore("tn"), "urn:tn")
        nid = run_policy_phase(transport, requester)
        # one record per operation: start, policy
        assert service.session_store.records() == 2
        latest = service.session_store.latest()
        assert list(latest) == [nid]
        element = latest[nid]
        assert element.get("phase") == "policy"
        assert element.get("requester") == "AerospaceCo"
        assert element.get("policyBilled") == "true"
        assert element.find("outcome") is not None


class TestCrashRestore:
    def test_resume_after_crash_matches_fault_free_run(self, parties):
        """The acceptance scenario: crash after the policy phase, a
        restored service resumes from its checkpoint and completes
        with the same NegotiationResult."""
        requester, controller = parties
        # fault-free reference
        clean_transport = SimTransport()
        TNWebService(controller, clean_transport,
                     XMLDocumentStore("ref"), "urn:tn")
        reference = TNClient(clean_transport, "urn:tn", requester) \
            .negotiate("VoMembership", at=NEGOTIATION_AT)

        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        nid = run_policy_phase(transport, requester)
        service.crash()  # dies between PolicyExchange and CredentialExchange
        assert not transport.is_bound("urn:tn")
        with pytest.raises(TransportError):
            transport.call("urn:tn", "CredentialExchange",
                           {"negotiationId": nid})

        restored = TNWebService.restore(
            controller, transport, store, "urn:tn",
            agents={requester.name: requester},
            session_store=service.session_store,
        )
        assert nid in restored.sessions()
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        result = exchange["result"]
        assert result.success == reference.success is True
        assert result.disclosed_by_requester == \
            reference.disclosed_by_requester
        assert result.disclosed_by_controller == \
            reference.disclosed_by_controller
        assert [str(n.term) for n in result.sequence] == \
            [str(n.term) for n in reference.sequence]
        assert result.total_messages == reference.total_messages

    def test_restore_without_agent_degrades_to_checkpoint(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        nid = run_policy_phase(transport, requester)
        service.crash()
        restored = TNWebService.restore(
            controller, transport, store, "urn:tn", agents={},
            session_store=service.session_store,
        )
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid,
        })
        result = exchange["result"]
        assert result.success
        assert result.disclosed_by_requester  # recovered from checkpoint
        assert result.transcript[0].action == "checkpoint-restore"

    def test_restore_without_agent_or_outcome_raises_session_error(
        self, parties
    ):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        start = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
        })
        nid = start["negotiationId"]
        service.crash()
        TNWebService.restore(controller, transport, store, "urn:tn",
                             session_store=service.session_store)
        with pytest.raises(SessionError):
            transport.call("urn:tn", "PolicyExchange", {
                "negotiationId": nid, "resource": "VoMembership",
                "at": NEGOTIATION_AT,
            })

    def test_restored_service_mints_fresh_session_ids(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        nid = run_policy_phase(transport, requester)
        service.crash()
        TNWebService.restore(
            controller, transport, store, "urn:tn",
            agents={requester.name: requester},
            session_store=service.session_store,
        )
        fresh = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
        })
        assert fresh["negotiationId"] != nid

    def test_resume_via_cache_replays_sequence(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        cache = SequenceCache()
        TNWebService(controller, transport, store, "urn:tn", cache=cache)
        client = TNClient(transport, "urn:tn", requester)
        first = client.negotiate("VoMembership", at=NEGOTIATION_AT)
        assert first.success
        assert len(cache) == 1
        second = client.negotiate("VoMembership", at=NEGOTIATION_AT)
        assert second.success
        assert cache.hits == 1
        assert second.policy_messages == 0  # replay skips the policy phase


class TestIdempotency:
    def test_start_negotiation_deduplicates_request_id(self, parties):
        requester, controller = parties
        transport = SimTransport()
        TNWebService(controller, transport, XMLDocumentStore("tn"), "urn:tn")
        payload = {"requester": requester, "strategy": "standard",
                   "requestId": "alpha"}
        first = transport.call("urn:tn", "StartNegotiation", payload)
        before = transport.clock.elapsed_ms
        second = transport.call("urn:tn", "StartNegotiation", payload)
        assert first["negotiationId"] == second["negotiationId"]
        # the replay bills no DB connect, just the message round trip
        elapsed = transport.clock.elapsed_ms - before
        assert elapsed < transport.model.db_connect_ms

    def test_phase_replay_not_rebilled(self, parties):
        requester, controller = parties
        transport = SimTransport()
        TNWebService(controller, transport, XMLDocumentStore("tn"), "urn:tn")
        nid = run_policy_phase(transport, requester)
        payload = {"negotiationId": nid, "resource": "VoMembership",
                   "at": NEGOTIATION_AT, "clientSeq": 1}
        before = transport.clock.elapsed_ms
        replay = transport.call("urn:tn", "PolicyExchange", payload)
        elapsed = transport.clock.elapsed_ms - before
        # only the message cost of the duplicate call itself
        assert elapsed == pytest.approx(transport.model.message_cost())
        assert replay["negotiationId"] == nid

    def test_distinct_sequence_numbers_processed(self, parties):
        requester, controller = parties
        transport = SimTransport()
        TNWebService(controller, transport, XMLDocumentStore("tn"), "urn:tn")
        nid = run_policy_phase(transport, requester)
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert exchange["success"]
        replay = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert replay is exchange or replay == exchange


class TestCloseLifecycle:
    def test_close_unbinds_and_clears_sessions(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        run_policy_phase(transport, requester)
        service.close()
        assert service.closed
        assert not transport.is_bound("urn:tn")
        assert service.sessions() == {}

    def test_close_is_idempotent(self, parties):
        _, controller = parties
        transport = SimTransport()
        service = TNWebService(controller, transport,
                               XMLDocumentStore("tn"), "urn:tn")
        service.close()
        service.close()  # no error

    def test_rebind_same_url_after_close(self, parties):
        """A second service at the same URL works once the first is
        closed (previously this raised through SimTransport.bind)."""
        requester, controller = parties
        transport = SimTransport()
        first = TNWebService(controller, transport,
                             XMLDocumentStore("a"), "urn:tn")
        with pytest.raises(TransportError):
            TNWebService(controller, transport, XMLDocumentStore("b"),
                         "urn:tn")
        first.close()
        second = TNWebService(controller, transport,
                              XMLDocumentStore("b"), "urn:tn")
        client = TNClient(transport, "urn:tn", requester)
        assert client.negotiate("VoMembership", at=NEGOTIATION_AT).success
        second.close()

    def test_close_checkpoints_open_sessions(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        start = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
        })
        records = service.session_store.records()
        service.close()
        assert service.session_store.records() == records + 1
        element = service.session_store.latest()[start["negotiationId"]]
        assert element.get("phase") == "started"

    def test_context_manager_closes(self, parties):
        _, controller = parties
        transport = SimTransport()
        with TNWebService(controller, transport, XMLDocumentStore("tn"),
                          "urn:tn") as service:
            assert transport.is_bound("urn:tn")
        assert service.closed
        assert not transport.is_bound("urn:tn")

    def test_closed_handler_rejects_direct_calls(self, parties):
        _, controller = parties
        transport = SimTransport()
        service = TNWebService(controller, transport,
                               XMLDocumentStore("tn"), "urn:tn")
        service.close()
        with pytest.raises(TransportError):
            service.handle("StartNegotiation", {})


class TestSessionSerialization:
    def test_roundtrip_preserves_fields(self, parties):
        requester, controller = parties
        transport = SimTransport()
        store = XMLDocumentStore("tn")
        service = TNWebService(controller, transport, store, "urn:tn")
        nid = run_policy_phase(transport, requester)
        element = service.session_store.latest()[nid]
        session = service._rebuild(element, {requester.name: requester})
        assert isinstance(session, NegotiationSession)
        assert session.session_id == nid
        assert session.requester is requester
        assert session.resource == "VoMembership"
        assert session.at == NEGOTIATION_AT
        assert session.policy_phase_billed
        assert not session.exchange_phase_billed
        assert session.restored
        # the requester resolves: the engine re-runs, no stored result
        assert session.result is None
        # without it, the checkpointed outcome is the degraded result
        degraded = service._rebuild(element).result
        assert degraded is not None
        assert degraded.success
        assert degraded.requester == requester.name


def complete(transport, requester, request_id):
    """Run one negotiation phase by phase; returns the negotiation id
    and the final ``CredentialExchange`` response."""
    start = transport.call("urn:tn", "StartNegotiation", {
        "requester": requester, "strategy": "standard",
        "requestId": request_id,
    })
    nid = start["negotiationId"]
    transport.call("urn:tn", "PolicyExchange", {
        "negotiationId": nid, "resource": "VoMembership",
        "at": NEGOTIATION_AT, "clientSeq": 1,
    })
    final = transport.call("urn:tn", "CredentialExchange", {
        "negotiationId": nid, "clientSeq": 2,
    })
    return nid, final


class TestResidency:
    """A terminal session stays in memory for one session TTL after its
    last contact, then lives only in the journal."""

    @pytest.fixture()
    def served(self, parties, tmp_path):
        requester, controller = parties
        transport = SimTransport()
        store = WALSessionStore(tmp_path / "tn.wal")
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            hardening=HardeningConfig(), session_store=store,
        )
        yield transport, service, store, requester
        service.close()
        store.close()

    def evict(self, transport, service, requester):
        """Finish one negotiation, then let a TTL pass and finish
        another: its terminal transition sweeps the first out."""
        nid, final = complete(transport, requester, "req-1")
        transport.clock.advance(service.session_ttl_ms)
        complete(transport, requester, "req-2")
        return nid, final

    def test_replay_inside_ttl_is_answered_from_memory(self, served):
        transport, service, store, requester = served
        nid, final = complete(transport, requester, "req-1")
        transport.clock.advance(service.session_ttl_ms / 2)
        complete(transport, requester, "req-2")
        records = store.records()
        replay = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert replay is final
        assert store.records() == records
        assert service.sessions_evicted == 0

    def test_session_leaves_memory_after_ttl(self, served):
        transport, service, store, requester = served
        nid, _ = self.evict(transport, service, requester)
        assert nid not in service._sessions
        assert service.sessions_evicted == 1
        # still owned: read back from the journal, terminal
        assert service.sessions()[nid].terminal
        for seq in (2, 3):  # the replay window closed with the TTL
            with pytest.raises(GuardRejection) as excinfo:
                transport.call("urn:tn", "CredentialExchange", {
                    "negotiationId": nid, "clientSeq": seq,
                })
            assert excinfo.value.error_code is ErrorCode.POST_TERMINAL

    def test_start_retry_of_evicted_session_returns_same_id(self, served):
        transport, service, store, requester = served
        nid, _ = self.evict(transport, service, requester)
        records = store.records()
        retry = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
            "requestId": "req-1",
        })
        assert retry == {"negotiationId": nid}
        assert store.records() == records
        assert nid not in service._sessions

    def test_unknown_ids_parse_no_record(self, served):
        transport, service, store, requester = served
        self.evict(transport, service, requester)
        parsed = store.records_parsed
        for nid in ("__health_probe__", "tn-999"):
            with pytest.raises(SessionError):
                service.handle("PolicyExchange", {
                    "negotiationId": nid, "resource": "VoMembership",
                    "clientSeq": 1,
                })
        assert store.records_parsed == parsed

    def test_restore_keeps_only_live_sessions_resident(self, parties):
        requester, controller = parties
        transport = SimTransport()
        service = TNWebService(controller, transport,
                               XMLDocumentStore("tn"), "urn:tn")
        abandoned = run_policy_phase(transport, requester)
        service.reap_expired(older_than_ms=0.0)
        live = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
            "requestId": "req-2",
        })["negotiationId"]
        service.crash()
        records = service.session_store.records()
        restored = TNWebService.restore(
            controller, transport, XMLDocumentStore("tn2"), "urn:tn",
            session_store=service.session_store,
        )
        assert set(restored._sessions) == {live}
        assert restored.sessions()[abandoned].phase == "expired"
        assert set(restored.sessions()) == {abandoned, live}
        assert service.session_store.records() == records


class TestFinishedSessionRestored:
    """A finished negotiation comes back terminal, with its outcome,
    from a restore; a verbatim retry of its final exchange is answered
    for one TTL after its last contact, and nothing else is."""

    @pytest.fixture()
    def restored(self, parties):
        requester, controller = parties
        transport = SimTransport()
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            hardening=HardeningConfig(),
        )
        nid, final = complete(transport, requester, "req-1")
        service.crash()
        restored = TNWebService.restore(
            controller, transport, XMLDocumentStore("tn2"), "urn:tn",
            agents={requester.name: requester}, hardening=HardeningConfig(),
            session_store=service.session_store,
        )
        return transport, restored, nid, final

    def test_restored_finished_session_is_terminal(self, restored):
        transport, service, nid, final = restored
        session = service.session(nid)
        assert session.terminal
        assert service.sessions_in_flight == 0
        assert nid not in service._sessions
        assert session.result.success is final["success"] is True
        assert session.result.disclosed_by_requester == \
            final["result"].disclosed_by_requester

    def test_new_client_seq_on_restored_finished_session_is_post_terminal(
        self, restored
    ):
        transport, service, nid, _ = restored
        with pytest.raises(GuardRejection) as excinfo:
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": nid, "clientSeq": 3,
            })
        assert excinfo.value.error_code is ErrorCode.POST_TERMINAL

    def test_final_retry_after_restore_is_answered_inside_ttl(
        self, restored
    ):
        transport, service, nid, final = restored
        records = service.session_store.records()
        retry = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert retry["success"] is final["success"]
        assert retry["failureReason"] == final["failureReason"]
        assert retry["result"].disclosed_by_controller == \
            final["result"].disclosed_by_controller
        assert service.session_store.records() == records  # not re-run
        assert service.sessions_in_flight == 0

    def test_final_retry_after_restore_is_post_terminal_past_ttl(
        self, restored
    ):
        transport, service, nid, _ = restored
        transport.clock.advance(service.session_ttl_ms)
        with pytest.raises(GuardRejection) as excinfo:
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": nid, "clientSeq": 2,
            })
        assert excinfo.value.error_code is ErrorCode.POST_TERMINAL
