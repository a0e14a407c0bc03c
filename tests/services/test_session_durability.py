"""TN service durability via SessionStore journals: crash-recovery
round-trips over both backends, torn-write fallback, replay
idempotency, and TTL re-anchoring on restore."""

import pytest

from repro.errors import ErrorCode, ServiceError
from repro.hardening.config import HardeningConfig
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from repro.storage.session_store import InMemorySessionStore, WALSessionStore
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


@pytest.fixture(params=["memory", "wal"])
def make_session_store(request, tmp_path):
    """Factory returning the same logical store on each call — for the
    WAL backend a fresh instance re-recovers from the same file, which
    is exactly what a restarted process would do."""
    if request.param == "memory":
        store = InMemorySessionStore()
        yield lambda: store
        return
    path = tmp_path / "sessions.wal"
    opened = []

    def reopen():
        opened.append(WALSessionStore(path))
        return opened[-1]

    yield reopen
    for store in opened:
        store.close()


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


class TestJournalling:
    def test_every_checkpoint_is_journalled(self, parties, make_session_store):
        requester, controller = parties
        transport = SimTransport()
        session_store = make_session_store()
        TNWebService(controller, transport, XMLDocumentStore("tn"),
                     "urn:tn", session_store=session_store)
        TNClient(transport, "urn:tn", requester) \
            .negotiate("VoMembership", at=NEGOTIATION_AT)
        # one record per operation: start, policy, exchange
        assert session_store.records() == 3
        latest = session_store.latest()
        (element,) = latest.values()
        assert element.get("phase") == "exchange"
        assert element.find("outcome") is not None

    def test_journal_is_the_only_copy(self, parties, make_session_store):
        """Checkpoints go to the journal alone: the document store keeps
        the owner's policies and credentials, no ``sessions``."""
        requester, controller = parties
        transport = SimTransport()
        session_store = make_session_store()
        store = XMLDocumentStore("tn")
        TNWebService(controller, transport, store, "urn:tn",
                     session_store=session_store)
        nid = run_policy_phase(transport, requester)
        assert session_store.latest()[nid].get("phase") == "policy"
        assert store.collections() == ["credentials", "policies"]


class TestCrashRecovery:
    def test_restore_from_journal_resumes_negotiation(
        self, parties, make_session_store
    ):
        requester, controller = parties
        transport = SimTransport()
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            session_store=make_session_store(),
        )
        nid = run_policy_phase(transport, requester)
        service.crash()

        # a restarted process recovers from the journal alone: note the
        # *empty* document store — the journal is the source of truth
        restored = TNWebService.restore(
            controller, transport, XMLDocumentStore("tn-restarted"),
            "urn:tn", agents={requester.name: requester},
            session_store=make_session_store(),
        )
        assert nid in restored.sessions()
        assert restored.sessions()[nid].restored
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert exchange["result"].success

    def test_replay_after_restore_is_idempotent(
        self, parties, make_session_store
    ):
        requester, controller = parties
        transport = SimTransport()
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            session_store=make_session_store(),
        )
        nid = run_policy_phase(transport, requester)
        service.crash()
        TNWebService.restore(
            controller, transport, XMLDocumentStore("tn-restarted"),
            "urn:tn", agents={requester.name: requester},
            session_store=make_session_store(),
        )
        first = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        charges = transport.charges.db_reads, transport.charges.crypto_verifies
        # a retried delivery of the same phase re-answers without
        # re-running (same cached result object, nothing re-billed)
        second = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 3,
        })
        assert second["result"] is first["result"]
        after = transport.charges.db_reads, transport.charges.crypto_verifies
        assert after == charges

    def test_torn_final_record_falls_back_one_checkpoint(
        self, parties, make_session_store
    ):
        requester, controller = parties
        transport = SimTransport()
        session_store = make_session_store()
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            session_store=session_store,
        )
        nid = run_policy_phase(transport, requester)
        service.crash()
        assert session_store.tear_last_record()  # policy checkpoint torn

        restored = TNWebService.restore(
            controller, transport, XMLDocumentStore("tn-restarted"),
            "urn:tn", agents={requester.name: requester},
            session_store=make_session_store(),
        )
        session = restored.sessions()[nid]
        assert session.phase == "started"  # fell back to the start record
        # skipping ahead is rejected typed; replaying the lost phase works
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": nid, "clientSeq": 2,
            })
        assert excinfo.value.error_code is ErrorCode.PHASE_SKIP
        transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": nid, "resource": "VoMembership",
            "at": NEGOTIATION_AT, "clientSeq": 3,
        })
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 4,
        })
        assert exchange["result"].success


class TestTTLReanchor:
    def test_restored_sessions_get_a_fresh_ttl(self, parties):
        """A session idle past the TTL *before* the crash must not be
        reaped the instant the service restarts: the TTL re-anchors at
        restore time so the client gets a full window to resume."""
        requester, controller = parties
        transport = SimTransport()
        hardening = HardeningConfig(session_ttl_ms=5_000.0)
        session_store = InMemorySessionStore()
        service = TNWebService(
            controller, transport, XMLDocumentStore("tn"), "urn:tn",
            session_store=session_store, hardening=hardening,
        )
        nid = run_policy_phase(transport, requester)
        transport.clock.advance(60_000.0)  # idle far past the TTL
        service.crash()

        restored = TNWebService.restore(
            controller, transport, XMLDocumentStore("tn-restarted"),
            "urn:tn", agents={requester.name: requester},
            session_store=session_store, hardening=hardening,
        )
        assert restored.reap_expired() == 0
        assert nid in restored.sessions()
        # ... but the fresh window still expires like any other
        transport.clock.advance(5_001.0)
        assert restored.reap_expired() == 1
        assert restored.sessions()[nid].phase == "expired"
