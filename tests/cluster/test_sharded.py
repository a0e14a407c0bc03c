"""Sharded TN service: routing, failover, restart, and migration."""

import copy

import pytest

from repro.cluster import ShardedTNService
from repro.errors import ServiceError, SessionError, TransportError
from repro.hardening.config import HardeningConfig
from repro.hardening.soak import check_service_invariants
from repro.services import tn_service
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
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


@pytest.fixture()
def cluster_fixture(parties):
    requester, controller = parties
    transport = SimTransport()
    cluster = ShardedTNService(
        controller, transport, url="urn:tn",
        shards=3, agents={requester.name: requester},
    )
    yield transport, cluster, requester, controller
    if not cluster.closed:
        cluster.close()


def start_and_policy(transport, requester, request_id="req-1"):
    start = transport.call("urn:tn", "StartNegotiation", {
        "requester": requester, "strategy": "standard",
        "requestId": request_id,
    })
    nid = start["negotiationId"]
    transport.call("urn:tn", "PolicyExchange", {
        "negotiationId": nid, "resource": "VoMembership",
        "at": NEGOTIATION_AT, "clientSeq": 1,
    })
    return nid


class TestRouting:
    def test_negotiation_through_cluster_matches_single_service(
        self, cluster_fixture, parties
    ):
        transport, cluster, requester, controller = cluster_fixture
        reference_transport = SimTransport()
        TNWebService(controller, reference_transport,
                     XMLDocumentStore("ref"), "urn:tn")
        reference = TNClient(reference_transport, "urn:tn", requester) \
            .negotiate("VoMembership", at=NEGOTIATION_AT)

        result = TNClient(transport, cluster.url, requester) \
            .negotiate("VoMembership", at=NEGOTIATION_AT)
        assert result.success == reference.success is True
        assert result.disclosed_by_requester == \
            reference.disclosed_by_requester
        assert [str(n.term) for n in result.sequence] == \
            [str(n.term) for n in reference.sequence]

    def test_session_ids_are_namespaced_per_shard(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        owner = cluster.placement_index(nid)
        assert owner is not None
        assert nid.startswith(f"tn-s{owner}-")
        assert cluster.placement(nid) == f"urn:tn:s{owner}"

    def test_request_id_dedup_survives_routing(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        payload = {
            "requester": requester, "strategy": "standard",
            "requestId": "req-dup",
        }
        first = transport.call("urn:tn", "StartNegotiation", payload)
        second = transport.call("urn:tn", "StartNegotiation", payload)
        assert first["negotiationId"] == second["negotiationId"]

    def test_unknown_session_rejected_typed(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        with pytest.raises(SessionError):
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": "tn-s9-999", "clientSeq": 1,
            })

    def test_spread_across_shards(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        owners = set()
        for index in range(12):
            nid = start_and_policy(
                transport, requester, request_id=f"req-{index}"
            )
            owners.add(cluster.placement_index(nid))
        assert len(owners) > 1  # consistent hashing spreads the keys


class TestFailover:
    def test_mid_negotiation_kill_fails_over(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        victim = cluster.placement_index(nid)
        cluster.kill_node(victim)

        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert exchange["result"].success
        assert cluster.failovers == 1
        survivor = cluster.placement_index(nid)
        assert survivor != victim
        assert cluster.sessions()[nid].terminal

    def test_torn_wal_falls_back_and_replays(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        victim = cluster.placement_index(nid)
        assert cluster.tear_wal(victim)  # policy checkpoint torn
        cluster.kill_node(victim)

        with pytest.raises(ServiceError):  # PHASE_SKIP on the successor
            transport.call("urn:tn", "CredentialExchange", {
                "negotiationId": nid, "clientSeq": 2,
            })
        transport.call("urn:tn", "PolicyExchange", {
            "negotiationId": nid, "resource": "VoMembership",
            "at": NEGOTIATION_AT, "clientSeq": 3,
        })
        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 4,
        })
        assert exchange["result"].success
        assert cluster.torn_records_discarded() == 1

    def test_timed_restart_recovers_owned_sessions(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        victim = cluster.placement_index(nid)
        cluster.kill_node(victim, restart_after_ms=500.0)
        assert len(cluster.live_nodes()) == 2

        transport.clock.advance(501.0)
        # any routed call revives due nodes first
        start_and_policy(transport, requester, request_id="req-after")
        assert len(cluster.live_nodes()) == 3
        node = cluster.nodes()[victim]
        assert node.restarts == 1
        # the un-touched session recovered on its original shard
        assert cluster.placement_index(nid) == victim
        assert nid in node.service.sessions()

    def test_restart_releases_sessions_that_failed_over(
        self, cluster_fixture
    ):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        victim = cluster.placement_index(nid)
        cluster.kill_node(victim)
        transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })  # forces failover: the session now lives on the successor
        adopter = cluster.placement_index(nid)
        assert adopter != victim

        cluster.restart_node(victim)
        assert nid not in cluster.nodes()[victim].service.sessions()
        assert nid in cluster.nodes()[adopter].service.sessions()
        assert cluster.placement_index(nid) == adopter

    def test_last_shard_cannot_fail_over(self, parties):
        requester, controller = parties
        transport = SimTransport()
        with ShardedTNService(
            controller, transport, url="urn:tn", shards=1,
            agents={requester.name: requester},
        ) as cluster:
            nid = start_and_policy(transport, requester)
            cluster.kill_node(0)
            from repro.errors import TransportError
            with pytest.raises(TransportError):
                transport.call("urn:tn", "CredentialExchange", {
                    "negotiationId": nid, "clientSeq": 2,
                })


class TestMigration:
    def test_explicit_mid_negotiation_migration(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        source = cluster.placement_index(nid)
        target = (source + 1) % 3
        cluster.migrate_session(nid, target)
        assert cluster.placement_index(nid) == target
        assert nid not in cluster.nodes()[source].service.sessions()

        exchange = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert exchange["result"].success
        assert cluster.migrations == 1

    def test_migrate_to_current_owner_is_a_no_op(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        source = cluster.placement_index(nid)
        session = cluster.migrate_session(nid, source)
        assert session.session_id == nid
        assert cluster.migrations == 0

    def test_migrate_unknown_session_raises(self, cluster_fixture):
        _, cluster, _, _ = cluster_fixture
        with pytest.raises(ServiceError):
            cluster.migrate_session("tn-s0-404", 1)

    def test_migrate_to_dead_shard_raises(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        target = (cluster.placement_index(nid) + 1) % 3
        cluster.kill_node(target)
        with pytest.raises(ServiceError):
            cluster.migrate_session(nid, target)

    def test_migration_adopts_the_phase_restart_recovers(self, parties):
        """Migration and restart read the same journal, so a torn
        policy checkpoint sends both back to the start record."""
        requester, controller = parties
        phases = {}
        for path in ("restart", "migrate"):
            transport = SimTransport()
            with ShardedTNService(
                controller, transport, url="urn:tn", shards=3,
                agents={requester.name: requester},
            ) as cluster:
                nid = start_and_policy(transport, requester)
                victim = cluster.placement_index(nid)
                assert cluster.tear_wal(victim)  # policy checkpoint torn
                cluster.kill_node(victim)
                if path == "restart":
                    service = cluster.restart_node(victim)
                    phases[path] = service.sessions()[nid].phase
                else:
                    target = (victim + 1) % 3
                    session = cluster.migrate_session(nid, target)
                    assert cluster.placement_index(nid) == target
                    phases[path] = session.phase
        assert phases == {"restart": "started", "migrate": "started"}

    def test_migrate_without_journal_record_raises(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        start = transport.call("urn:tn", "StartNegotiation", {
            "requester": requester, "strategy": "standard",
        })
        nid = start["negotiationId"]
        source = cluster.placement_index(nid)
        assert cluster.tear_wal(source)  # the only record of nid
        with pytest.raises(ServiceError):
            cluster.migrate_session(nid, (source + 1) % 3)
        assert cluster.placement_index(nid) == source


class TestDurableState:
    def test_wal_dir_persists_per_shard_journals(self, parties, tmp_path):
        requester, controller = parties
        transport = SimTransport()
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        with ShardedTNService(
            controller, transport, url="urn:tn", shards=2,
            agents={requester.name: requester}, wal_dir=str(wal_dir),
        ) as cluster:
            TNClient(transport, cluster.url, requester) \
                .negotiate("VoMembership", at=NEGOTIATION_AT)
            assert cluster.wal_records() == 3
        # the WAL file is created on first append, on the owning shard
        files = sorted(p.name for p in wal_dir.iterdir())
        assert len(files) == 1 and files[0].startswith("shard-")

        reopened = WALSessionStore(wal_dir / files[0])
        # 3 per-operation records; close() adds none for a finished
        # session, whose final checkpoint is already journalled
        assert reopened.records() == 3
        (element,) = reopened.latest().values()
        assert element.get("phase") == "exchange"

    def test_durable_sessions_prefers_placement_owner(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nid = start_and_policy(transport, requester)
        cluster.kill_node(cluster.placement_index(nid))
        transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        durable = cluster.durable_sessions()
        assert durable[nid].get("phase") == "exchange"
        assert durable[nid].find("outcome") is not None


def complete(transport, requester, request_id):
    nid = start_and_policy(transport, requester, request_id)
    transport.call("urn:tn", "CredentialExchange", {
        "negotiationId": nid, "clientSeq": 2,
    })
    return nid


def complete_on(transport, cluster, requester, shard):
    """Finish negotiations until one is served by ``shard``."""
    for attempt in range(64):
        nid = complete(transport, requester, f"req-on-{shard}-{attempt}")
        if cluster.placement_index(nid) == shard:
            return nid
    raise AssertionError(f"no negotiation landed on shard {shard}")


def records_parsed(cluster):
    return sum(node.session_store.records_parsed for node in cluster.nodes())


class TestResidency:
    """Finished sessions leave shard memory after one session TTL; the
    router pins only the sessions it moved."""

    @pytest.fixture()
    def wal_cluster(self, parties, tmp_path):
        requester, controller = parties
        transport = SimTransport()
        cluster = ShardedTNService(
            controller, transport, url="urn:tn", shards=2,
            agents={requester.name: requester}, wal_dir=str(tmp_path),
        )
        yield transport, cluster, requester
        if not cluster.closed:
            cluster.close()

    def evicted_session(self, transport, cluster, requester):
        """Finish one negotiation, let a TTL pass, and finish another
        on the same shard: its terminal transition sweeps the first
        out of memory."""
        nid = complete(transport, requester, "req-evicted")
        shard = cluster.placement_index(nid)
        service = cluster.nodes()[shard].service
        transport.clock.advance(service.session_ttl_ms)
        complete_on(transport, cluster, requester, shard)
        assert nid not in service._sessions
        assert service.sessions_evicted == 1
        return nid

    def test_placements_hold_only_moved_sessions(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        nids = [complete(transport, requester, f"req-{i}") for i in range(4)]
        assert cluster._placements == {}
        for nid in nids:  # placed by prefix on the shard that holds it
            owner = cluster.nodes()[cluster.placement_index(nid)]
            assert nid in owner.service.session_ids()
        moved = start_and_policy(transport, requester, "req-moved")
        target = (cluster.placement_index(moved) + 1) % 3
        cluster.migrate_session(moved, target)
        assert cluster._placements == {moved: target}

    def test_migrating_an_evicted_session_reads_one_record(
        self, wal_cluster
    ):
        transport, cluster, requester = wal_cluster
        nid = self.evicted_session(transport, cluster, requester)
        target = 1 - cluster.placement_index(nid)
        parsed = records_parsed(cluster)
        session = cluster.migrate_session(nid, target)
        assert records_parsed(cluster) == parsed + 1
        assert session.session_id == nid
        assert cluster.placement_index(nid) == target

    def test_health_probe_parses_no_record(self, wal_cluster):
        transport, cluster, requester = wal_cluster
        self.evicted_session(transport, cluster, requester)
        parsed = records_parsed(cluster)
        with pytest.raises(SessionError):
            transport.call("urn:tn", "PolicyExchange", {
                "negotiationId": "__health_probe__", "resource": "",
                "clientSeq": 1,
            })
        assert records_parsed(cluster) == parsed

    def test_close_journals_nothing_for_finished_sessions(
        self, wal_cluster, tmp_path
    ):
        transport, cluster, requester = wal_cluster
        for index in range(4):
            complete(transport, requester, f"req-{index}")
        records = cluster.wal_records()
        cluster.close()
        reopened = [
            WALSessionStore(path) for path in sorted(tmp_path.iterdir())
        ]
        assert sum(store.records() for store in reopened) == records

    def test_invariant_holds_for_evicted_sessions(self, cluster_fixture):
        transport, cluster, requester, _ = cluster_fixture
        self.evicted_session(transport, cluster, requester)
        violations = []
        check_service_invariants(
            cluster, lambda *v: violations.append(v), cluster=cluster
        )
        assert violations == []

    def test_invariant_catches_a_lost_evicted_session(self, cluster_fixture):
        """Terminal durability keeps its strength for sessions that
        live only in the journal: a finished session whose adopter lost
        its record, while another shard still holds a terminal
        checkpoint, is reported lost."""
        transport, cluster, requester, _ = cluster_fixture
        nid = complete(transport, requester, "req-1")
        owner = (cluster.placement_index(nid) + 1) % 3
        cluster.migrate_session(nid, owner)
        service = cluster.nodes()[owner].service
        # adopted finished: terminal, so only journalled, never resident
        assert nid not in service._sessions
        # the owner loses its one record of the session, the adoption
        assert cluster.tear_wal(owner)
        violations = []
        check_service_invariants(
            cluster, lambda *v: violations.append(v), cluster=cluster
        )
        assert [name for name, _ in violations] == ["terminal-durability"]


def violations_of(cluster):
    found = []
    check_service_invariants(
        cluster, lambda *v: found.append(v), cluster=cluster
    )
    return [name for name, _ in found]


class TestFinishedSessionMoved:
    """A finished session keeps its outcome when another shard adopts
    it, and a retry of its final exchange is answered wherever it
    lands inside the replay window."""

    def test_migration_keeps_the_outcome_in_the_adopters_journal(
        self, cluster_fixture
    ):
        transport, cluster, requester, _ = cluster_fixture
        nid = complete(transport, requester, "req-1")
        target = (cluster.placement_index(nid) + 1) % 3
        session = cluster.migrate_session(nid, target)
        assert session.terminal
        adopted = cluster.nodes()[target].session_store.get(nid)
        assert adopted.get("phase") == "exchange"
        outcome = adopted.find("outcome")
        assert outcome is not None
        assert outcome.get("success") == "true"
        assert cluster.sessions_in_flight == 0
        assert violations_of(cluster) == []

    @pytest.mark.parametrize(
        "hardening", [None, HardeningConfig()],
        ids=["unhardened", "hardened"],
    )
    def test_lost_final_response_is_answered_after_failover(
        self, parties, monkeypatch, hardening
    ):
        requester, controller = parties
        transport = SimTransport()
        cluster = ShardedTNService(
            controller, transport, url="urn:tn", shards=3,
            agents={requester.name: requester}, hardening=hardening,
        )
        nid = start_and_policy(transport, requester)
        home = cluster.nodes()[cluster.placement_index(nid)]
        handle = home.service.handle
        lost = []

        class NoEngine:
            def __init__(self, *args):
                raise AssertionError("the engine re-ran for a replay")

        def lose_final_response(operation, payload):
            response = handle(operation, payload)
            if operation != "CredentialExchange":
                return response
            lost.append(response)
            # from here on, the answer must come from the checkpoint
            monkeypatch.setattr(tn_service, "NegotiationEngine", NoEngine)
            raise TransportError("response lost on the shard hop")

        transport.unbind(home.url)
        transport.bind(home.url, lose_final_response)
        retry = transport.call("urn:tn", "CredentialExchange", {
            "negotiationId": nid, "clientSeq": 2,
        })
        assert cluster.placement_index(nid) != home.index
        (original,) = lost
        assert retry["success"] is original["success"] is True
        assert retry["failureReason"] == original["failureReason"]
        for party in ("disclosed_by_requester", "disclosed_by_controller"):
            assert getattr(retry["result"], party) == \
                getattr(original["result"], party)
        assert cluster.sessions_in_flight == 0
        cluster.close()

    def test_invariant_catches_a_completed_checkpoint_without_outcome(
        self, cluster_fixture
    ):
        """A journal whose last intact completed checkpoint lacks its
        outcome (as an adoption that dropped it would write) breaks
        terminal durability, even though the session is terminal."""
        transport, cluster, requester, _ = cluster_fixture
        nid = complete(transport, requester, "req-1")
        node = cluster.nodes()[cluster.placement_index(nid)]
        complete_record = node.session_store.get(nid)
        bare = copy.deepcopy(complete_record)
        bare.remove(bare.find("outcome"))
        node.session_store.append(nid, bare)
        node.session_store.append(nid, complete_record)
        assert violations_of(cluster) == []
        # tear the outcome-bearing record: the bare one is now durable
        assert cluster.tear_wal(node.index)
        assert cluster.sessions()[nid].terminal
        assert violations_of(cluster) == ["terminal-durability"]
