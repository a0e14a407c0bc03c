"""Hedged StartNegotiation: tail-latency race with exactly-one commit.

When a shard degrades, every start routed to it pays its latency.
:class:`ShardedTNService` with a :class:`HedgePolicy` races a second
identical start against the ring successor after the hedge delay;
hedging therefore works from every entry point — plain sync
``TNClient.negotiate`` included.  These tests pin down the
safety half of that bargain — the loser's session is cancelled, a
client retry is answered from the router's start-replay map instead
of minting a duplicate, and tampered reuse of the idempotency token
is rejected.  The map itself is bounded and compact: once it has
evicted a token, the token's shard answers its retries, and it keeps
one small record per token, not the response it handed out.
"""

import asyncio
import gc
import tracemalloc

import pytest

from repro.api import ResilienceConfig
from repro.cluster import HedgePolicy, ShardedTNService
from repro.errors import ErrorCode, ServiceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.services import tn_client
from repro.services.tn_client import TNClient
from repro.services.transport import SimTransport
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


def make_cluster(parties, plan=None, shards=3, **kwargs):
    requester, controller = parties
    transport = SimTransport()
    faultable = (
        FaultInjector(transport, plan) if plan is not None else transport
    )
    kwargs.setdefault("hedge", HedgePolicy(delay_ms=500.0))
    cluster = ShardedTNService(
        controller, faultable, url="urn:tn", shards=shards,
        agents={requester.name: requester}, **kwargs
    )
    return faultable, cluster, requester


def start_payload(requester, request_id):
    return {
        "requester": requester, "strategy": "standard",
        "requestId": request_id,
    }


def do_start(transport, requester, request_id, **fields):
    return transport.call(
        "urn:tn", "StartNegotiation",
        {**start_payload(requester, request_id), **fields},
    )


class TestHedgePolicy:
    def test_fixed_delay(self):
        assert HedgePolicy(delay_ms=250.0).current_delay([]) == 250.0

    def test_initial_delay_until_enough_samples(self):
        policy = HedgePolicy(min_samples=3, initial_delay_ms=400.0)
        assert policy.current_delay([10.0, 20.0]) == 400.0

    def test_adaptive_percentile(self):
        policy = HedgePolicy(min_samples=3, percentile=0.5)
        samples = [100.0, 300.0, 200.0, 400.0]
        assert policy.current_delay(samples) == 300.0  # rank 2 of sorted

    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay_ms=-1.0)
        with pytest.raises(ValueError):
            HedgePolicy(percentile=1.5)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ValueError):
            HedgePolicy(initial_delay_ms=-1.0)


class TestHedgedStart:
    def test_fast_primary_never_hedges(self, parties):
        transport, cluster, requester = make_cluster(parties)
        response = do_start(transport, requester, "fast-1")
        assert response["negotiationId"]
        assert cluster.hedge_stats.considered == 1
        assert cluster.hedge_stats.fired == 0
        cluster.close()

    def test_start_without_token_is_not_hedged(self, parties):
        transport, cluster, requester = make_cluster(parties)
        response = transport.call(
            "urn:tn", "StartNegotiation",
            {"requester": requester, "strategy": "standard"},
        )
        assert response["negotiationId"]
        assert cluster.hedge_stats.considered == 0
        cluster.close()

    def test_single_shard_cluster_never_hedges(self, parties):
        transport, cluster, requester = make_cluster(parties, shards=1)
        response = do_start(transport, requester, "solo-1")
        assert response["negotiationId"]
        assert cluster.hedge_stats.considered == 0
        cluster.close()

    def test_slow_primary_loses_race_to_backup(self, parties):
        plan = FaultPlan(slow_ms=2000.0)
        transport, cluster, requester = make_cluster(parties, plan)
        request_id = "hedge-1"
        primary = cluster.ring.route(request_id)
        plan.always(FaultKind.SLOW, url=primary)
        before = transport.clock.elapsed_ms
        response = do_start(transport, requester, request_id)
        latency = transport.clock.elapsed_ms - before
        assert cluster.hedge_stats.fired == 1
        assert cluster.hedge_stats.won == 1
        # pinned to the winner, not the slow routed shard
        assert cluster.placement(response["negotiationId"]) != primary
        # the caller paid the hedged latency (delay + backup), not the
        # slow primary's 2000+ ms
        assert latency < 2000.0
        cluster.close()

    def test_loser_session_cancelled_exactly_one_commit(self, parties):
        plan = FaultPlan(slow_ms=2000.0)
        transport, cluster, requester = make_cluster(parties, plan)
        request_id = "hedge-commit"
        primary = cluster.ring.route(request_id)
        plan.always(FaultKind.SLOW, url=primary)
        response = do_start(transport, requester, request_id)
        winner_id = response["negotiationId"]
        # both legs answered and committed a session; the loser's was
        # released, so exactly one survives cluster-wide
        assert cluster.hedge_stats.cancelled == 1
        assert list(cluster.sessions()) == [winner_id]
        assert cluster.placement_index(winner_id) is not None
        # no orphaned placement for the cancelled twin
        live_placements = [
            sid for sid in cluster._placements if sid != winner_id
        ]
        assert live_placements == []
        cluster.close()

    def test_retry_answered_from_start_replay_map(self, parties):
        plan = FaultPlan(slow_ms=2000.0)
        transport, cluster, requester = make_cluster(parties, plan)
        request_id = "hedge-retry"
        primary = cluster.ring.route(request_id)
        plan.always(FaultKind.SLOW, url=primary)
        first = do_start(transport, requester, request_id)
        # a faithful client retry of the same token: route-by-hash
        # would hit the loser (which released its dedup entry with the
        # session), so the router itself answers from the recorded win
        second = do_start(transport, requester, request_id)
        assert second == first
        assert cluster.start_replays == 1
        # still exactly one session
        assert list(cluster.sessions()) == [first["negotiationId"]]
        cluster.close()

    def test_tampered_token_reuse_rejected(self, parties):
        transport, cluster, requester = make_cluster(parties)
        request_id = "hedge-tamper"
        do_start(transport, requester, request_id)
        tampered = start_payload(requester, request_id)
        tampered["strategy"] = "suspicious"
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "StartNegotiation", tampered)
        assert excinfo.value.error_code is ErrorCode.REPLAY_MISMATCH
        cluster.close()

    def test_mutated_payload_field_rejected(self, parties):
        transport, cluster, requester = make_cluster(parties)
        request_id = "hedge-mutate"
        do_start(transport, requester, request_id)
        mutated = start_payload(requester, request_id)
        mutated["counterpartUrl"] = "urn:evil"
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "StartNegotiation", mutated)
        assert excinfo.value.error_code is ErrorCode.REPLAY_MISMATCH
        cluster.close()

    def test_full_negotiation_succeeds_under_slow_shard(self, parties):
        plan = FaultPlan(slow_ms=2000.0)
        transport, cluster, requester = make_cluster(parties, plan)
        client = TNClient(transport, "urn:tn", requester)
        victim = cluster.ring.route(f"req-{requester.name}-1")
        plan.always(FaultKind.SLOW, url=victim)
        result = asyncio.run(
            client.anegotiate("VoMembership", at=NEGOTIATION_AT)
        )
        assert result.success
        # exactly one session end-to-end even if the start was hedged
        assert len(cluster.sessions()) == 1
        cluster.close()


class TestStartReplayMap:
    #: Map depth for the eviction tests.
    DEPTH = 4
    #: Map depth for the footprint test, and its ceiling per record.
    MEASURED_DEPTH = 256
    MAX_BYTES_PER_RECORD = 256

    def test_evicted_token_is_answered_by_its_shard(
        self, parties, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cluster.sharded._START_REPLAY_DEPTH", self.DEPTH
        )
        transport, cluster, requester = make_cluster(parties)
        first = do_start(transport, requester, "evict-0")
        for index in range(1, self.DEPTH + 1):
            do_start(transport, requester, f"evict-{index}")
        assert "evict-0" not in cluster._start_replays
        assert len(cluster._start_replays) == self.DEPTH
        # the router no longer knows the token: the shard's own dedup
        # still rejects a tampered reuse of it ...
        tampered = start_payload(requester, "evict-0")
        tampered["strategy"] = "suspicious"
        with pytest.raises(ServiceError) as excinfo:
            transport.call("urn:tn", "StartNegotiation", tampered)
        assert excinfo.value.error_code is ErrorCode.REPLAY_MISMATCH
        # ... and answers a faithful retry with the same session
        retry = do_start(transport, requester, "evict-0")
        assert retry == first
        assert cluster.start_replays == 0
        assert len(cluster.sessions()) == self.DEPTH + 1
        cluster.close()

    @pytest.mark.parametrize(
        "changed",
        [{"deadlineMs": 5001.0}, {"deadlineMs": 5000.0, "resource": "R"}],
        ids=["changed-deadline", "added-field"],
    )
    def test_changed_retry_rejected(self, parties, changed):
        transport, cluster, requester = make_cluster(parties)
        do_start(transport, requester, "change-1", deadlineMs=5000.0)
        with pytest.raises(ServiceError) as excinfo:
            do_start(transport, requester, "change-1", **changed)
        assert excinfo.value.error_code is ErrorCode.REPLAY_MISMATCH
        assert cluster.start_replays == 0
        cluster.close()

    def test_retry_answer_is_independent_of_first_response(self, parties):
        transport, cluster, requester = make_cluster(parties)
        first = do_start(transport, requester, "alias-1")
        original = dict(first)
        first["negotiationId"] = "forged"
        first["extra"] = True
        retry = do_start(transport, requester, "alias-1")
        assert retry == original
        assert cluster.start_replays == 1
        cluster.close()

    def test_full_map_costs_at_most_256_bytes_per_record(
        self, parties, monkeypatch
    ):
        """The bytes the map frees when cleared, per record, after
        turning over once.  The keys and negotiation ids are shared
        with the shards' own maps, so they stay."""
        depth = self.MEASURED_DEPTH
        monkeypatch.setattr("repro.cluster.sharded._START_REPLAY_DEPTH", depth)
        transport, cluster, requester = make_cluster(parties)
        tracemalloc.start()
        try:
            for index in range(depth + depth // 2):
                do_start(
                    transport, requester, f"{requester.name}:R:req-{index}",
                    counterpartUrl=f"urn:repro:{requester.name}",
                    deadlineMs=60_000.0 + index,
                )
            assert len(cluster._start_replays) == depth
            gc.collect()
            full, _ = tracemalloc.get_traced_memory()
            cluster._start_replays.clear()
            gc.collect()
            empty, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            cluster.close()
        per_record = (full - empty) / depth
        assert per_record <= self.MAX_BYTES_PER_RECORD, (
            f"{per_record:.0f} B per start record "
            f"(ceiling {self.MAX_BYTES_PER_RECORD})"
        )


class TestHedgeFromSyncClient:
    def test_slow_shard_hedge_fires_and_wins_through_negotiate(
        self, parties, monkeypatch
    ):
        """A SLOW-faulted shard under plain sync ``TNClient.negotiate``
        over a ``ResilienceConfig`` stack: the config's hedge policy
        reaches the router, the hedge fires and wins, and the
        negotiation pays the hedged latency instead of the slow one."""
        monkeypatch.setattr(
            tn_client, "next_request_id", lambda name, resource: "sync-1"
        )
        plan = FaultPlan(slow_ms=2000.0)
        config = ResilienceConfig(hedge=HedgePolicy(delay_ms=500.0))
        transport, cluster, requester = make_cluster(
            parties, plan, **config.router_kwargs()
        )
        primary = cluster.ring.route("sync-1")
        plan.always(FaultKind.SLOW, url=primary)
        client = TNClient(config.wrap(transport), "urn:tn", requester)
        before = transport.clock.elapsed_ms
        result = client.negotiate("VoMembership", at=NEGOTIATION_AT)
        latency = transport.clock.elapsed_ms - before
        assert result.success
        assert cluster.hedge_stats.fired == 1
        assert cluster.hedge_stats.won == 1
        assert cluster.hedge_stats.cancelled == 1
        # the session lives on the winner, and only there
        (session_id,) = cluster.sessions()
        assert cluster.placement(session_id) != primary
        assert latency < 2000.0
        cluster.close()
