"""Retained memory per negotiation on a WAL-backed hardened cluster.

A long-lived TN service must not keep a second in-memory copy of what
its journal already holds durably: a finished session leaves memory one
session TTL after its last contact.  The ceiling is per operation, so it
is independent of how many negotiations the test runs.  It is measured
as a slope once the bounded structures are full: the warm-up runs past
the router's start-replay map and past the residency window (the clock
skips ahead before every negotiation, so the window holds a fixed number
of sessions), whose filling would otherwise read as retention.  The
warm-up runs traced too: tracemalloc cannot see a block allocated before
it started being freed, so a bounded structure that turns its content
over during the measurement would otherwise read as growing.  To keep
that traced warm-up short, the start-replay map runs at a smaller depth:
its bound, not its depth, is what keeps it from growing.
"""

import gc
import tracemalloc

from repro.cluster import ShardedTNService
from repro.hardening.config import HardeningConfig
from repro.negotiation.cache import SequenceCache
from repro.scenario.workloads import capacity_workload
from repro.services.tn_client import TNClient
from repro.services.transport import SimTransport

#: Depth of the router's start-replay map during the test.
REPLAY_DEPTH = 64
#: Finished sessions resident at once: the clock skips this fraction
#: of the session TTL before each negotiation.
RESIDENT_WINDOW = 16
#: Enough negotiations to turn over the start-replay map and the
#: residency window, and then some.
WARMUP_OPS = max(REPLAY_DEPTH, RESIDENT_WINDOW) + 64
MEASURED_OPS = 200
#: Retained-bytes ceiling per negotiation.
MAX_RETAINED_BYTES_PER_OP = 1024


def test_cluster_retained_bytes_per_negotiation(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.cluster.sharded._START_REPLAY_DEPTH", REPLAY_DEPTH
    )
    fixture = capacity_workload(8)
    transport = SimTransport()
    hardening = HardeningConfig()
    cluster = ShardedTNService(
        fixture.controller, transport, url="urn:vo:tn", shards=4,
        agents={agent.name: agent for agent in fixture.requesters},
        cache=SequenceCache(), hardening=hardening,
        wal_dir=str(tmp_path),
    )
    clients = [
        TNClient(transport, cluster.url, agent)
        for agent in fixture.requesters
    ]
    at = fixture.negotiation_time()
    skip_ms = hardening.session_ttl_ms / RESIDENT_WINDOW

    def negotiate(index: int) -> None:
        transport.clock.advance(skip_ms)
        result = clients[index % len(clients)].negotiate(
            fixture.resource, at=at
        )
        assert result.success, result.summary()

    try:
        tracemalloc.start(1)
        try:
            for index in range(WARMUP_OPS):
                negotiate(index)
            gc.collect()
            baseline, _ = tracemalloc.get_traced_memory()
            for index in range(MEASURED_OPS):
                negotiate(WARMUP_OPS + index)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        resident = sum(
            len(node.service._sessions) for node in cluster.nodes()
        )
    finally:
        cluster.close()
    assert resident <= 2 * RESIDENT_WINDOW, resident
    per_op = (retained - baseline) / MEASURED_OPS
    assert per_op <= MAX_RETAINED_BYTES_PER_OP, (
        f"{per_op:.0f} B retained per negotiation "
        f"(ceiling {MAX_RETAINED_BYTES_PER_OP})"
    )
