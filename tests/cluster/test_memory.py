"""Retained memory per negotiation on a WAL-backed hardened cluster.

A long-lived TN service must not keep a second in-memory copy of what
its journal already holds durably.  The ceiling is per operation, so it
is independent of how many negotiations the test runs.  It is measured
as a slope once the bounded structures are full: the warm-up runs past
the router's start-replay map, whose filling would otherwise read as
retention.
"""

import gc
import tracemalloc

from repro.cluster import ShardedTNService
from repro.cluster.sharded import _START_REPLAY_DEPTH
from repro.hardening.config import HardeningConfig
from repro.negotiation.cache import SequenceCache
from repro.scenario.workloads import capacity_workload
from repro.services.tn_client import TNClient
from repro.services.transport import SimTransport

#: Enough negotiations to fill the start-replay map and then some.
WARMUP_OPS = _START_REPLAY_DEPTH + 64
MEASURED_OPS = 200
#: Retained-bytes ceiling per negotiation.
MAX_RETAINED_BYTES_PER_OP = 3072


def test_cluster_retained_bytes_per_negotiation(tmp_path):
    fixture = capacity_workload(8)
    transport = SimTransport()
    cluster = ShardedTNService(
        fixture.controller, transport, url="urn:vo:tn", shards=4,
        agents={agent.name: agent for agent in fixture.requesters},
        cache=SequenceCache(), hardening=HardeningConfig(),
        wal_dir=str(tmp_path),
    )
    clients = [
        TNClient(transport, cluster.url, agent)
        for agent in fixture.requesters
    ]
    at = fixture.negotiation_time()

    def negotiate(index: int) -> None:
        result = clients[index % len(clients)].negotiate(
            fixture.resource, at=at
        )
        assert result.success, result.summary()

    try:
        for index in range(WARMUP_OPS):
            negotiate(index)
        gc.collect()
        tracemalloc.start(1)
        try:
            # The baseline is read after one traced negotiation, so what
            # a first call allocates once falls in both readings and the
            # difference is what the negotiations pile up.
            negotiate(WARMUP_OPS)
            gc.collect()
            baseline, _ = tracemalloc.get_traced_memory()
            for index in range(MEASURED_OPS):
                negotiate(WARMUP_OPS + 1 + index)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        cluster.close()
    per_op = (retained - baseline) / MEASURED_OPS
    assert per_op <= MAX_RETAINED_BYTES_PER_OP, (
        f"{per_op:.0f} B retained per negotiation "
        f"(ceiling {MAX_RETAINED_BYTES_PER_OP})"
    )
