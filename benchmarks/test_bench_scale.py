"""Shard scaling — ``ShardedTNService`` throughput from 1 to 8 shards.

Closes the roadmap's missing bench gate on the sharded TN service: the
consistent-hash router should spread independent sessions across
shards nearly uniformly, so aggregate session throughput (in simulated
time) scales close to linearly with the shard count.

Method: M independent negotiation sessions (distinct requesters,
distinct requestIds) are driven through the router, each on its own
clock branch.  A session's simulated cost lands on the shard its
negotiation id was pinned to (``placement_index``); a shard's *busy
time* is the sum of its sessions' branch deltas, and the cluster's
makespan is the busiest shard — shards are independent services, so
simulated time advances as the critical path, exactly like parallel
formation lanes.  Aggregate throughput is sessions per simulated
second of makespan.

Full-mode gates: **8 shards >= 5x the single-shard throughput** (near-
linear modulo hash imbalance) and every shard serves at least one
session.  Reported to ``BENCH_scale.json`` at the repo root; with
``BENCH_QUICK=1`` the workload shrinks, the report is stamped
``"quick": true``, and the gates are skipped outright.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import print_series
from repro.cluster import ShardedTNService
from repro.scenario.workloads import capacity_workload
from repro.services.tn_client import next_request_id
from repro.services.transport import SimTransport

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SESSIONS = 64 if QUICK else 400
SHARD_COUNTS = (1, 2, 4, 8)
#: Ring replicas per shard: raised above the constructor default so
#: hash imbalance, not ring-segment variance, bounds the skew.
RING_REPLICAS = 256

MIN_SCALING_8 = 5.0

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _merge_report(section: str, payload: dict) -> None:
    """Read-modify-write one section of BENCH_scale.json so the tests
    can run in any order (or individually)."""
    report = {}
    if REPORT_PATH.exists():
        try:
            report = json.loads(REPORT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report["quick_mode"] = QUICK
    payload["quick"] = QUICK
    report[section] = payload
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _run_cluster(fixture, shards: int) -> dict:
    transport = SimTransport()
    cluster = ShardedTNService(
        fixture.controller, transport, url="urn:tn-scale",
        shards=shards, replicas=RING_REPLICAS,
    )
    at = fixture.negotiation_time()
    shard_busy_ms = [0.0] * shards
    shard_sessions = [0] * shards
    for index in range(SESSIONS):
        agent = fixture.requesters[index % len(fixture.requesters)]
        with transport.clock_branch() as branch:
            begin = branch.elapsed_ms
            start = transport.call("urn:tn-scale", "StartNegotiation", {
                "requester": agent,
                "strategy": "standard",
                "requestId": next_request_id(agent.name, fixture.resource),
            })
            negotiation_id = start["negotiationId"]
            transport.call("urn:tn-scale", "PolicyExchange", {
                "negotiationId": negotiation_id,
                "resource": fixture.resource,
                "at": at,
                "clientSeq": 1,
            })
            exchange = transport.call("urn:tn-scale", "CredentialExchange", {
                "negotiationId": negotiation_id,
                "clientSeq": 2,
            })
            assert exchange["success"], exchange["failureReason"]
            delta_ms = branch.elapsed_ms - begin
        placed = cluster.placement_index(negotiation_id)
        assert placed is not None, f"unplaced session {negotiation_id!r}"
        shard_busy_ms[placed] += delta_ms
        shard_sessions[placed] += 1
    cluster.close()
    makespan_ms = max(shard_busy_ms)
    return {
        "shards": shards,
        "sessions": SESSIONS,
        "makespan_ms": round(makespan_ms, 3),
        "throughput_per_sim_sec": round(
            SESSIONS / (makespan_ms / 1000.0), 3
        ),
        "per_shard": [
            {
                "shard": index,
                "sessions": shard_sessions[index],
                "busy_ms": round(shard_busy_ms[index], 3),
                "throughput_per_sim_sec": round(
                    shard_sessions[index] / (shard_busy_ms[index] / 1000.0),
                    3,
                ) if shard_busy_ms[index] else 0.0,
            }
            for index in range(shards)
        ],
    }


def test_bench_shard_scaling():
    fixture = capacity_workload(16)
    runs = [_run_cluster(fixture, shards) for shards in SHARD_COUNTS]
    base = runs[0]["throughput_per_sim_sec"]
    for run in runs:
        run["scaling_vs_1_shard"] = round(
            run["throughput_per_sim_sec"] / base, 3
        )
    metrics = {
        "sessions": SESSIONS,
        "ring_replicas": RING_REPLICAS,
        "runs": runs,
    }
    print_series(
        f"Shard scaling: {SESSIONS} sessions across 1-8 TN shards",
        [
            (run["shards"], run["throughput_per_sim_sec"],
             f"{run['scaling_vs_1_shard']}x",
             "/".join(str(s["sessions"]) for s in run["per_shard"]))
            for run in runs
        ],
        ("shards", "sessions/sim-sec", "scaling", "per-shard sessions"),
    )
    _merge_report("shard_scaling", metrics)
    if QUICK:
        return  # quick mode measures and reports; only full mode gates
    final = runs[-1]
    assert final["shards"] == 8
    for shard in final["per_shard"]:
        assert shard["sessions"] >= 1, (
            f"shard {shard['shard']} served no sessions — the router is "
            "not spreading load"
        )
    assert final["scaling_vs_1_shard"] >= MIN_SCALING_8, (
        f"8 shards must scale >= {MIN_SCALING_8}x over one shard, "
        f"measured {final['scaling_vs_1_shard']}x"
    )
