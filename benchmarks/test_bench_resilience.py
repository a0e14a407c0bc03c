"""Resilience wins under injected faults — hedging and asyncio recovery.

The resilience gate, reported to ``BENCH_resilience.json`` at the repo
root (machine-readable, uploaded as a CI artifact):

**Hedged tail latency**: M full negotiations are driven against a
sharded TN cluster with a SLOW fault pinned to one shard, once with
hedging off and once with :class:`HedgePolicy` racing the ring
successor after a fixed delay.  Each session's formation latency is
simulated milliseconds (a schedule result) on its own clock branch,
so the comparison is deterministic: the global requestId counter is re-seeded before each
mode, making routing (and hence the set of victim sessions) identical
across the two runs.  Health routing is off so the win is hedging's
alone.  Full-mode gates: **p99 cut >= 2x, p50 within 5%, and <= 10%
extra transport attempts** (a hedge fires only for the minority of
starts routed to the slow shard; every other operation is single-shot).

**Asyncio recovery**: the chaos soak runs in ``--asyncio`` mode —
concurrent waves of slots on clock branches — with a 3-shard cluster
(hedged, health-routed, one shard slowed) and periodic node kills; the
invariant checker (disclosure safety, terminality, admission
reconciliation, hedge accounting) must come back clean and at least
one mid-negotiation session must be recovered via journal failover.

``BENCH_QUICK=1`` shrinks the workload for CI smoke runs; sections are
stamped ``"quick": true`` and the gates are skipped outright.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
from pathlib import Path

from benchmarks.conftest import print_series
from repro.api import WorkloadRunner
from repro.cluster import HedgePolicy, ShardedTNService
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.scenario.workloads import capacity_workload
from repro.services import tn_client
from repro.services.transport import SimTransport

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Full negotiations per mode (hedging off / on).
SESSIONS = 48 if QUICK else 240
#: Ring size; exactly one shard is degraded.
SHARDS = 4 if QUICK else 8
#: Distinct requester identities, assigned round-robin to sessions.
REQUESTERS = 8 if QUICK else 16
#: Simulated service delay on the degraded shard.
SLOW_MS = 4000.0
#: Fixed hedge delay — no percentile adaptation, so both modes are
#: directly comparable call-for-call.
HEDGE_DELAY_MS = 500.0

SOAK_NEGOTIATIONS = 40 if QUICK else 80
SOAK_KILL_EVERY = 20 if QUICK else 25

MIN_P99_CUT = 2.0
P50_TOLERANCE = 0.05
MAX_EXTRA_ATTEMPTS = 0.10

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


def _merge_report(section: str, payload: dict) -> None:
    """Read-modify-write one section of BENCH_resilience.json so the
    tests can run in any order (or individually)."""
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


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _run_formation_storm(fixture, hedged: bool) -> dict:
    """Drive SESSIONS full negotiations against a cluster with one
    SLOW shard; per-session latency measured on clock branches."""
    # Re-seed the process-global requestId counter so both modes see
    # identical tokens — identical ring routing, identical victim set.
    tn_client._request_ids = itertools.count(1)
    transport = SimTransport()
    plan = FaultPlan(slow_ms=SLOW_MS)
    injector = FaultInjector(transport, plan)
    cluster = ShardedTNService(
        fixture.controller, injector, url="urn:tn-bench", shards=SHARDS,
        agents={agent.name: agent for agent in fixture.requesters},
        hedge=HedgePolicy(delay_ms=HEDGE_DELAY_MS) if hedged else None,
    )
    victim = cluster.nodes()[0].url
    plan.always(FaultKind.SLOW, url=victim)
    at = fixture.negotiation_time()

    async def one_session(index: int) -> float:
        agent = fixture.requesters[index % len(fixture.requesters)]
        with transport.clock_branch() as branch:
            begin = branch.elapsed_ms
            client = tn_client.TNClient(injector, "urn:tn-bench", agent)
            result = await client.anegotiate(fixture.resource, at=at)
            assert result.success, result.failure_detail
            return branch.elapsed_ms - begin

    async def run_all() -> list[float]:
        # Sequential on purpose: formation latency per session, not
        # throughput — concurrency is BENCH_async.json's axis.
        return [await one_session(index) for index in range(SESSIONS)]

    deltas = asyncio.run(run_all())
    stats = {
        "mode": "hedged" if hedged else "unhedged",
        "sessions": SESSIONS,
        "sim_ms_p50": round(_percentile(deltas, 0.50), 3),
        "sim_ms_p99": round(_percentile(deltas, 0.99), 3),
        "sim_ms_max": round(max(deltas), 3),
        "transport_attempts": transport.calls,
        "hedges_fired": cluster.hedge_stats.fired,
        "hedges_won": cluster.hedge_stats.won,
        "hedges_cancelled": cluster.hedge_stats.cancelled,
    }
    cluster.close()
    return stats


def test_bench_hedged_tail_latency():
    fixture = capacity_workload(REQUESTERS)
    off = _run_formation_storm(fixture, hedged=False)
    on = _run_formation_storm(fixture, hedged=True)
    p99_cut = off["sim_ms_p99"] / max(1e-9, on["sim_ms_p99"])
    p50_drift = abs(on["sim_ms_p50"] - off["sim_ms_p50"]) / max(
        1e-9, off["sim_ms_p50"]
    )
    extra_attempts = (
        on["transport_attempts"] - off["transport_attempts"]
    ) / max(1, off["transport_attempts"])
    metrics = {
        "sessions": SESSIONS,
        "shards": SHARDS,
        "slow_ms": SLOW_MS,
        "hedge_delay_ms": HEDGE_DELAY_MS,
        "unhedged": off,
        "hedged": on,
        "p99_cut": round(p99_cut, 3),
        "p50_drift": round(p50_drift, 4),
        "extra_attempts": round(extra_attempts, 4),
    }
    print_series(
        f"Hedged starts under one slow shard ({SESSIONS} formations, "
        f"{SHARDS} shards)",
        [
            ("unhedged", off["sim_ms_p50"], off["sim_ms_p99"],
             off["transport_attempts"], 0),
            ("hedged", on["sim_ms_p50"], on["sim_ms_p99"],
             on["transport_attempts"], on["hedges_fired"]),
            ("p99 cut", f"{metrics['p99_cut']}x", "", "", ""),
        ],
        ("mode", "sim p50 ms", "sim p99 ms", "attempts", "hedges"),
    )
    _merge_report("hedged_tail_latency", metrics)
    if QUICK:
        return  # quick mode measures and reports; only full mode gates
    assert p99_cut >= MIN_P99_CUT, (
        f"hedging must cut p99 formation latency >= {MIN_P99_CUT}x "
        f"under one slow shard, measured {p99_cut:.2f}x"
    )
    assert p50_drift <= P50_TOLERANCE, (
        f"the tail win must not move the median: p50 drifted "
        f"{p50_drift:.1%} (limit {P50_TOLERANCE:.0%})"
    )
    assert extra_attempts <= MAX_EXTRA_ATTEMPTS, (
        f"hedging must stay frugal: {extra_attempts:.1%} extra "
        f"transport attempts (limit {MAX_EXTRA_ATTEMPTS:.0%})"
    )


def test_bench_asyncio_recovery():
    report = WorkloadRunner().run(
        "soak", seed=7, negotiations=SOAK_NEGOTIATIONS, roles=3,
        asyncio_mode=True, cluster_shards=3,
        node_kill_every=SOAK_KILL_EVERY,
    )
    metrics = {
        "negotiations": SOAK_NEGOTIATIONS,
        "cluster_shards": 3,
        "node_kill_every": SOAK_KILL_EVERY,
        "ok": report.ok,
        "violations": len(report.violations),
        "successes": report.successes,
        "node_kills": report.node_kills,
        "failovers": report.failovers,
        "sessions_recovered": report.sessions_recovered,
        "hedges_fired": report.hedges_fired,
        "shard_ejections": report.shard_ejections,
        "health_probes": report.health_probes,
    }
    print_series(
        f"Asyncio soak recovery ({SOAK_NEGOTIATIONS} negotiations, "
        "3 shards, mid-soak kills)",
        [
            ("node kills", report.node_kills),
            ("failovers", report.failovers),
            ("sessions recovered", report.sessions_recovered),
            ("invariant violations", len(report.violations)),
            ("verdict", report.summary().split(":")[0]),
        ],
        ("metric", "value"),
    )
    _merge_report("asyncio_recovery", metrics)
    if QUICK:
        return
    assert report.ok, report.to_json()
    assert report.violations == []
    assert report.sessions_recovered >= 1, (
        "a mid-soak shard kill must hand at least one in-flight "
        "session to a survivor via journal failover"
    )
