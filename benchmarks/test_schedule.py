"""Schedule claims — what the stack's scheduling buys, in simulated ms.

Every number here is simulated milliseconds from the calibrated
latency model, so the whole file is deterministic: two runs write a
byte-identical ``BENCH_schedule.json`` at the repo root (uploaded as a
CI artifact).  Wall-clock claims live in ``benchmarks/e2e`` and
``BENCHMARK.json``; this file holds only the schedule gates, at full
size, always enforced.

1. **Parallel formation**: an 8-role VO formed serially versus with
   ``execute_formation(parallel=True)``.  The parallel critical path
   must beat the serial schedule by >= 2x.

2. **Shard scaling**: 400 independent sessions driven through a
   ``ShardedTNService`` of 1, 2, 4 and 8 shards, each session on its
   own clock branch.  A session's cost lands on the shard its
   negotiation id was pinned to (``placement_index``); the cluster's
   makespan is the busiest shard, and throughput is sessions per
   simulated second of makespan.  8 shards must reach >= 5x one
   shard, and every shard must serve at least one session.

3. **Hedged tail**: 240 full negotiations against an 8-shard cluster
   with a SLOW fault pinned to one shard, once unhedged and once with
   :class:`HedgePolicy` racing the ring successor after a fixed delay.
   Health routing is off so the win is hedging's alone.  Gates: p99
   cut >= 2x, p50 drift <= 5%, and <= 10% extra transport attempts.

4. **Trace artifact**: an instrumented 8-role parallel formation whose
   merged trace must have one root and no orphans; written to
   ``BENCH_trace.json`` in Chrome Trace Event Format for
   ``chrome://tracing`` / Perfetto.

Shard placement hashes the requestId, which draws on the process-wide
counter in :mod:`repro.services.tn_client`; the ``request_ids`` fixture
restarts it so the shard and hedge sections do not depend on what ran
earlier in the process.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from pathlib import Path

import pytest

from benchmarks.conftest import print_series
from repro import obs
from repro.cluster import HedgePolicy, ShardedTNService
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs import validate_trace
from repro.scenario.workloads import capacity_workload, formation_workload
from repro.services import tn_client
from repro.services.transport import SimTransport

FORMATION_ROLES = 8
MIN_FORMATION_SPEEDUP = 2.0

SCALE_SESSIONS = 400
SHARD_COUNTS = (1, 2, 4, 8)
#: Ring replicas per shard: raised above the constructor default so
#: hash imbalance, not ring-segment variance, bounds the skew.
RING_REPLICAS = 256
MIN_SCALING_8 = 5.0

#: Full negotiations per hedging mode.
HEDGE_SESSIONS = 240
#: Ring size; exactly one shard is degraded.
HEDGE_SHARDS = 8
#: Distinct requester identities, assigned round-robin to sessions.
HEDGE_REQUESTERS = 16
#: Simulated service delay on the degraded shard.
SLOW_MS = 4000.0
#: Fixed hedge delay — no percentile adaptation, so both modes are
#: directly comparable call-for-call.
HEDGE_DELAY_MS = 500.0
MIN_P99_CUT = 2.0
P50_TOLERANCE = 0.05
MAX_EXTRA_ATTEMPTS = 0.10

ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_schedule.json"
TRACE_PATH = ROOT / "BENCH_trace.json"
#: Report section order, fixed so the file's bytes do not depend on
#: which tests ran or in what order.
SECTIONS = (
    "parallel_formation", "shard_scaling", "hedged_tail_latency",
    "trace_artifact",
)


def _record(section: str, payload: dict) -> None:
    """Write one section of BENCH_schedule.json, keeping the others,
    so the tests can run in any order (or individually)."""
    report = {}
    if REPORT_PATH.exists():
        try:
            report = json.loads(REPORT_PATH.read_text())
        except json.JSONDecodeError:
            pass
    report[section] = payload
    ordered = {name: report[name] for name in SECTIONS if name in report}
    REPORT_PATH.write_text(json.dumps(ordered, indent=2) + "\n")


@pytest.fixture
def request_ids(monkeypatch):
    """Restart the requestId counter now; call the result to restart
    it again.  The original counter is restored after the test."""
    def restart() -> None:
        monkeypatch.setattr(tn_client, "_request_ids", itertools.count(1))

    restart()
    return restart


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


# -- 1. parallel formation -----------------------------------------------------------


def _run_formation(parallel: bool):
    fixture = formation_workload(FORMATION_ROLES)
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(
        fixture.plans(), at=fixture.contract.created_at, parallel=parallel,
    )
    assert len(outcome.joined) == FORMATION_ROLES
    return outcome


def test_parallel_formation_speedup():
    serial = _run_formation(parallel=False)
    parallel = _run_formation(parallel=True)
    assert serial.mode == "serial" and parallel.mode == "parallel"
    assert serial.joined == parallel.joined
    speedup = serial.elapsed_ms / parallel.elapsed_ms
    metrics = {
        "roles": FORMATION_ROLES,
        "serial": {"elapsed_ms": round(serial.elapsed_ms, 3)},
        "parallel": {
            "elapsed_ms": round(parallel.elapsed_ms, 3),
            "critical_path_ms": round(parallel.critical_path_ms, 3),
            "serial_equivalent_ms": round(parallel.serial_ms, 3),
        },
        "speedup": round(speedup, 3),
    }
    print_series(
        f"Throughput: {FORMATION_ROLES}-role formation (serial vs parallel)",
        [
            ("serial", round(serial.elapsed_ms, 1)),
            ("parallel", round(parallel.elapsed_ms, 1)),
            ("speedup", f"{metrics['speedup']}x"),
        ],
        ("schedule", "simulated ms"),
    )
    _record("parallel_formation", metrics)
    assert speedup >= MIN_FORMATION_SPEEDUP, (
        f"parallel formation must beat serial >= {MIN_FORMATION_SPEEDUP}x, "
        f"measured {speedup:.2f}x"
    )


# -- 2. shard scaling ----------------------------------------------------------------


def _run_cluster(fixture, shards: int) -> dict:
    transport = SimTransport()
    cluster = ShardedTNService(
        fixture.controller, transport, url="urn:tn-scale",
        shards=shards, replicas=RING_REPLICAS,
    )
    at = fixture.negotiation_time()
    shard_busy_ms = [0.0] * shards
    shard_sessions = [0] * shards
    for index in range(SCALE_SESSIONS):
        agent = fixture.requesters[index % len(fixture.requesters)]
        with transport.clock_branch() as branch:
            begin = branch.elapsed_ms
            start = transport.call("urn:tn-scale", "StartNegotiation", {
                "requester": agent,
                "strategy": "standard",
                "requestId": tn_client.next_request_id(
                    agent.name, fixture.resource
                ),
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
        "sessions": SCALE_SESSIONS,
        "makespan_ms": round(makespan_ms, 3),
        "throughput_per_sim_sec": round(
            SCALE_SESSIONS / (makespan_ms / 1000.0), 3
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


def test_shard_scaling(request_ids):
    fixture = capacity_workload(16)
    runs = [_run_cluster(fixture, shards) for shards in SHARD_COUNTS]
    base = runs[0]["throughput_per_sim_sec"]
    for run in runs:
        run["scaling_vs_1_shard"] = round(
            run["throughput_per_sim_sec"] / base, 3
        )
    print_series(
        f"Shard scaling: {SCALE_SESSIONS} sessions across 1-8 TN shards",
        [
            (run["shards"], run["throughput_per_sim_sec"],
             f"{run['scaling_vs_1_shard']}x",
             "/".join(str(s["sessions"]) for s in run["per_shard"]))
            for run in runs
        ],
        ("shards", "sessions/sim-sec", "scaling", "per-shard sessions"),
    )
    _record("shard_scaling", {
        "sessions": SCALE_SESSIONS,
        "ring_replicas": RING_REPLICAS,
        "runs": runs,
    })
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


# -- 3. hedged tail ------------------------------------------------------------------


def _run_formation_storm(fixture, hedged: bool) -> dict:
    """Drive HEDGE_SESSIONS full negotiations against a cluster with
    one SLOW shard; per-session latency measured on clock branches."""
    transport = SimTransport()
    plan = FaultPlan(slow_ms=SLOW_MS)
    injector = FaultInjector(transport, plan)
    cluster = ShardedTNService(
        fixture.controller, injector, url="urn:tn-bench",
        shards=HEDGE_SHARDS,
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
        # throughput.
        return [await one_session(index) for index in range(HEDGE_SESSIONS)]

    deltas = asyncio.run(run_all())
    stats = {
        "mode": "hedged" if hedged else "unhedged",
        "sessions": HEDGE_SESSIONS,
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


def test_hedged_tail_latency(request_ids):
    fixture = capacity_workload(HEDGE_REQUESTERS)
    off = _run_formation_storm(fixture, hedged=False)
    # Same requestIds in both modes: identical routing, identical
    # victim set.
    request_ids()
    on = _run_formation_storm(fixture, hedged=True)
    p99_cut = off["sim_ms_p99"] / max(1e-9, on["sim_ms_p99"])
    p50_drift = abs(on["sim_ms_p50"] - off["sim_ms_p50"]) / max(
        1e-9, off["sim_ms_p50"]
    )
    extra_attempts = (
        on["transport_attempts"] - off["transport_attempts"]
    ) / max(1, off["transport_attempts"])
    metrics = {
        "sessions": HEDGE_SESSIONS,
        "shards": HEDGE_SHARDS,
        "slow_ms": SLOW_MS,
        "hedge_delay_ms": HEDGE_DELAY_MS,
        "unhedged": off,
        "hedged": on,
        "p99_cut": round(p99_cut, 3),
        "p50_drift": round(p50_drift, 4),
        "extra_attempts": round(extra_attempts, 4),
    }
    print_series(
        f"Hedged starts under one slow shard ({HEDGE_SESSIONS} formations, "
        f"{HEDGE_SHARDS} shards)",
        [
            ("unhedged", off["sim_ms_p50"], off["sim_ms_p99"],
             off["transport_attempts"], 0),
            ("hedged", on["sim_ms_p50"], on["sim_ms_p99"],
             on["transport_attempts"], on["hedges_fired"]),
            ("p99 cut", f"{metrics['p99_cut']}x", "", "", ""),
        ],
        ("mode", "sim p50 ms", "sim p99 ms", "attempts", "hedges"),
    )
    _record("hedged_tail_latency", metrics)
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


# -- 4. trace artifact ---------------------------------------------------------------


def test_trace_artifact():
    fixture = formation_workload(FORMATION_ROLES)
    obs.enable()
    try:
        edition = fixture.initiator_edition
        edition.create_vo(fixture.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_formation(fixture.plans(), parallel=True)
    finally:
        obs.disable()

    assert len(outcome.joined) == FORMATION_ROLES
    spans = obs.spans()
    formation = next(s for s in spans if s.name == "vo.formation")
    members = [s for s in spans if s.trace_id == formation.trace_id]
    report = validate_trace(members)
    assert len(report["roots"]) == 1
    assert report["orphans"] == []

    TRACE_PATH.write_text(
        json.dumps(obs.to_chrome_trace(members), indent=1) + "\n"
    )
    _record("trace_artifact", {
        "roles": FORMATION_ROLES,
        "spans": report["spans"],
        "traces": report["traces"],
        "critical_path_ms": round(outcome.critical_path_ms, 3),
        "serial_ms": round(outcome.serial_ms, 3),
        "artifact": TRACE_PATH.name,
    })
    print_series(
        f"Observability: {FORMATION_ROLES}-role formation trace artifact",
        [
            ("spans", report["spans"]),
            ("roots", len(report["roots"])),
            ("orphans", len(report["orphans"])),
            ("critical path (ms)", round(outcome.critical_path_ms, 1)),
        ],
        ("measure", "value"),
    )
