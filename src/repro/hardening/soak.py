"""The chaos-soak harness: mixed adversarial faults + overload, with
invariants checked at the end.

:func:`run_soak` drives thousands of trust negotiations over the full
simulated SOA stack (``TNClient → ResilientTransport → FaultInjector →
SimTransport → hardened TNWebService``) while a seeded
:class:`~repro.faults.plan.FaultPlan` injects both network faults
(drops, lost responses, duplicates, database failures) and hostile-peer
probes (malformed, truncated, oversized, replayed, reordered,
Byzantine), periodic low-priority bursts saturate admission control,
and Byzantine impostor clients try to negotiate with stolen credential
profiles.  The whole fuzz corpus of :mod:`repro.hardening.fuzz` is
replayed up front.

After the storm, the invariant checker asserts what hardening promises:

- **disclosure safety** — no protected credential was disclosed
  without a policy alternative whose credential terms the counterpart
  satisfied (concept/variable terms are resolved by the ontology layer
  and are out of this checker's scope);
- **session terminality** — every server-side session ended terminal
  (completed, or expired by the TTL reaper);
- **admission reconciliation** — ``offered == admitted + shed +
  expired`` on the service's admission controller;
- **probe hygiene** — every adversarial probe was rejected with a
  typed error code (or answered idempotently where replay is
  legitimate); none was accepted or leaked a stack trace;
- **exception hygiene** — zero unhandled (non-library) exceptions at
  the client, zero internal errors at the service;
- **impostor rejection** — no Byzantine impostor negotiation
  succeeded;
- **retraction honored** — with ``retract_every > 0``, no negotiation
  completed after its credential was revoked through the trust bus
  between PolicyExchange and CredentialExchange;
- **liveness** — despite everything, negotiations kept succeeding.

With ``cluster_shards > 0`` the soak deploys a
:class:`~repro.cluster.ShardedTNService` instead of a single service
and interleaves kill/restart drills — phase-split negotiations whose
serving shard is killed (periodically with a torn WAL tail) between
phases, forcing failover adoption from the durable journal.  Every
cluster of two or more shards also routes with hedged
``StartNegotiation`` and health-aware ejection, and a deliberately
slowed shard (``FaultKind.SLOW`` with a strike ``limit``) is ejected,
probed while still slow, and re-admitted once the fault is spent.
Three more invariants then apply:

- **terminal durability** — zero sessions whose journal reached a
  terminal checkpoint are lost (or regress to non-terminal) across
  every crash, torn write, failover, and restart, and every durable
  completed checkpoint keeps its outcome;
- **hedge accounting** — no more hedge wins than hedges fired;
- **audit chain** — when ``audit_log_path`` is set, the sealed
  hash-chained event log verifies end to end
  (:func:`repro.obs.audit.verify_audit_log`).

The storm is one sequence of slots — a negotiation (through
:meth:`~repro.services.tn_client.TNClient.anegotiate`), then whichever
of burst, reap, kill drill and retraction drill fall due — written as
coroutines.  ``asyncio_mode`` only picks how they run: off, each slot
is awaited in turn on the base clock; on, waves of one slot per lane
run concurrently, each task on its own clock branch, so kill drills and
retractions land while sibling negotiations are mid-flight.  Each wave
starts at the previous wave's horizon (its latest branch), so
``elapsed_sim_ms`` is the storm's critical path.

Everything is seeded, and drill lanes are drawn before a wave runs, so
a single-service :class:`SoakConfig` always produces the same
:class:`SoakReport`.  In cluster mode that holds for a fresh process
only: ``StartNegotiation`` request ids come from a process-global
counter and decide shard placement, so a second run in the same
process routes — and storms — differently.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    CircuitOpenError,
    DeadlineExpiredError,
    ErrorCode,
    OverloadError,
    ReproError,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.hardening.config import HardeningConfig
from repro.hardening.fuzz import (
    FuzzOutcome,
    run_probe,
    session_probes,
    stateless_probes,
    terminal_probes,
)
from repro.obs import (
    ObsConfig,
    count as obs_count,
    disable as obs_disable,
    enable as obs_enable,
    event as obs_event,
)
from repro.obs.audit import verify_audit_log

__all__ = [
    "SoakConfig",
    "SoakReport",
    "InvariantViolation",
    "run_soak",
    "check_service_invariants",
]

#: Network fault kinds mixed into the soak (CRASH is exercised by the
#: dedicated recovery tests; a soak-length downtime would only measure
#: the timeout path thousands of times over).
_NETWORK_KINDS = (
    FaultKind.DROP, FaultKind.TIMEOUT, FaultKind.DUPLICATE,
    FaultKind.DB_FAIL,
)

_ADVERSARIAL_KINDS = (
    FaultKind.MALFORMED, FaultKind.TRUNCATED, FaultKind.OVERSIZED,
    FaultKind.REPLAYED, FaultKind.REORDERED, FaultKind.BYZANTINE,
)

#: Simulated duration of one injected SLOW fault — far above the
#: health policy's ``slow_after_ms`` so every slowed call is a strike.
_SLOW_MS = 4000.0
#: Health knobs of the cluster router: eject after 3 consecutive
#: strikes, responses over 2 s count as strikes, probe every 1 s.
_SLOW_AFTER_MS = 2000.0
_PROBE_INTERVAL_MS = 1000.0
#: Strike budget of the slow-shard drill: enough to eject the shard
#: (threshold 3) and keep a couple of probes failing before the fault
#: is spent and a probe re-admits it.
_SLOW_STRIKES = 6


@dataclass(frozen=True, kw_only=True)
class SoakConfig:
    """Knobs of one soak run.  Everything derives from ``seed``.

    Same config, same report — in cluster mode only across fresh
    processes (see the module docstring).  Invalid combinations raise
    :class:`ValueError` on construction.
    """

    seed: int = 7
    #: Legitimate negotiations to drive (the acceptance bar is 2000).
    negotiations: int = 2000
    #: Contract roles — also the number of distinct (requester,
    #: resource) pairs the negotiations cycle through.
    roles: int = 4
    #: Per-call strike probability of each adversarial fault kind.
    adversarial_probability: float = 0.04
    #: Per-call strike probability of each network fault kind.
    network_probability: float = 0.012
    #: Every Nth negotiation fires a low-priority admission burst
    #: (0 disables bursts).
    burst_every: int = 50
    #: Raw ``StartNegotiation`` probes per burst, sized to overrun the
    #: identification-priority shed threshold.
    burst_size: int = 48
    #: Every Nth negotiation is attempted by a Byzantine impostor —
    #: the victim's name and credential profile, but the wrong private
    #: key (0 disables impostors).
    byzantine_every: int = 97
    #: Every Nth negotiation runs a retraction drill: the requester's
    #: qualification credential is revoked through the trust bus
    #: between PolicyExchange and CredentialExchange, the exchange must
    #: not complete, and a fresh credential re-arms the lane
    #: (0 disables drills).
    retract_every: int = 0
    #: Every Nth negotiation runs the session TTL reaper (the final
    #: reap after the storm always runs).
    reap_every: int = 250
    #: Client-side deadline budget per logical call (simulated ms).
    deadline_ms: float = 60_000.0
    hardening: HardeningConfig = field(default_factory=HardeningConfig)
    #: TN shards behind the service URL (0 keeps the classic
    #: single-service soak; > 0 deploys a
    #: :class:`~repro.cluster.ShardedTNService` instead).
    cluster_shards: int = 0
    #: Every Nth negotiation runs a kill drill: a phase-split
    #: negotiation whose serving shard is killed between PolicyExchange
    #: and CredentialExchange, so the final phase must be served by the
    #: failover successor from the journalled checkpoint (0 disables;
    #: requires ``cluster_shards``).
    node_kill_every: int = 0
    #: Every Kth kill drill additionally tears the victim's final WAL
    #: record before the kill — recovery must discard the torn tail and
    #: resume from the previous checkpoint (0 disables tearing).
    torn_write_every_kill: int = 3
    #: Directory for per-shard WAL files (None journals in memory).
    wal_dir: Optional[str] = None
    #: Run each wave of one slot per lane as concurrent asyncio tasks,
    #: each on its own clock branch, instead of awaiting the slots one
    #: at a time on the base clock.
    asyncio_mode: bool = False
    #: Path of a hash-chained audit log.  When set, the soak enables
    #: the observability runtime with an
    #: :class:`~repro.obs.audit.AuditLogSink` for the duration of the
    #: run (replacing any runtime the caller had enabled), seals the
    #: final epoch at the end, and verifies the whole chain as an
    #: invariant.
    audit_log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.roles < 1:
            raise ValueError(f"roles must be >= 1, got {self.roles}")
        for name in (
            "negotiations", "burst_every", "burst_size", "byzantine_every",
            "retract_every", "reap_every", "cluster_shards",
            "node_kill_every", "torn_write_every_kill",
        ):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.node_kill_every > 0 and self.cluster_shards < 2:
            raise ValueError(
                f"node_kill_every={self.node_kill_every} needs a cluster "
                "to kill shards in: set cluster_shards >= 2 (got "
                f"{self.cluster_shards})"
            )


@dataclass(frozen=True)
class InvariantViolation:
    """One broken soak invariant."""

    invariant: str
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass
class SoakReport:
    """Counters and verdicts of one soak run; ``ok`` is the verdict."""

    seed: int
    negotiations: int
    successes: int = 0
    #: Failed-but-answered negotiations by failure reason.
    failures: dict[str, int] = field(default_factory=dict)
    #: Typed errors that surfaced to the driving client, by code.
    client_errors: dict[str, int] = field(default_factory=dict)
    #: Non-library exceptions that escaped to the driver.  Must be [].
    unhandled: list[str] = field(default_factory=list)
    byzantine_attempts: int = 0
    byzantine_successes: int = 0
    retraction_drills: int = 0
    #: Negotiations that completed after their credential was retracted
    #: mid-flight.  Must be 0 ("retraction-honored").
    stale_completions: int = 0
    bursts: int = 0
    burst_sheds: int = 0
    deadline_sheds: int = 0
    backpressure_waits: int = 0
    breaker_pauses: int = 0
    reaped: int = 0
    internal_errors: int = 0
    guard_validated: int = 0
    guard_rejected: int = 0
    guard_by_code: dict[str, int] = field(default_factory=dict)
    admission_offered: int = 0
    admission_admitted: int = 0
    admission_shed: int = 0
    admission_expired: int = 0
    #: Adversarial probes fired by the injector, per fault kind.
    probes_fired: dict[str, int] = field(default_factory=dict)
    probe_rejections: int = 0
    probe_anomalies: list[str] = field(default_factory=list)
    fuzz_probes: int = 0
    fuzz_failures: list[str] = field(default_factory=list)
    #: Cluster-mode recovery counters (all zero in the single-service
    #: soak).
    node_kills: int = 0
    node_restarts: int = 0
    failovers: int = 0
    sessions_recovered: int = 0
    wal_records: int = 0
    torn_records_discarded: int = 0
    #: Cluster-mode routing counters (all zero with fewer than two
    #: shards): hedged-start outcomes and health-router ejection traffic.
    hedges_fired: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    shard_ejections: int = 0
    shard_readmissions: int = 0
    health_probes: int = 0
    #: ``AuditReport.to_dict()`` of the audit-log verification, or
    #: None when no audit log was requested.
    audit: Optional[dict] = None
    elapsed_sim_ms: float = 0.0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unhandled

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "negotiations": self.negotiations,
            "successes": self.successes,
            "failures": dict(self.failures),
            "clientErrors": dict(self.client_errors),
            "unhandled": list(self.unhandled),
            "byzantineAttempts": self.byzantine_attempts,
            "byzantineSuccesses": self.byzantine_successes,
            "trust": {
                "retractionDrills": self.retraction_drills,
                "staleCompletions": self.stale_completions,
            },
            "bursts": self.bursts,
            "burstSheds": self.burst_sheds,
            "deadlineSheds": self.deadline_sheds,
            "backpressureWaits": self.backpressure_waits,
            "breakerPauses": self.breaker_pauses,
            "reaped": self.reaped,
            "internalErrors": self.internal_errors,
            "guard": {
                "validated": self.guard_validated,
                "rejected": self.guard_rejected,
                "byCode": dict(self.guard_by_code),
            },
            "admission": {
                "offered": self.admission_offered,
                "admitted": self.admission_admitted,
                "shed": self.admission_shed,
                "expired": self.admission_expired,
            },
            "probesFired": dict(self.probes_fired),
            "probeRejections": self.probe_rejections,
            "probeAnomalies": list(self.probe_anomalies),
            "fuzzProbes": self.fuzz_probes,
            "fuzzFailures": list(self.fuzz_failures),
            "cluster": {
                "nodeKills": self.node_kills,
                "nodeRestarts": self.node_restarts,
                "failovers": self.failovers,
                "sessionsRecovered": self.sessions_recovered,
                "walRecords": self.wal_records,
                "tornRecordsDiscarded": self.torn_records_discarded,
                "hedgesFired": self.hedges_fired,
                "hedgesWon": self.hedges_won,
                "hedgesCancelled": self.hedges_cancelled,
                "shardEjections": self.shard_ejections,
                "shardReadmissions": self.shard_readmissions,
                "healthProbes": self.health_probes,
            },
            "audit": self.audit,
            "elapsedSimMs": round(self.elapsed_sim_ms, 3),
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict}: {self.successes}/{self.negotiations} negotiations "
            f"succeeded under {sum(self.probes_fired.values())} adversarial "
            f"probes, {self.admission_shed} sheds, "
            f"{self.guard_rejected} guard rejections; "
            f"{len(self.violations)} invariant violations, "
            f"{len(self.unhandled)} unhandled exceptions"
        )


def _record(counts: dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


def _check_disclosure_safety(result, agents, violate) -> None:
    """No protected credential without a satisfied policy alternative.

    Checks CREDENTIAL-kind policy terms against the counterpart's
    disclosed credential *types*; alternatives carrying only concept or
    variable terms are resolved through the ontology layer and are out
    of this checker's scope (treated as satisfied).
    """
    from repro.policy.terms import TermKind

    requester = agents.get(result.requester)
    controller = agents.get(result.controller)
    if requester is None or controller is None:
        return
    sides = (
        (requester, result.disclosed_by_requester,
         controller, result.disclosed_by_controller),
        (controller, result.disclosed_by_controller,
         requester, result.disclosed_by_requester),
    )
    for discloser, disclosed_ids, counterpart, counterpart_ids in sides:
        counterpart_types = set()
        for cred_id in counterpart_ids:
            try:
                counterpart_types.add(
                    counterpart.profile.get(cred_id).cred_type
                )
            except ReproError:
                pass
        for cred_id in disclosed_ids:
            try:
                credential = discloser.profile.get(cred_id)
            except ReproError:
                violate(
                    "disclosure-safety",
                    f"{discloser.name} disclosed credential {cred_id!r} "
                    "absent from its own profile",
                )
                continue
            base = discloser.policies
            cred_type = credential.cred_type
            if (
                base.is_unprotected(cred_type)
                or base.is_freely_deliverable(cred_type)
            ):
                continue
            satisfied = False
            for policy in base.policies_for(cred_type):
                if policy.is_delivery:
                    satisfied = True
                    break
                credential_terms = [
                    term for term in policy.terms
                    if term.kind is TermKind.CREDENTIAL
                ]
                if not credential_terms:
                    satisfied = True  # concept/variable-only alternative
                    break
                if all(
                    term.name in counterpart_types
                    for term in credential_terms
                ):
                    satisfied = True
                    break
            if not satisfied:
                violate(
                    "disclosure-safety",
                    f"{discloser.name} disclosed {cred_id!r} "
                    f"({cred_type}, sensitivity "
                    f"{credential.sensitivity.name}) to "
                    f"{counterpart.name} for {result.resource!r} with no "
                    "satisfied policy alternative",
                )


def check_service_invariants(service, violate, cluster=None) -> None:
    """Service-level invariant checks shared by the chaos soak and the
    scenario engine.

    ``service`` is a :class:`~repro.services.tn_service.TNWebService`
    or a :class:`~repro.cluster.ShardedTNService`; ``violate`` is a
    ``(invariant, detail)`` callback invoked per broken promise.  Pass
    the cluster again as ``cluster`` to also run the cluster-only
    terminal-durability check.

    Covers:

    - **session terminality** — every session the service still holds
      ended in a terminal phase (completed or expired/reaped);
    - **terminal durability** (cluster only) — no durably-terminal
      session was lost or regressed across crash/failover/recovery,
      and no durable completed checkpoint lacks its outcome;
    - **admission reconciliation** — ``offered == admitted + shed +
      expired`` on the (aggregate) admission controller;
    - **exception hygiene** — the service wrapped zero internal errors.
    """
    for session_id, session in service.sessions().items():
        if not session.terminal:
            violate(
                "session-terminal",
                f"session {session_id!r} ended in phase "
                f"{session.phase!r} (requester "
                f"{session.requester_name!r})",
            )
    if cluster is not None:
        from repro.services.tn_service import TERMINAL_PHASES

        # Zero terminal sessions lost: every session whose *durable*
        # journal reached a terminal checkpoint must still exist, and
        # still be terminal, on some live shard after every crash,
        # failover, torn write, and restart of the run; a completed
        # one must keep its outcome in that checkpoint.
        final_sessions = service.sessions()
        for session_id, element in sorted(
            cluster.durable_sessions().items()
        ):
            phase = element.get("phase")
            if phase not in TERMINAL_PHASES:
                continue
            final = final_sessions.get(session_id)
            if final is None:
                violate(
                    "terminal-durability",
                    f"terminal session {session_id!r} was lost across "
                    "crash/recovery",
                )
            elif not final.terminal:
                violate(
                    "terminal-durability",
                    f"session {session_id!r} checkpointed terminal but "
                    f"recovered in phase {final.phase!r}",
                )
            elif phase == "exchange" and element.find("outcome") is None:
                violate(
                    "terminal-durability",
                    f"session {session_id!r} checkpointed complete "
                    "without its outcome",
                )
    if service.admission is not None and not service.admission.stats.reconciles:
        stats = service.admission.stats
        violate(
            "admission-reconciliation",
            f"offered {stats.offered} != admitted {stats.admitted} + "
            f"shed {stats.shed} + expired {stats.expired}",
        )
    if service.internal_errors:
        violate(
            "exception-hygiene",
            f"service wrapped {service.internal_errors} internal errors",
        )


def _run_fuzz_corpus(
    call: Callable[[str, object], object],
    config: SoakConfig,
    requester,
    resource: str,
    at,
) -> list[FuzzOutcome]:
    """Replay the whole corpus: stateless, then against a live session,
    then against the same session after it completed."""
    outcomes = [
        run_probe(call, probe)
        for probe in stateless_probes(config.hardening)
    ]
    start = call("StartNegotiation", {
        "requester": requester,
        "strategy": "standard",
        "counterpartUrl": f"urn:repro:{requester.name}",
        "requestId": f"soak-fuzz-{config.seed}",
    })
    session_id = start["negotiationId"]
    outcomes.extend(
        run_probe(call, probe) for probe in session_probes(session_id)
    )
    call("PolicyExchange", {
        "negotiationId": session_id, "resource": resource,
        "at": at, "clientSeq": 1,
    })
    call("CredentialExchange", {
        "negotiationId": session_id, "clientSeq": 2,
    })
    outcomes.extend(
        run_probe(call, probe)
        for probe in terminal_probes(session_id, resource)
    )
    return outcomes


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run the chaos soak and return its invariant report."""
    # Imported here so importing the soak does not load the event loop.
    import asyncio

    return asyncio.run(_soak(config or SoakConfig()))


async def _soak(config: SoakConfig) -> SoakReport:
    # Only the soak's running loop needs asyncio (``call`` and the waves).
    import asyncio

    # Imported here: the scenario/service layers import
    # ``repro.hardening.config`` at module load, so importing them at
    # this module's top level would close an import cycle.
    from repro.crypto.keys import KeyPair
    from repro.faults.injector import FaultInjector
    from repro.negotiation.agent import TrustXAgent
    from repro.negotiation.cache import SequenceCache
    from repro.scenario.workloads import _ISSUE, formation_workload
    from repro.services.resilience import ResilientTransport, RetryPolicy
    from repro.services.tn_client import TNClient
    from repro.services.transport import LatencyModel
    from repro.trust import TrustBus

    rng = random.Random(config.seed)
    report = SoakReport(seed=config.seed, negotiations=config.negotiations)

    if config.audit_log_path is not None:
        # The soak owns the observability runtime for the run: every
        # event lands in the hash-chained audit log, which is sealed
        # and verified as an invariant at the end.
        obs_enable(ObsConfig(audit_path=config.audit_log_path))

    # A compressed latency model: the soak measures invariants over
    # thousands of negotiations, not Fig. 9 absolute times, and the
    # admission bucket (drain_per_ms) is calibrated against it.
    fixture = formation_workload(config.roles, latency=LatencyModel(
        network_rtt_ms=1.0, soap_marshal_ms=0.5, service_dispatch_ms=0.5,
        db_connect_ms=2.0, db_read_ms=0.2, db_write_ms=0.3,
        crypto_sign_ms=0.5, crypto_verify_ms=0.2,
        ui_interaction_ms=4.0, mail_delivery_ms=3.0,
    ))
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    plan = FaultPlan(
        seed=config.seed, timeout_wait_ms=250.0, slow_ms=_SLOW_MS
    )
    sim = fixture.transport
    injector = FaultInjector(inner=sim, plan=plan)
    resilient = ResilientTransport(
        inner=injector,
        retry=RetryPolicy(jitter_seed=config.seed),
        deadline_ms=config.deadline_ms,
    )
    cluster = None
    multi = config.cluster_shards > 1
    if config.cluster_shards > 0:
        # Deploy the sharded cluster at the same URL the single
        # service would claim.  It forwards shard-bound traffic through
        # the *same* resilient transport, so router-to-shard hops get
        # retries and the injector can target one shard's URL (the
        # slow-shard drill); the storm additionally runs kill/restart
        # drills against it.
        from repro.cluster import HealthPolicy, HedgePolicy, ShardedTNService

        service = cluster = ShardedTNService(
            edition.initiator.agent,
            resilient,
            url="urn:vo:tn",
            shards=config.cluster_shards,
            cache=SequenceCache(),
            hardening=config.hardening,
            wal_dir=config.wal_dir,
            hedge=HedgePolicy() if multi else None,
            health=HealthPolicy(
                slow_after_ms=_SLOW_AFTER_MS,
                probe_interval_ms=_PROBE_INTERVAL_MS,
            ) if multi else None,
        )
    else:
        service = edition.enable_trust_negotiation(
            cache=SequenceCache(), hardening=config.hardening
        )
    clock = sim.base_clock
    started_ms = clock.elapsed_ms

    for kind in _ADVERSARIAL_KINDS:
        plan.randomly(kind, config.adversarial_probability, url=service.url)
    for kind in _NETWORK_KINDS:
        plan.randomly(kind, config.network_probability, url=service.url)
    if multi:
        # The slow-shard drill: shard 0 answers, but 4 s late, until
        # the strike budget is spent — ejection, failed probes, then
        # re-admission, all while hedges cover the tail.
        plan.always(
            FaultKind.SLOW, url=cluster.nodes()[0].url, limit=_SLOW_STRIKES
        )

    roles = list(fixture.contract.roles)
    lanes = []  # (client, agent, resource) per role
    for role in roles:
        member = fixture.member_apps[role.name].member
        lanes.append((
            TNClient(
                transport=resilient,
                service_url=service.url,
                agent=member.agent,
            ),
            member.agent,
            role.membership_resource(fixture.contract.vo_name),
        ))
    agents = {agent.name: agent for _, agent, _ in lanes}
    agents[edition.initiator.agent.name] = edition.initiator.agent
    trust_bus = TrustBus(registry=fixture.revocations)
    if cluster is not None:
        # Restores and failover adoptions resolve requesters here.
        cluster.agents.update(agents)
    at = fixture.contract.created_at

    # -- fuzz corpus first, against the unloaded service ----------------------
    raw_call = lambda op, payload: sim.call(service.url, op, payload)  # noqa: E731
    fuzz_outcomes = _run_fuzz_corpus(
        raw_call, config, lanes[0][1], lanes[0][2], at
    )
    report.fuzz_probes = len(fuzz_outcomes)
    report.fuzz_failures = [
        f"{outcome.name}: {outcome.anomaly}"
        for outcome in fuzz_outcomes if not outcome.ok
    ]

    # -- the storm ------------------------------------------------------------
    results = []

    def record_error(exc: ReproError) -> None:
        code = getattr(exc, "error_code", None)
        _record(
            report.client_errors,
            code.value if code else type(exc).__name__,
        )

    def record_result(result) -> None:
        if result.success:
            report.successes += 1
        else:
            reason = (
                result.failure_reason.value
                if result.failure_reason else "unknown"
            )
            _record(report.failures, reason)
        results.append(result)

    async def call(
        operation: str, payload: dict, transport=resilient
    ) -> dict:
        """One service call after yielding to the event loop, so sibling
        tasks interleave between protocol steps."""
        await asyncio.sleep(0)
        return transport.call(service.url, operation, payload)

    async def drive(client, resource: str) -> Optional[object]:
        """One negotiation; returns its result or None if it errored."""
        try:
            return await client.anegotiate(resource, at=at)
        except CircuitOpenError:
            # The breaker opened under a fault streak: wait out the
            # reset window in simulated time and give the endpoint its
            # (single) half-open probe instead of fast-failing the rest
            # of the soak.
            report.breaker_pauses += 1
            resilient.clock.advance(
                resilient.breaker_policy.reset_timeout_ms + 1.0
            )
            try:
                return await client.anegotiate(resource, at=at)
            except ReproError as exc:
                record_error(exc)
                return None
        except ReproError as exc:
            record_error(exc)
            return None

    async def negotiation(index: int) -> None:
        client, agent, resource = lanes[index % len(lanes)]
        byzantine = (
            config.byzantine_every > 0
            and (index + 1) % config.byzantine_every == 0
        )
        if byzantine:
            # The impostor presents the victim's name and stolen
            # credential profile but signs ownership proofs with its
            # own key: every disclosure it attempts must be rejected.
            report.byzantine_attempts += 1
            client = TNClient(
                transport=resilient,
                service_url=service.url,
                agent=TrustXAgent(
                    name=agent.name,
                    profile=agent.profile,
                    policies=agent.policies,
                    keypair=KeyPair.generate(512),
                    validator=agent.validator,
                    strategy=agent.strategy,
                ),
            )
        try:
            result = await drive(client, resource)
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            report.unhandled.append(
                f"negotiation {index}: {type(exc).__name__}: {exc}"
            )
            return
        if result is None:
            return
        if byzantine:
            if result.success:
                report.byzantine_successes += 1
        else:
            record_result(result)

    async def burst(index: int, lane) -> None:
        """A low-priority client floods StartNegotiation without
        retries; the first two probes carry an already-expired deadline
        so deadline shedding fires under load too."""
        report.bursts += 1
        for probe_index in range(config.burst_size):
            payload = {
                "requester": lane[1],
                "strategy": "standard",
                "counterpartUrl": "urn:repro:burst",
                "requestId": f"soak-burst-{index}-{probe_index}",
                "priority": "identification",
            }
            if probe_index < 2:
                payload["deadlineMs"] = sim.clock.elapsed_ms - 1.0
            try:
                await call("StartNegotiation", payload, transport=sim)
            except OverloadError:
                report.burst_sheds += 1
            except DeadlineExpiredError:
                report.deadline_sheds += 1
            except ReproError as exc:
                record_error(exc)
            except Exception as exc:  # noqa: BLE001
                report.unhandled.append(
                    f"burst {index}.{probe_index}: "
                    f"{type(exc).__name__}: {exc}"
                )

    async def kill_drill(index: int, lane) -> None:
        """A mid-negotiation shard kill: StartNegotiation and
        PolicyExchange land on one shard, that shard dies (every Kth
        drill with its final WAL record torn first), and the client's
        CredentialExchange must be completed by the failover successor
        from the journalled checkpoint.  In asyncio mode the kill also
        lands on sibling tasks' in-flight sessions on the victim."""
        _, agent, resource = lane
        try:
            start = await call("StartNegotiation", {
                "requester": agent,
                "strategy": "standard",
                "counterpartUrl": f"urn:repro:{agent.name}",
                "requestId": f"soak-kill-{index}",
            })
            negotiation_id = start.get("negotiationId")
            if not negotiation_id:
                _record(report.client_errors, "no-negotiation-id")
                return
            await call("PolicyExchange", {
                "negotiationId": negotiation_id, "resource": resource,
                "at": at, "clientSeq": 1,
            })
            victim = cluster.placement_index(negotiation_id)
            if victim is not None and len(cluster.live_nodes()) > 1:
                report.node_kills += 1
                if (
                    config.torn_write_every_kill > 0
                    and report.node_kills % config.torn_write_every_kill
                    == 0
                ):
                    # Damage the freshest checkpoint too: recovery must
                    # discard the torn record and fall back to the one
                    # before it.
                    cluster.tear_wal(victim)
                cluster.kill_node(victim)
            try:
                exchange = await call("CredentialExchange", {
                    "negotiationId": negotiation_id, "clientSeq": 2,
                })
            except ReproError:
                # The adopted checkpoint may predate PolicyExchange
                # (torn WAL record): replay the phase against the
                # successor.  Restored sessions accept the resync, and
                # the billing flags in the checkpoint keep the replay
                # idempotent.
                await call("PolicyExchange", {
                    "negotiationId": negotiation_id, "resource": resource,
                    "at": at, "clientSeq": 3,
                })
                exchange = await call("CredentialExchange", {
                    "negotiationId": negotiation_id, "clientSeq": 4,
                })
            result = exchange.get("result")
        except ReproError as exc:
            record_error(exc)
            return
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            report.unhandled.append(
                f"kill-drill {index}: {type(exc).__name__}: {exc}"
            )
            return
        if result is None or not hasattr(result, "success"):
            _record(report.client_errors, "no-result")
        else:
            record_result(result)

    async def retraction_drill(index: int, lane) -> None:
        """A mid-negotiation retraction: StartNegotiation and
        PolicyExchange run normally, then the requester's qualification
        credential is revoked through the trust bus — the
        CredentialExchange that follows must not complete on stale
        cached trust.  The lane is re-issued a fresh credential
        afterwards so later negotiations keep succeeding."""
        _, agent, resource = lane
        credential = next(iter(agent.profile), None)
        if credential is None:
            return
        report.retraction_drills += 1
        result = None
        revoked = False
        try:
            start = await call("StartNegotiation", {
                "requester": agent,
                "strategy": "standard",
                "counterpartUrl": f"urn:repro:{agent.name}",
                "requestId": f"soak-retract-{index}",
            })
            negotiation_id = start.get("negotiationId")
            if not negotiation_id:
                _record(report.client_errors, "no-negotiation-id")
                return
            await call("PolicyExchange", {
                "negotiationId": negotiation_id, "resource": resource,
                "at": at, "clientSeq": 1,
            })
            trust_bus.revoke(fixture.authority, credential)
            revoked = True
            exchange = await call("CredentialExchange", {
                "negotiationId": negotiation_id, "clientSeq": 2,
            })
            result = exchange.get("result")
        except ReproError as exc:
            record_error(exc)
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            report.unhandled.append(
                f"retraction-drill {index}: {type(exc).__name__}: {exc}"
            )
        finally:
            if revoked:
                # Re-arm the lane: the revoked qualification is
                # replaced by a fresh serial under the *same*
                # credential id, so later negotiations succeed again
                # (and disclosure records from earlier rounds still
                # resolve against the profile).
                fresh = fixture.authority.issue(
                    credential.cred_type, agent.name,
                    agent.keypair.fingerprint,
                    {a.name: a.value for a in credential.attributes},
                    _ISSUE, days=3650, sensitivity=credential.sensitivity,
                    cred_id=credential.cred_id,
                )
                agent.profile.remove(credential.cred_id)
                agent.profile.add(fresh)
        if result is not None and getattr(result, "success", False):
            report.stale_completions += 1
        elif result is not None:
            reason = (
                result.failure_reason.value
                if result.failure_reason else "unknown"
            )
            _record(report.failures, reason)

    async def slot(index: int, burst_lane, kill_lane, retract_lane) -> None:
        """Slot ``index`` of the storm: its negotiation, then whichever
        of burst, reap, kill drill and retraction drill fall due."""
        await negotiation(index)
        if burst_lane is not None:
            await burst(index, burst_lane)
        if config.reap_every > 0 and (index + 1) % config.reap_every == 0:
            report.reaped += service.reap_expired()
        if kill_lane is not None:
            await kill_drill(index, kill_lane)
        if retract_lane is not None:
            await retraction_drill(index, retract_lane)

    def drill_lane(every: int, index: int):
        if every > 0 and (index + 1) % every == 0:
            return lanes[rng.randrange(len(lanes))]
        return None

    # Drill lanes are drawn when a slot is built, in slot order, so the
    # seeded rng stream never depends on how tasks interleave.
    slots = (
        slot(
            index,
            drill_lane(config.burst_every, index),
            drill_lane(config.node_kill_every, index),
            drill_lane(config.retract_every, index),
        )
        for index in range(config.negotiations)
    )

    async def on_branch(pending) -> float:
        with resilient.clock_branch() as branch:
            await pending
        return branch.elapsed_ms

    if config.asyncio_mode:
        # Waves of one slot per lane run concurrently, each task on a
        # private clock branch.  The next wave starts at this one's
        # horizon (its latest branch), so the base clock follows the
        # critical path and time-based machinery — admission drain,
        # breaker resets, shard restarts — keeps moving.
        while wave := list(itertools.islice(slots, len(lanes))):
            ends = await asyncio.gather(
                *(on_branch(pending) for pending in wave)
            )
            clock.advance(max(0.0, max(ends) - clock.elapsed_ms))
    else:
        for pending in slots:
            await pending

    # -- drain: let every abandoned session age out ---------------------------
    if cluster is not None:
        # Revive any shard still down so its journalled sessions are
        # live for the final reap and the terminal-durability check.
        for node in cluster.nodes():
            if not node.live:
                cluster.restart_node(node.index)
    clock.advance(config.hardening.session_ttl_ms + 1.0)
    report.reaped += service.reap_expired()
    report.elapsed_sim_ms = clock.elapsed_ms - started_ms
    report.backpressure_waits = resilient.stats.backpressure_waits
    report.internal_errors = service.internal_errors
    if service.guard is not None:
        report.guard_validated = service.guard.stats.validated
        report.guard_rejected = service.guard.stats.rejected
        report.guard_by_code = dict(service.guard.stats.by_code)
    if service.admission is not None:
        stats = service.admission.stats
        report.admission_offered = stats.offered
        report.admission_admitted = stats.admitted
        report.admission_shed = stats.shed
        report.admission_expired = stats.expired
    report.probes_fired = {
        kind.value: count
        for kind, count in injector.injected.items()
        if kind.adversarial and count
    }
    report.probe_rejections = len(injector.probe_rejections)
    report.probe_anomalies = list(injector.probe_anomalies)
    if cluster is not None:
        report.node_kills = cluster.kills
        report.node_restarts = cluster.restarts
        report.failovers = cluster.failovers
        report.sessions_recovered = cluster.sessions_recovered
        report.wal_records = cluster.wal_records()
        report.torn_records_discarded = cluster.torn_records_discarded()
        report.hedges_fired = cluster.hedge_stats.fired
        report.hedges_won = cluster.hedge_stats.won
        report.hedges_cancelled = cluster.hedge_stats.cancelled
        if cluster.health is not None:
            report.shard_ejections = cluster.health.total_ejections()
            report.shard_readmissions = cluster.health.total_readmissions()
            report.health_probes = cluster.health_probes

    # -- invariants ------------------------------------------------------------
    def violate(invariant: str, detail: str) -> None:
        report.violations.append(InvariantViolation(invariant, detail))

    check_service_invariants(service, violate, cluster=cluster)
    for anomaly in injector.probe_anomalies:
        violate("probe-hygiene", anomaly)
    for line in report.fuzz_failures:
        violate("fuzz-corpus", line)
    if report.byzantine_successes:
        violate(
            "impostor-rejection",
            f"{report.byzantine_successes} Byzantine impostor "
            "negotiations succeeded",
        )
    if report.stale_completions:
        violate(
            "retraction-honored",
            f"{report.stale_completions} negotiations completed after "
            "their credential was retracted mid-negotiation",
        )
    if not report.successes:
        violate("liveness", "no negotiation succeeded during the soak")
    if report.hedges_won > report.hedges_fired:
        violate(
            "hedge-accounting",
            f"{report.hedges_won} hedge wins out of "
            f"{report.hedges_fired} fired",
        )
    for result in results:
        _check_disclosure_safety(result, agents, violate)

    obs_count("hardening.soak.runs")
    obs_event(
        "hardening.soak.report",
        clock=clock,
        ok=report.ok,
        negotiations=report.negotiations,
        successes=report.successes,
        violations=len(report.violations),
    )
    if cluster is not None:
        cluster.close()
    if config.audit_log_path is not None:
        obs_disable()  # seals the final audit epoch
        audit_report = verify_audit_log(config.audit_log_path)
        report.audit = audit_report.to_dict()
        if not audit_report.ok:
            violate("audit-chain", audit_report.summary())
    return report
