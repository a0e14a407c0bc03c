"""The four benchmark workloads and the repetition loop that times them.

Every workload is a closed loop with one client, built from the public
entry points (``InitiatorEdition``, ``negotiate``, ``CachingNegotiator``,
``TNClient`` over ``ShardedTNService``); ``tn-cluster`` adds an open
loop of Poisson arrivals.  The seed drives every random choice the
benchmark makes and never changes how much work an operation does, so
runs on different seeds measure the same work.  RSA keys come from one
fixed stream for every seed: how long a prime search runs depends on
the primes drawn, and that would otherwise move ``setup_s`` from seed
to seed.

A workload's ``step`` runs one operation, checks its outputs, and
returns the simulated milliseconds it charged (``None`` without a
simulated clock).  A wrong output is recorded in ``errors``; an
operation that raises a typed service error counts as failed and the
run goes on.
"""

from __future__ import annotations

import dataclasses
import os
import random
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Optional

__all__ = ["WORKLOADS", "SET_COUNTS", "run_repetition", "fig9_canary"]

#: Simulated ms of one serial 8-role formation on the default latency
#: model; any drift means something new charges the simulated clock.
FORMATION_ELAPSED_MS = 32064.0
ROLES = 8
ALTERNATIVES = 256
REQUESTERS = 64
SHARDS = 4
#: Before every RETRACT_EVERY-th ``tn-cluster`` operation one
#: requester's credential is revoked and reissued.
RETRACT_EVERY = 20
#: Fixed arrival rate of the ``tn-cluster`` open loop, about half the
#: closed-loop capacity measured on a 2-vCPU container.
OPEN_RATE_PER_S = 200.0
WARMUP_OPS = 3

#: Operations per repetition in a full set (``run``): about 5 s each.
#: ``tn-cluster`` is (closed-loop operations, open-loop arrivals).
SET_COUNTS: dict[str, tuple[int, int]] = {
    "vo-lifecycle": (150, 0),
    "policy-search": (1000, 0),
    "repeat-negotiation": (5000, 0),
    "tn-cluster": (2000, 1000),
}
WORKLOADS = tuple(SET_COUNTS)


class _SeededSecrets:
    """The two ``secrets`` calls prime generation makes, from a seeded
    stream, so every run builds the same keys."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def randbits(self, bits: int) -> int:
        return self._rng.getrandbits(bits)

    def randbelow(self, bound: int) -> int:
        return self._rng.randrange(bound)


@contextmanager
def _fixed_keygen():
    """Make RSA key generation draw from a fixed stream while the block
    runs."""
    import repro.crypto.numbers as module

    original = module.secrets
    module.secrets = _SeededSecrets(random.Random("e2e-keys"))
    try:
        yield
    finally:
        module.secrets = original


class _Workload:
    """Defaults shared by the workloads."""

    name = ""
    #: Boundaries that must record calls on this workload when traced.
    expected: frozenset = frozenset()
    #: Untimed work run before operation ``index``, if any.
    prepare = None

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.retract_ms: list[float] = []

    def counters(self) -> dict[str, int]:
        """Cumulative program counters, read through public accessors."""
        return {}

    def close(self) -> None:
        pass


class VOLifecycle(_Workload):
    """One long-lived 8-role population; each operation identifies a
    fresh VO, forms it serially, operates it, dissolves it, and closes
    its TN service.  Participation tickets pile up in the members'
    profiles as they would in a real long-lived population."""

    name = "vo-lifecycle"
    expected = frozenset({
        "vo.toolkit", "services.client", "services.transport",
        "services.tn", "storage.documents", "negotiation.engine",
        "negotiation.agent", "policy.compliance", "credentials.validate",
        "crypto.sign", "crypto.verify", "xmlutil.canonical",
    })

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.scenario.workloads import formation_workload

        super().__init__()
        self.fixture = formation_workload(ROLES)
        self.edition = self.fixture.initiator_edition

    def step(self, index: int) -> Optional[float]:
        fixture, edition = self.fixture, self.edition
        clock = fixture.transport.clock
        began_ms = clock.elapsed_ms
        contract = dataclasses.replace(
            fixture.contract, vo_name=f"{fixture.contract.vo_name}-{index}"
        )
        vo = edition.create_vo(contract)
        service = edition.enable_trust_negotiation(url=f"urn:vo:tn:{index}")
        try:
            outcome = edition.execute_formation(
                fixture.plans(), at=contract.created_at
            )
            vo.begin_operation()
            tickets = vo.dissolve()
        finally:
            service.close()
        if len(outcome.joined) != ROLES:
            self.errors.append(
                f"op {index}: joined {len(outcome.joined)}/{ROLES}"
            )
        if outcome.elapsed_ms != FORMATION_ELAPSED_MS:
            self.errors.append(
                f"op {index}: formation took {outcome.elapsed_ms} simulated "
                f"ms, expected {FORMATION_ELAPSED_MS}"
            )
        for role, join in outcome.outcomes.items():
            if join.negotiation is None or not join.negotiation.success:
                self.errors.append(f"op {index}: negotiation for {role} failed")
        if len(tickets) != ROLES:
            self.errors.append(
                f"op {index}: dissolve issued {len(tickets)} tickets"
            )
        return clock.elapsed_ms - began_ms


class PolicySearch(_Workload):
    """``negotiate()`` on a bushy-256 pair: the full two-phase tree
    search every time, no sequence cache, perf caches at defaults."""

    name = "policy-search"
    expected = frozenset({
        "negotiation.engine", "negotiation.agent", "policy.compliance",
        "credentials.validate", "crypto.sign", "crypto.verify",
        "xmlutil.canonical", "xmlutil.xpath",
    })

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.scenario.workloads import bushy_workload

        super().__init__()
        self.fixture = bushy_workload(ALTERNATIVES)

    def _negotiate(self):
        from repro.negotiation.engine import negotiate

        fixture = self.fixture
        return negotiate(
            fixture.requester, fixture.controller, fixture.resource,
            at=fixture.negotiation_time(),
        )

    def step(self, index: int) -> Optional[float]:
        result = self._negotiate()
        if not result.success:
            self.errors.append(f"op {index}: {result.summary()}")
        return None


class RepeatNegotiation(PolicySearch):
    """``CachingNegotiator`` on the same bushy-256 pair: after the first
    negotiation every operation replays the cached trust sequence."""

    name = "repeat-negotiation"
    expected = frozenset({
        "negotiation.sequence_cache", "negotiation.agent",
        "credentials.validate", "crypto.sign", "crypto.verify",
        "xmlutil.canonical", "xmlutil.xpath",
    })

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.negotiation.cache import CachingNegotiator

        super().__init__(seed, work_dir)
        self.negotiator = CachingNegotiator()

    def _negotiate(self):
        fixture = self.fixture
        return self.negotiator.negotiate(
            fixture.requester, fixture.controller, fixture.resource,
            at=fixture.negotiation_time(),
        )

    def counters(self) -> dict[str, int]:
        stats = self.negotiator.cache.stats()
        return {"sequence_hits": stats["hits"], "sequence_misses": stats["misses"]}


class TNCluster(_Workload):
    """64 requesters drive ``TNClient`` -> ``ResilienceConfig().wrap``
    -> a 4-shard ``ShardedTNService`` with a WAL, hardening and a
    sequence cache.  Before every 20th operation one requester's
    credential is revoked through ``TrustBus.revoke`` and reissued."""

    name = "tn-cluster"
    expected = frozenset({
        "services.client", "services.resilience", "services.transport",
        "cluster.router", "services.tn", "hardening.guard",
        "hardening.admission", "storage.wal", "negotiation.engine",
        "negotiation.sequence_cache", "negotiation.agent",
        "policy.compliance", "credentials.validate", "crypto.sign",
        "crypto.verify", "xmlutil.canonical", "trust.retract",
    })

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.api import ResilienceConfig
        from repro.cluster import ShardedTNService
        from repro.hardening.config import HardeningConfig
        from repro.negotiation.cache import SequenceCache
        from repro.scenario.workloads import capacity_workload
        from repro.services.tn_client import TNClient
        from repro.services.transport import SimTransport
        from repro.trust import TrustBus

        super().__init__()
        self.fixture = fixture = capacity_workload(REQUESTERS)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=work_dir)
        self.transport = SimTransport()
        self.resilient = ResilienceConfig(jitter_seed=seed).wrap(self.transport)
        self.cluster = ShardedTNService(
            fixture.controller, self.transport, url="urn:vo:tn",
            shards=SHARDS,
            agents={agent.name: agent for agent in fixture.requesters},
            cache=SequenceCache(), hardening=HardeningConfig(),
            wal_dir=self.wal_dir,
        )
        self.clients = [
            TNClient(
                transport=self.resilient, service_url=self.cluster.url,
                agent=agent,
            )
            for agent in fixture.requesters
        ]
        self.bus = TrustBus(registry=fixture.revocations)
        self.picks = random.Random(f"{seed}:requesters")
        self.victims = random.Random(f"{seed}:retractions")
        self.retractions = 0
        self.evicted = 0
        #: cred_id -> (issuer, serial) of every credential ever held,
        #: so a disclosure can be checked after its credential is gone.
        self.serials = {
            credential.cred_id: (credential.issuer, credential.serial)
            for agent in [fixture.controller, *fixture.requesters]
            for credential in agent.profile
        }

    def prepare(self, index: int) -> None:
        """Revoke and reissue one requester's credential before every
        RETRACT_EVERY-th operation: a write beside the reads."""
        from repro.scenario.workloads import _ISSUE

        if index % RETRACT_EVERY != RETRACT_EVERY - 1:
            return
        fixture = self.fixture
        agent = fixture.requesters[self.victims.randrange(REQUESTERS)]
        (old,) = agent.profile.by_type("MemberQual")
        began = time.perf_counter()
        receipt = self.bus.revoke(fixture.authority, old)
        self.retract_ms.append((time.perf_counter() - began) * 1e3)
        self.retractions += 1
        self.evicted += receipt.evicted_signatures + receipt.evicted_sequences
        agent.profile.remove(old.cred_id)
        new = fixture.authority.issue(
            old.cred_type, agent.name, agent.keypair.fingerprint,
            {"holder": agent.name, "level": 0}, _ISSUE, days=3650,
        )
        agent.profile.add(new)
        self.serials[new.cred_id] = (new.issuer, new.serial)

    def step(self, index: int) -> Optional[float]:
        client = self.clients[self.picks.randrange(REQUESTERS)]
        clock = self.transport.clock
        began_ms = clock.elapsed_ms
        result = client.negotiate(
            self.fixture.resource, at=self.fixture.negotiation_time()
        )
        if not result.success:
            self.errors.append(f"op {index}: {result.summary()}")
        registry = self.fixture.revocations
        for cred_id in (
            *result.disclosed_by_requester, *result.disclosed_by_controller
        ):
            issuer, serial = self.serials[cred_id]
            if registry.is_revoked(issuer, serial):
                self.errors.append(
                    f"op {index}: accepted revoked credential {cred_id}"
                )
        return clock.elapsed_ms - began_ms

    def counters(self) -> dict[str, int]:
        cache = self.cluster.cache.stats()
        guard = self.cluster.guard.stats
        admission = self.cluster.admission.stats
        stats = self.resilient.stats
        stores = [node.session_store for node in self.cluster.nodes()]
        return {
            "sequence_hits": cache["hits"],
            "sequence_misses": cache["misses"],
            "resilience_calls": stats.calls,
            "resilience_attempts": stats.attempts,
            "admission_offered": admission.offered,
            "admission_shed": admission.shed,
            "guard_validated": guard.validated,
            "guard_rejected": guard.rejected,
            "wal_records": sum(store.records() for store in stores),
            "wal_bytes": sum(
                os.path.getsize(store.path)
                for store in stores if os.path.exists(store.path)
            ),
            "retractions": self.retractions,
            "evicted": self.evicted,
        }

    def close(self) -> None:
        self.cluster.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


_CLASSES = {cls.name: cls for cls in (
    VOLifecycle, PolicySearch, RepeatNegotiation, TNCluster,
)}


def _perf_counts() -> dict[str, int]:
    from repro.perf import all_stats

    counts = {}
    for name, stats in all_stats().items():
        counts[f"perf.{name}.hits"] = stats.hits
        counts[f"perf.{name}.misses"] = stats.misses
    return counts


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def run_repetition(
    workload: str,
    seed: int,
    work_dir: str,
    started: float,
    ops: Optional[int] = None,
    open_ops: Optional[int] = None,
    seconds: Optional[float] = None,
    tracer=None,
) -> dict:
    """Build ``workload``, warm it up, and time its operations.

    Stops after ``ops`` closed-loop operations (plus ``open_ops``
    open-loop arrivals on ``tn-cluster``) or once ``seconds`` have been
    measured, whichever comes first; ``tn-cluster`` gives half of
    ``seconds`` to each loop.  ``started`` is the ``perf_counter`` at
    process start, so ``setup_s`` includes importing the program.
    """
    with _fixed_keygen():
        bench = _CLASSES[workload](seed, work_dir)
        try:
            return _measure(
                bench, seed, started, ops, open_ops, seconds, tracer
            )
        finally:
            bench.close()


def _measure(bench, seed, started, ops, open_ops, seconds, tracer) -> dict:
    from repro.errors import ServiceError

    for index in range(WARMUP_OPS):
        bench.step(-1 - index)
    setup_s = time.perf_counter() - started
    step, prepare = bench.step, bench.prepare
    if tracer is not None:
        step = tracer.driver(step)
        if prepare is not None:
            prepare = tracer.driver(prepare)
    has_open_loop = bench.name == "tn-cluster"
    closed_seconds = seconds / 2 if seconds and has_open_loop else seconds
    before = {**_perf_counts(), **bench.counters()}
    latencies: list[float] = []
    sim_ms: list[float] = []
    failed = 0

    def begin(index: int) -> None:
        if tracer is not None:
            tracer.begin_op(index)
        if prepare is not None:
            prepare(index)

    def attempt(index: int) -> None:
        nonlocal failed
        try:
            charged = step(index)
        except ServiceError:
            failed += 1
            return
        if charged is not None:
            sim_ms.append(charged)

    loop_began = time.perf_counter()
    deadline = loop_began + closed_seconds if closed_seconds else None
    index = 0
    while ops is None or index < ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        begin(index)
        began = time.perf_counter()
        attempt(index)
        latencies.append((time.perf_counter() - began) * 1e3)
        index += 1
    closed_wall = time.perf_counter() - loop_began
    closed_ops = index

    open_latencies: list[float] = []
    open_late: list[float] = []
    slept = 0.0
    if has_open_loop and (open_ops is not None or seconds):
        arrivals = random.Random(f"{seed}:arrivals")
        phase_began = time.perf_counter()
        horizon = seconds / 2 if seconds else None
        offset = 0.0
        while open_ops is None or index - closed_ops < open_ops:
            offset += arrivals.expovariate(OPEN_RATE_PER_S)
            if horizon is not None and offset >= horizon:
                break
            due = phase_began + offset
            begin(index)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
                slept += wait
            began = time.perf_counter()
            attempt(index)
            open_latencies.append((time.perf_counter() - due) * 1e3)
            open_late.append((began - due) * 1e3)
            index += 1
    loop_wall = time.perf_counter() - loop_began

    counters = _delta({**_perf_counts(), **bench.counters()}, before)
    record = {
        "workload": bench.name,
        "seed": seed,
        "setup_s": setup_s,
        "ops": closed_ops,
        "open_ops": index - closed_ops,
        "failed": failed,
        "closed_wall_s": closed_wall,
        "busy_wall_s": loop_wall - slept,
        "latencies_ms": latencies,
        "open_latencies_ms": open_latencies,
        "open_late_ms": open_late,
        "retract_ms": bench.retract_ms,
        "sim_ms": sim_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": counters,
        "errors": bench.errors[:20],
        "error_count": len(bench.errors),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_totals()
        record["expected"] = sorted(bench.expected)
    return record


def fig9_canary() -> tuple[float, float]:
    """Simulated ms of the paper's Fig. 9 join, with and without TN."""
    from repro.scenario import build_aircraft_scenario
    from repro.scenario.aircraft import ROLE_DESIGN_PORTAL

    def join(with_negotiation: bool) -> float:
        scenario = build_aircraft_scenario()
        edition = scenario.initiator_edition
        edition.create_vo(scenario.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=with_negotiation,
        )
        return outcome.elapsed_ms

    return join(True), join(False)
