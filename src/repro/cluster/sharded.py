"""N TN shards behind one URL, with failover and session migration.

Topology (simulated, same process)::

    client ── urn:vo:tn ──> ShardedTNService.handle
                               │ consistent hash / placement map
                               ├─> urn:vo:tn:s0  TNWebService (+ WAL)
                               ├─> urn:vo:tn:s1  TNWebService (+ WAL)
                               └─> urn:vo:tn:s2  TNWebService (+ WAL)

Routing: ``StartNegotiation`` hashes its idempotency key (``requestId``
when present, else the requester name) onto the ring; the shard that
answers mints the negotiation id in its own namespace (``tn-s{index}-``),
and the phase operations follow that prefix.  The placement map records
only the sessions that failover or migration moved off their minting
shard.  Forwarding goes through whatever transport the router was built
on — stack it on a :class:`~repro.faults.injector.FaultInjector` and
shard hops become faultable calls like any other.

Failover: a forward that fails with a transport-level error (endpoint
down, response lost) declares the shard dead, replays its durable
session journal into the ring successor via
:meth:`TNWebService.adopt_session`, re-points the placements, and
retries the in-flight call there — the client sees one slow call, not
a failed negotiation.  Dead shards restart after ``restart_after_ms``
of simulated time (or explicitly via :meth:`restart_node`), recovering
from their journal whatever was *not* migrated away while they were
down.

Hedged starts: with a :class:`HedgePolicy`, a ``StartNegotiation``
whose primary shard has not answered within the hedge delay (a fixed
``delay_ms`` or an adaptive percentile of recent start latencies) fires
a second identical attempt at the ring-successor shard, and the faster
success wins.  This is safe because of the protocol's idempotency
machinery:

- both racers carry the same ``requestId``, so each shard's replay
  dedup makes the race harmless *within* a shard;
- the loser's freshly-minted session is **cancelled** — released from
  its shard (dropping its dedup entry with it) so exactly one session
  commit survives the race;
- a client *retry* of a hedged start would route by hash back to the
  losing shard and mint a fresh duplicate, so the router's bounded
  start-replay map (:data:`_START_REPLAY_DEPTH`) answers retries with
  the winning negotiation id and rejects tampered reuse of the token
  with ``REPLAY_MISMATCH``.

Only ``StartNegotiation`` is hedged.  Phase operations mutate pinned
session state; racing them against a copy of the session on another
shard would let the loser's state diverge mid-negotiation.  The race
runs on forked clock branches (simulated time): both legs execute to
completion one after the other, the winner's latency is charged to the
caller's timeline, and the loser is released after the fact.  The
loser's *transport charges* still count, exactly like a real hedge
pays for the work it cancels.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional
from xml.etree import ElementTree as ET

from repro.cluster.health import HealthPolicy, HealthTracker
from repro.cluster.ring import HashRing
from repro.crypto.digest import sha256
from repro.errors import (
    ErrorCode,
    OverloadError,
    ReproError,
    ServiceError,
    TransportError,
)
from repro.hardening.admission import AdmissionStats
from repro.hardening.config import HardeningConfig
from repro.hardening.guard import GuardStats
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.cache import SequenceCache
from repro.negotiation.strategies import Strategy
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    gauge as obs_gauge,
)
from repro.services.resilience import TRANSIENT_ERRORS
from repro.services.tn_service import NegotiationSession, TNWebService
from repro.storage.document_store import XMLDocumentStore
from repro.storage.session_store import (
    InMemorySessionStore,
    SessionStore,
    WALSessionStore,
)

__all__ = ["HedgePolicy", "HedgeStats", "ShardedTNService", "ShardNode"]

#: Bounded ``requestId -> recorded start`` replay map on the router.
#: Route-by-hash is not stable across a negotiation's lifetime — a
#: shard can die, get ejected by the health tracker, or lose a hedge
#: race and release its freshly-minted session — so a *retry* of a
#: remembered ``StartNegotiation`` token is answered here, with the
#: negotiation id that actually won, instead of being re-routed to a
#: shard that may no longer hold the dedup entry (which would mint a
#: duplicate session, or accept a tampered reuse of the token).  The
#: oldest token leaves first; its retries then go to the shard again.
_START_REPLAY_DEPTH = 1024

#: Recent successful start latencies kept for the adaptive hedge delay.
_HEDGE_SAMPLE_DEPTH = 128


class _StartRecord(NamedTuple):
    """What the router keeps of one remembered ``StartNegotiation``.

    ``fingerprint`` is the digest of every payload field except the
    requester (:meth:`ShardedTNService._start_fingerprint`).  A start
    response carries only the negotiation id, so a faithful retry is
    answered with a fresh response built from ``negotiation_id``.
    """

    requester: Optional[str]
    strategy: Strategy
    fingerprint: bytes
    negotiation_id: str


@dataclass(frozen=True, kw_only=True)
class HedgePolicy:
    """When to fire a second ``StartNegotiation`` at the successor."""

    #: Fixed hedge delay in simulated ms; ``None`` adapts to the
    #: ``percentile`` of recent start latencies.
    delay_ms: Optional[float] = None
    #: Latency percentile after which the hedge fires (adaptive mode).
    percentile: float = 0.95
    #: Starts observed before the adaptive delay kicks in.
    min_samples: int = 20
    #: Delay used until enough samples exist.
    initial_delay_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.delay_ms is not None and self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(
                f"percentile must be in (0, 1), got {self.percentile}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.initial_delay_ms < 0:
            raise ValueError(
                f"initial_delay_ms must be >= 0, got "
                f"{self.initial_delay_ms}"
            )

    def current_delay(self, samples) -> float:
        """The hedge delay given recent successful start latencies."""
        if self.delay_ms is not None:
            return self.delay_ms
        if len(samples) < self.min_samples:
            return self.initial_delay_ms
        ordered = sorted(samples)
        rank = min(len(ordered) - 1, int(self.percentile * len(ordered)))
        return ordered[rank]


@dataclass
class HedgeStats:
    #: Starts that were eligible for hedging (policy set, requestId
    #: present, >= 2 live shards).
    considered: int = 0
    #: Hedges actually fired (primary slower than the delay).
    fired: int = 0
    #: Races the hedge leg won.
    won: int = 0
    #: Loser sessions released (both legs committed; one cancelled).
    cancelled: int = 0


@dataclass
class ShardNode:
    """One shard: its service, stores, and liveness bookkeeping."""

    index: int
    url: str
    store: XMLDocumentStore
    session_store: SessionStore
    service: Optional[TNWebService] = None
    live: bool = True
    restart_at_ms: Optional[float] = None
    kills: int = 0
    restarts: int = 0
    #: Counters harvested from service generations that have died.
    internal_errors_accum: int = 0
    guard_accum: GuardStats = field(default_factory=GuardStats)
    admission_accum: AdmissionStats = field(default_factory=AdmissionStats)


class _AggregateView:
    """Duck-types the ``.stats`` attribute of a guard/admission
    controller with cluster-wide totals."""

    def __init__(self, stats) -> None:
        self.stats = stats


class ShardedTNService:
    """Consistent-hash session router over N TN shards."""

    def __init__(
        self,
        owner: TrustXAgent,
        transport,
        url: str = "urn:vo:tn",
        shards: int = 3,
        agents: Optional[dict[str, TrustXAgent]] = None,
        cache: Optional[SequenceCache] = None,
        hardening: Optional[HardeningConfig] = None,
        wal_dir: Optional[str] = None,
        restart_after_ms: float = 2000.0,
        replicas: int = 32,
        max_in_flight: Optional[int] = None,
        health: Optional[HealthPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"cluster needs >= 1 shard, got {shards}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ServiceError(
                f"cluster max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.owner = owner
        self.transport = transport
        self.url = url
        self.cache = cache
        self.hardening = hardening
        self.restart_after_ms = restart_after_ms
        #: Requester-name -> agent map consulted when sessions are
        #: restored or adopted; mutable so late-registered requesters
        #: still resume deterministically.
        self.agents: dict[str, TrustXAgent] = dict(agents or {})
        #: Cluster-level shed policy: when the aggregate number of
        #: in-flight sessions across live shards reaches this cap, the
        #: router refuses new ``StartNegotiation`` traffic with a
        #: backpressure hint instead of piling work onto per-shard
        #: queues (None disables).
        self.max_in_flight = max_in_flight
        #: Health-aware routing: when a policy is set, shards with too
        #: many consecutive strikes (failures, or slow responses when
        #: ``slow_after_ms`` is set) are ejected from *new-session*
        #: routing and half-open probed back in; pinned sessions stay
        #: put.  ``None`` keeps the legacy route-by-hash behavior.
        self.health_policy = health
        self.health: Optional[HealthTracker] = (
            HealthTracker(health) if health is not None else None
        )
        self.health_probes = 0
        #: Hedged ``StartNegotiation`` (``None`` disables hedging).
        self.hedge_policy = hedge
        self.hedge_stats = HedgeStats()
        self._hedge_samples: deque = deque(maxlen=_HEDGE_SAMPLE_DEPTH)
        self.cluster_sheds = 0
        self.failovers = 0
        self.kills = 0
        self.restarts = 0
        self.migrations = 0
        self.sessions_recovered = 0
        #: negotiationId -> shard, for moved sessions only; every other
        #: session lives on the shard its id prefix names.
        self._placements: dict[str, int] = {}
        self._start_replays: dict[str, _StartRecord] = {}  # by requestId
        #: Starts answered from the router's replay map.
        self.start_replays = 0
        self._nodes: list[ShardNode] = []
        for index in range(shards):
            shard_url = f"{url}:s{index}"
            if wal_dir is not None:
                session_store: SessionStore = WALSessionStore(
                    os.path.join(wal_dir, f"shard-{index}.wal")
                )
            else:
                session_store = InMemorySessionStore(f"shard-{index}")
            store = XMLDocumentStore(f"tn-shard-{index}")
            node = ShardNode(
                index=index, url=shard_url, store=store,
                session_store=session_store,
            )
            node.service = self._build_service(node)
            self._nodes.append(node)
        self.ring = HashRing(
            (node.url for node in self._nodes), replicas=replicas
        )
        self._closed = False
        transport.bind(url, self.handle)

    def _build_service(self, node: ShardNode) -> TNWebService:
        return TNWebService(
            self.owner, self.transport, node.store, node.url,
            cache=self.cache, hardening=self.hardening,
            session_store=node.session_store,
            node_id=f"tn-s{node.index}",
        )

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        for node in self._nodes:
            if node.live and node.service is not None:
                node.service.close()
            node.session_store.close()
        self.transport.unbind(self.url)
        self._closed = True

    def __enter__(self) -> "ShardedTNService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- node liveness -------------------------------------------------------------

    def nodes(self) -> list[ShardNode]:
        return list(self._nodes)

    def live_nodes(self) -> list[ShardNode]:
        return [node for node in self._nodes if node.live]

    def kill_node(self, index: int,
                  restart_after_ms: Optional[float] = None) -> None:
        """Declare shard ``index`` dead: volatile sessions are lost,
        its URL leaves the ring, and a restart is scheduled."""
        node = self._nodes[index]
        if not node.live:
            return
        node.live = False
        node.kills += 1
        self.kills += 1
        self.ring.remove(node.url)
        delay = (
            self.restart_after_ms if restart_after_ms is None
            else restart_after_ms
        )
        node.restart_at_ms = self.transport.clock.elapsed_ms + delay
        service = node.service
        if service is not None:
            self._harvest_counters(node, service)
            if not service.closed:
                service.crash()
        if obs_enabled():
            obs_event(
                "cluster.node_kill",
                clock=self.transport.clock,
                shard=node.url,
            )

    def restart_node(self, index: int) -> Optional[TNWebService]:
        """Revive shard ``index`` from its durable journal.

        Sessions that failed over to another shard while this node was
        down stay where they are (the placement map owns them); the
        restarted node recovers only what it still owns."""
        node = self._nodes[index]
        if node.live:
            return node.service
        service = TNWebService.restore(
            self.owner, self.transport, node.store, node.url,
            agents=self.agents, cache=self.cache, hardening=self.hardening,
            session_store=node.session_store,
            node_id=f"tn-s{node.index}",
        )
        recovered = 0
        for session_id in service.session_ids():
            if self.placement_index(session_id) not in (None, index):
                service.release_session(session_id)
            else:
                recovered += 1
        node.service = service
        node.live = True
        node.restart_at_ms = None
        node.restarts += 1
        self.restarts += 1
        self.sessions_recovered += recovered
        self.ring.add(node.url)
        if obs_enabled():
            obs_event(
                "cluster.node_restart",
                clock=self.transport.clock,
                shard=node.url,
                recovered=recovered,
            )
        return service

    def tear_wal(self, index: int) -> bool:
        """Damage the final WAL record of shard ``index`` (torn
        write); the next recovery must discard it."""
        return self._nodes[index].session_store.tear_last_record()

    def _revive_due(self) -> None:
        now = self.transport.clock.elapsed_ms
        for node in self._nodes:
            if (
                not node.live
                and node.restart_at_ms is not None
                and now >= node.restart_at_ms
            ):
                self.restart_node(node.index)

    def _harvest_counters(self, node: ShardNode,
                          service: TNWebService) -> None:
        node.internal_errors_accum += service.internal_errors
        if service.guard is not None:
            stats = service.guard.stats
            node.guard_accum.validated += stats.validated
            node.guard_accum.rejected += stats.rejected
            for code, count in stats.by_code.items():
                node.guard_accum.by_code[code] = (
                    node.guard_accum.by_code.get(code, 0) + count
                )
        if service.admission is not None:
            stats = service.admission.stats
            node.admission_accum.offered += stats.offered
            node.admission_accum.admitted += stats.admitted
            node.admission_accum.shed += stats.shed
            node.admission_accum.expired += stats.expired
            for key, count in stats.shed_by_priority.items():
                node.admission_accum.shed_by_priority[key] = (
                    node.admission_accum.shed_by_priority.get(key, 0)
                    + count
                )

    # -- routing -------------------------------------------------------------------

    def handle(self, operation: str, payload: dict) -> dict:
        if self._closed:
            raise TransportError(
                f"TN cluster at {self.url!r} is closed"
            )
        self._revive_due()
        self._probe_ejected()
        if operation == "StartNegotiation":
            requester = payload.get("requester") if isinstance(
                payload, dict
            ) else None
            request_key = ""
            if isinstance(payload, dict):
                request_key = str(payload.get("requestId") or "")
            # A retried start whose original race was won by the hedge
            # (or whose shard was since ejected or killed): route-by-
            # hash would hit a shard that no longer holds the dedup
            # entry, so the router answers faithful retries itself and
            # rejects tampered token reuse (REPLAY_MISMATCH).
            replayed = self._replayed_start(request_key, payload)
            if replayed is not None:
                return replayed
            self._shed_if_saturated()
            key = request_key or getattr(requester, "name", "") or "anonymous"
            node = self._node_for_key(key)
            if self._should_hedge(request_key):
                response, _ = self._hedged_start(node, key, payload)
            else:
                response, _ = self._forward(node, operation, payload)
            if isinstance(response, dict) and response.get("negotiationId"):
                self._remember_start(
                    request_key, payload, response["negotiationId"]
                )
            return response
        negotiation_id = ""
        if isinstance(payload, dict):
            negotiation_id = str(payload.get("negotiationId") or "")
        node = self._node_for_session(negotiation_id)
        response, _ = self._forward(node, operation, payload)
        return response

    @property
    def sessions_in_flight(self) -> int:
        """Aggregate live (non-terminal) sessions across live shards."""
        return sum(
            node.service.sessions_in_flight
            for node in self._nodes
            if node.live and node.service is not None
        )

    def _shed_if_saturated(self) -> None:
        """Cluster-level admission: refuse new negotiations once the
        aggregate in-flight count reaches ``max_in_flight``.

        This sits *above* the per-shard :class:`AdmissionController`s —
        they bound each shard's queue, this bounds the fleet — and uses
        the same backpressure contract (:class:`OverloadError` with a
        ``retry_after_ms`` hint that :class:`ResilientTransport` honors
        without tripping its breaker)."""
        cap = self.max_in_flight
        if cap is None:
            return
        in_flight = self.sessions_in_flight
        if in_flight < cap:
            return
        self.cluster_sheds += 1
        drain_per_ms = (
            self.hardening.drain_per_ms if self.hardening is not None
            else 0.05
        )
        live = max(1, len(self.live_nodes()))
        excess = in_flight - cap + 1
        retry_after_ms = excess / (drain_per_ms * live)
        if obs_enabled():
            obs_event(
                "cluster.shed",
                clock=self.transport.clock,
                in_flight=in_flight,
                cap=cap,
            )
        raise OverloadError(
            f"cluster at {self.url!r} is saturated: {in_flight} sessions "
            f"in flight >= cap {cap}",
            retry_after_ms=retry_after_ms,
        )

    @staticmethod
    def _start_fingerprint(payload: dict) -> bytes:
        """Order-insensitive digest of a start payload's fields.

        The requester agent reference is matched by name (object
        identity would reject a faithful retry built from a restored
        agent); every other field must repeat verbatim, so the digest
        covers each one's name and ``repr``."""
        fields = tuple(
            (name, repr(payload[name]))
            for name in sorted(payload)
            if name != "requester"
        )
        return sha256(repr(fields).encode("utf-8")).digest()

    def _remember_start(self, key: str, payload: dict,
                        negotiation_id: str) -> None:
        """Record a successful tokened ``StartNegotiation`` so retries
        of the token are answered consistently even after route-by-hash
        has shifted (see :data:`_START_REPLAY_DEPTH`)."""
        if not key:
            return
        if len(self._start_replays) >= _START_REPLAY_DEPTH:
            self._start_replays.pop(next(iter(self._start_replays)))
        self._start_replays[key] = _StartRecord(
            getattr(payload.get("requester"), "name", None),
            Strategy.parse(payload.get("strategy", "standard")),
            self._start_fingerprint(payload),
            negotiation_id,
        )

    def _replayed_start(self, key: str,
                        payload: dict) -> Optional[dict]:
        """Answer a retried start token, policing reuse.

        Returns the recorded negotiation id for a faithful retry,
        ``None`` for an unknown token, and rejects the same token
        arriving with a different requester, strategy or any other
        field exactly like the shard's own dedup would
        (``REPLAY_MISMATCH``) — the token's original shard may have
        lost the entry to a hedge cancellation, an ejection, or a
        failover, so the router must police it.  ``key`` is empty
        unless ``payload`` is a dict."""
        record = self._start_replays.get(key) if key else None
        if record is None:
            return None
        strategy = Strategy.parse(payload.get("strategy", "standard"))
        if (
            getattr(payload.get("requester"), "name", None)
            != record.requester
            or strategy is not record.strategy
            or self._start_fingerprint(payload) != record.fingerprint
        ):
            raise ServiceError(
                f"requestId {key!r} was already used by requester "
                f"{record.requester!r} with strategy "
                f"{record.strategy.value!r}; a retry must repeat the "
                "original payload",
                error_code=ErrorCode.REPLAY_MISMATCH,
            )
        self.start_replays += 1
        return {"negotiationId": record.negotiation_id}

    def _node_for_key(self, key: str) -> ShardNode:
        try:
            url = self.ring.route(key)
        except LookupError as exc:
            raise TransportError(
                f"TN cluster at {self.url!r} has no live shards"
            ) from exc
        if self.health is not None and not self.health.is_healthy(url):
            # Routed shard is ejected: walk the ring's preference order
            # for the first healthy live shard.  When every shard is
            # ejected, fall through to the routed one — degraded
            # service beats refusing everyone.
            for candidate in self.ring.preference(key, len(self.ring)):
                if self.health.is_healthy(candidate):
                    url = candidate
                    break
        return self._node_at(url)

    def _node_at(self, url: str) -> ShardNode:
        for node in self._nodes:
            if node.url == url:
                return node
        raise ServiceError(  # pragma: no cover - ring holds our urls
            f"ring routed to unknown shard {url!r}"
        )

    def _node_for_session(self, negotiation_id: str) -> ShardNode:
        index = self.placement_index(negotiation_id)
        if index is not None:
            node = self._nodes[index]
            if node.live:
                return node
            # The pinned shard is dead and its restart is not due yet:
            # fail the placement over now rather than stall the caller.
            survivor = self._failover(node)
            if survivor is not None:
                return survivor
            return node  # no survivor: let the forward fail visibly
        # Not a minted id — probe traffic or a pre-cluster session.
        # Route by hash so exactly one shard answers (typically with a
        # typed unknown-session rejection).
        return self._node_for_key(negotiation_id or "unplaced")

    def _forward(
        self, node: ShardNode, operation: str, payload: dict
    ) -> tuple[dict, ShardNode]:
        began = self.transport.clock.elapsed_ms
        try:
            response = self.transport.call(node.url, operation, payload)
        except TransportError:
            # Endpoint unreachable (crashed, unbound, or response
            # lost): declare it dead and retry once on the successor
            # that adopted its sessions.
            self._note_shard_failure(node.url)
            survivor = self._failover(node)
            if survivor is None:
                raise
            began = self.transport.clock.elapsed_ms
            response = self.transport.call(survivor.url, operation, payload)
            self._note_shard_success(
                survivor.url, self.transport.clock.elapsed_ms - began
            )
            return response, survivor
        latency = self.transport.clock.elapsed_ms - began
        if operation == "StartNegotiation" and self.hedge_policy is not None:
            self._hedge_samples.append(latency)
        self._note_shard_success(node.url, latency)
        return response, node

    # -- hedging ----------------------------------------------------------------------

    def _should_hedge(self, request_key: str) -> bool:
        if self.hedge_policy is None or not request_key:
            return False  # no policy, or no idempotency token to race on
        return len(self.live_nodes()) >= 2

    def _hedge_backup(self, primary: ShardNode,
                      key: str) -> Optional[ShardNode]:
        """The shard the hedge leg targets: the first healthy live
        ring-successor distinct from the primary."""
        for url in self.ring.preference(key, len(self.ring)):
            if url == primary.url:
                continue
            if self.health is not None and not self.health.is_healthy(url):
                continue
            node = self._node_at(url)
            if node.live and node.service is not None:
                return node
        for node in self.live_nodes():  # everyone ejected: any survivor
            if node.url != primary.url:
                return node
        return None

    def _hedge_leg(
        self, node: ShardNode, current, payload: dict, delay: float = 0.0
    ) -> tuple[Optional[dict], Optional[Exception], float]:
        """Run one racer on a sub-branch forked off ``current``; returns
        ``(response, error, finished_at_ms)``."""
        with self.transport.clock_branch(current) as branch:
            branch.advance(delay)  # the hedge leg fires after the delay
            try:
                response = self.transport.call(
                    node.url, "StartNegotiation", payload
                )
            except Exception as exc:  # noqa: BLE001 - raced by the caller
                return None, exc, branch.elapsed_ms
            return response, None, branch.elapsed_ms

    def _hedged_start(
        self, primary: ShardNode, key: str, payload: dict
    ) -> tuple[dict, ShardNode]:
        self.hedge_stats.considered += 1
        delay = self.hedge_policy.current_delay(self._hedge_samples)
        current = self.transport.clock
        t0 = current.elapsed_ms
        primary_response, primary_error, primary_end = self._hedge_leg(
            primary, current, payload
        )
        primary_ms = primary_end - t0
        if (
            isinstance(primary_error, ServiceError)
            and primary_error.error_code is ErrorCode.REPLAY_MISMATCH
        ):
            # The primary's dedup refused a reuse of its token, and that
            # is the answer: a backup that never saw the token would
            # mint a session for the tampered payload.
            current.advance(primary_ms)
            raise primary_error
        if primary_error is None and primary_ms <= delay:
            # The primary answered before the hedge would have fired.
            current.advance(primary_ms)
            self._hedge_samples.append(primary_ms)
            self._note_shard_success(primary.url, primary_ms)
            return primary_response, primary
        backup = self._hedge_backup(primary, key)
        if backup is None:
            current.advance(primary_ms)
            if primary_error is not None:
                self._note_shard_failure(primary.url)
                raise primary_error
            self._hedge_samples.append(primary_ms)
            self._note_shard_success(primary.url, primary_ms)
            return primary_response, primary
        self.hedge_stats.fired += 1
        if obs_enabled():
            obs_count("cluster.hedges.fired")
        hedge_response, hedge_error, hedge_end = self._hedge_leg(
            backup, current, payload, delay
        )
        hedge_ms = hedge_end - t0
        if primary_error is not None and hedge_error is not None:
            # Both legs failed: adopt the primary timeline and surface
            # its error; the client's resilient retry re-enters the
            # normal (failover-capable) path.
            current.advance(primary_ms)
            self._note_shard_failure(primary.url)
            self._note_shard_failure(backup.url)
            raise primary_error
        if primary_error is None and (
            hedge_error is not None or primary_ms <= hedge_ms
        ):
            winner, winner_ms = primary, primary_ms
            winner_response = primary_response
            loser, loser_response, loser_ms = backup, hedge_response, hedge_ms
        else:
            winner, winner_ms = backup, hedge_ms
            winner_response = hedge_response
            loser, loser_response, loser_ms = primary, primary_response, primary_ms
            self.hedge_stats.won += 1
            if obs_enabled():
                obs_count("cluster.hedges.won")
            if primary_error is not None:
                self._note_shard_failure(primary.url)
        current.advance(winner_ms)
        self._hedge_samples.append(winner_ms)
        self._note_shard_success(winner.url, winner_ms)
        if loser_response is not None:
            # The losing leg still answered; its latency feeds the
            # health tracker (a chronically slow loser earns strikes
            # and is eventually ejected from new-session routing).
            self._note_shard_success(loser.url, loser_ms)
        self._cancel_loser(loser, loser_response)
        if obs_enabled():
            obs_event(
                "cluster.hedge",
                clock=current,
                winner=winner.url,
                loser=loser.url,
                primary_ms=round(primary_ms, 3),
                hedge_ms=round(hedge_ms, 3),
                delay_ms=round(delay, 3),
            )
        return winner_response, winner

    def _cancel_loser(self, loser: ShardNode,
                      loser_response: Optional[dict]) -> None:
        """Release the losing leg's freshly-minted session (and its
        dedup entry with it) so exactly one commit survives the race."""
        if not isinstance(loser_response, dict):
            return
        loser_id = loser_response.get("negotiationId")
        if not loser_id or not loser.live or loser.service is None:
            return
        loser.service.release_session(loser_id)
        self.hedge_stats.cancelled += 1
        if obs_enabled():
            obs_count("cluster.hedges.cancelled")

    # -- shard health -----------------------------------------------------------------

    def _note_shard_success(self, url: str, latency_ms: float) -> None:
        if self.health is None:
            return
        now = self.transport.clock.elapsed_ms
        if self.health.record_latency(url, latency_ms, now):
            self._note_ejection(url)
        self._emit_health_gauge()

    def _note_shard_failure(self, url: str) -> None:
        if self.health is None:
            return
        now = self.transport.clock.elapsed_ms
        if self.health.record_failure(url, now):
            self._note_ejection(url)
        self._emit_health_gauge()

    def _note_ejection(self, url: str) -> None:
        if obs_enabled():
            obs_event(
                "cluster.shard_ejected",
                clock=self.transport.clock,
                shard=url,
            )

    def _emit_health_gauge(self) -> None:
        if self.health is None or not obs_enabled():
            return
        live_urls = [node.url for node in self._nodes if node.live]
        obs_gauge(
            "cluster.healthy_shards",
            self.health.healthy_count(live_urls),
        )

    def _probe_ejected(self) -> None:
        """Half-open probe ejected-but-live shards (rate-limited)."""
        tracker = self.health
        if tracker is None:
            return
        now = self.transport.clock.elapsed_ms
        for node in self._nodes:
            if not node.live or not tracker.probe_due(node.url, now):
                continue
            tracker.note_probe(node.url, now)
            self.health_probes += 1
            alive = self._probe_once(node)
            if alive:
                tracker.readmit(node.url)
                if obs_enabled():
                    obs_event(
                        "cluster.shard_readmitted",
                        clock=self.transport.clock,
                        shard=node.url,
                    )
            else:
                tracker.record_failure(node.url, now)
            self._emit_health_gauge()

    def _probe_once(self, node: ShardNode) -> bool:
        """One probe on a discarded clock branch (callers never pay for
        probing).  A typed application rejection proves the shard alive
        (the probe's fake session *should* be refused); only
        transport-level failures, untyped errors, or a response slower
        than the slow threshold keep it ejected."""
        with self.transport.clock_branch() as branch:
            began = branch.elapsed_ms
            try:
                self.transport.call(node.url, "PolicyExchange", {
                    "negotiationId": "__health_probe__",
                    "resource": "",
                    "clientSeq": 1,
                })
            except TRANSIENT_ERRORS:
                return False
            except ReproError:
                pass
            except Exception:  # noqa: BLE001 - an untyped leak fails the probe
                return False
            slow_after = self.health_policy.slow_after_ms
            return slow_after is None or branch.elapsed_ms - began <= slow_after

    def _failover(self, dead: ShardNode) -> Optional[ShardNode]:
        """Migrate ``dead``'s durably-journalled sessions to its ring
        successor; returns the successor, or None when the cluster has
        no other live node."""
        if dead.live:
            self.kill_node(dead.index)
        if not self.ring.nodes():
            return None
        successor = self._node_at(self.ring.route(dead.url))
        moved = 0
        checkpoints = dead.session_store.latest()
        for session_id in sorted(checkpoints):
            if self.placement_index(session_id) not in (None, dead.index):
                continue  # already migrated in an earlier failover
            assert successor.service is not None
            successor.service.adopt_session(
                checkpoints[session_id], self.agents
            )
            self._place(session_id, successor.index)
            moved += 1
        self.failovers += 1
        self.sessions_recovered += moved
        if obs_enabled():
            obs_event(
                "cluster.failover",
                clock=self.transport.clock,
                dead=dead.url,
                successor=successor.url,
                migrated=moved,
            )
        return successor

    # -- explicit migration ----------------------------------------------------------

    def migrate_session(
        self, session_id: str, target_index: int
    ) -> NegotiationSession:
        """Move a (possibly mid-negotiation) session to another live
        shard: adopt from the source's last journalled checkpoint (the
        state ``restart_node`` and failover recover), release it at the
        source, re-point the placement."""
        target = self._nodes[target_index]
        if not target.live or target.service is None:
            raise ServiceError(
                f"cannot migrate {session_id!r} to dead shard "
                f"{target.url!r}"
            )
        source_index = self.placement_index(session_id)
        if source_index is None:
            raise ServiceError(f"unknown session {session_id!r}")
        if source_index == target_index:
            session = target.service.session(session_id)
            if session is None:
                raise ServiceError(
                    f"placement map points {session_id!r} at "
                    f"{target.url!r} but the shard does not hold it"
                )
            return session
        source = self._nodes[source_index]
        element = source.session_store.get(session_id)
        if element is None:
            raise ServiceError(
                f"no journalled checkpoint of {session_id!r} on "
                f"{source.url!r}"
            )
        session = target.service.adopt_session(element, self.agents)
        if source.live and source.service is not None:
            source.service.release_session(session_id)
        self._place(session_id, target_index)
        self.migrations += 1
        if obs_enabled():
            obs_event(
                "cluster.migrate",
                clock=self.transport.clock,
                session=session_id,
                source=source.url,
                target=target.url,
            )
        return session

    def _place(self, session_id: str, index: int) -> None:
        """Pin a moved session; a move back home needs no entry."""
        self._placements.pop(session_id, None)
        if self.placement_index(session_id) != index:
            self._placements[session_id] = index

    def placement(self, session_id: str) -> Optional[str]:
        index = self.placement_index(session_id)
        return self._nodes[index].url if index is not None else None

    def placement_index(self, session_id: str) -> Optional[int]:
        """The shard that holds ``session_id``: where failover or
        migration moved it, else the shard its ``tn-s{index}-`` prefix
        names; None for an id no shard of this router mints."""
        index = self._placements.get(session_id)
        if index is not None:
            return index
        prefix, _, serial = session_id.rpartition("-")
        if not (prefix.startswith("tn-s") and serial.isdigit()):
            return None
        index_text = prefix[len("tn-s"):]
        if not index_text.isdigit() or int(index_text) >= len(self._nodes):
            return None
        return int(index_text)

    # -- aggregate views (soak/report surface) ----------------------------------------

    def sessions(self) -> dict[str, NegotiationSession]:
        merged: dict[str, NegotiationSession] = {}
        for node in self._nodes:
            if node.live and node.service is not None:
                merged.update(node.service.sessions())
        return merged

    def durable_sessions(self) -> dict[str, ET.Element]:
        """Last journalled checkpoint per session across all shards,
        preferring the placement owner's journal."""
        latest: dict[str, ET.Element] = {}
        for node in self._nodes:
            for session_id, element in node.session_store.latest().items():
                owner = self.placement_index(session_id)
                if owner == node.index or session_id not in latest:
                    latest[session_id] = element
        return latest

    def reap_expired(self, older_than_ms: Optional[float] = None) -> int:
        reaped = 0
        for node in self._nodes:
            if node.live and node.service is not None:
                reaped += node.service.reap_expired(older_than_ms)
        return reaped

    @property
    def internal_errors(self) -> int:
        total = 0
        for node in self._nodes:
            total += node.internal_errors_accum
            if node.live and node.service is not None:
                total += node.service.internal_errors
        return total

    @property
    def guard(self) -> Optional[_AggregateView]:
        if self.hardening is None:
            return None
        stats = GuardStats()
        for node in self._nodes:
            sources = [node.guard_accum]
            if (
                node.live and node.service is not None
                and node.service.guard is not None
            ):
                sources.append(node.service.guard.stats)
            for source in sources:
                stats.validated += source.validated
                stats.rejected += source.rejected
                for code, count in source.by_code.items():
                    stats.by_code[code] = (
                        stats.by_code.get(code, 0) + count
                    )
        return _AggregateView(stats)

    @property
    def admission(self) -> Optional[_AggregateView]:
        if self.hardening is None:
            return None
        stats = AdmissionStats()
        for node in self._nodes:
            sources = [node.admission_accum]
            if (
                node.live and node.service is not None
                and node.service.admission is not None
            ):
                sources.append(node.service.admission.stats)
            for source in sources:
                stats.offered += source.offered
                stats.admitted += source.admitted
                stats.shed += source.shed
                stats.expired += source.expired
                for key, count in source.shed_by_priority.items():
                    stats.shed_by_priority[key] = (
                        stats.shed_by_priority.get(key, 0) + count
                    )
        return _AggregateView(stats)

    def wal_records(self) -> int:
        return sum(node.session_store.records() for node in self._nodes)

    def torn_records_discarded(self) -> int:
        return sum(
            getattr(node.session_store, "torn_discarded", 0)
            for node in self._nodes
        )
