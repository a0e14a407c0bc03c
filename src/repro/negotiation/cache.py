"""Trust-sequence caching for recurring negotiations.

Trust-X "is well suited for short and efficient negotiations" (paper
Section 1), and the operation phase of a long-lasting VO re-runs the
same negotiations — e.g. the periodic re-verification of a quality
certificate (Section 5.1).  Sequence caching, part of the Trust-X
design (Bertino, Ferrari, Squicciarini, TKDE 2004), makes those
re-runs cheap:

- after a successful negotiation, the executed trust sequence (who
  disclosed which credential for which requirement) is cached under
  ``(requester, controller, resource)``;
- a later negotiation for the same key *replays* the cached sequence
  through :meth:`~repro.negotiation.core.NegotiationCore.replay`: the
  policy-evaluation phase is skipped entirely, and the core's own
  exchange phase re-challenges and re-verifies each cached credential
  (signature, validity, revocation, ownership, its term) with the same
  trust-epoch recheck, message accounting and obs events as a full
  negotiation;
- any failure — an expired or revoked credential, a credential that
  left the profile, a policy now unsatisfied — invalidates the entry
  and falls back to a full negotiation.

Each cached sequence also records its *provenance*: the ``(issuer,
serial)`` pairs of the credentials it replays.  Every cache registers
itself with :mod:`repro.trust` on construction, so a retraction event
evicts exactly the sequences built on a now-revoked credential
(:meth:`SequenceCache.invalidate_retracted`) instead of waiting for a
replay to stumble over the revocation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.errors import ReproError
from repro.negotiation.agent import TrustXAgent
from repro.negotiation.core import NegotiationCore, drive
from repro.negotiation.engine import (
    DEFAULT_NEGOTIATION_TIME,
    NegotiationEngine,
)
from repro.negotiation.outcomes import NegotiationResult
from repro.negotiation.sequence import SequenceStep, TrustSequence
from repro.obs import count as obs_count, span as obs_span
from repro.trust import register_sequence_cache

__all__ = ["SequenceCache", "CachingNegotiator"]


@dataclass(frozen=True)
class CachedSequence:
    requester: str
    controller: str
    resource: str
    #: The executed trust sequence, grant last.
    steps: tuple[SequenceStep, ...]
    #: ``(issuer, serial)`` of every credential the sequence replays —
    #: the hook a retraction event uses to evict exactly the sequences
    #: it contradicts.  Empty when the storer could not resolve the
    #: disclosed credentials (replay re-verification still catches the
    #: revocation, just one negotiation later).
    provenance: frozenset[tuple[str, int]] = frozenset()


@dataclass(eq=False)  # identity semantics: caches live in a weak registry
class SequenceCache:
    """Per-party (or shared, in this in-process simulation) cache.

    Bounded: at most ``capacity`` sequences are retained, with
    least-recently-used eviction — the operation phase of a VO serving
    "millions of users" re-runs a hot subset of negotiations, and an
    unbounded cache would grow with the *distinct* key population
    instead.  Evictions are counted separately from invalidations
    (an eviction says the cache is too small; an invalidation says the
    world changed).
    """

    _entries: "OrderedDict[tuple[str, str, str], CachedSequence]" = field(
        default_factory=OrderedDict
    )
    capacity: int = 1024
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"sequence cache capacity must be >= 1, got {self.capacity}"
            )
        if not isinstance(self._entries, OrderedDict):
            self._entries = OrderedDict(self._entries)
        self._lock = threading.Lock()
        register_sequence_cache(self)

    @staticmethod
    def _key(requester: str, controller: str, resource: str):
        return (requester, controller, resource)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (size plus all four event counters)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }

    def store(
        self,
        result: NegotiationResult,
        agents: Optional[dict[str, TrustXAgent]] = None,
    ) -> Optional[CachedSequence]:
        """Cache a successful negotiation's executed sequence.

        Pass the participating ``agents`` (name-keyed) so the entry
        records the ``(issuer, serial)`` provenance of each disclosed
        credential, making it evictable by a retraction event.
        """
        if not result.success or result.tree is None:
            return None
        # Each side's disclosures are listed in sequence order.
        requester_ids = iter(result.disclosed_by_requester)
        controller_ids = iter(result.disclosed_by_controller)
        steps = []
        for node in result.sequence:
            credential_id = None
            if not node.is_root:
                source = (
                    requester_ids
                    if node.owner == result.requester
                    else controller_ids
                )
                credential_id = next(source, None)
                if credential_id is None:
                    return None
            steps.append(SequenceStep(node, node.owner, credential_id))
        provenance = set()
        if agents:
            for step in steps:
                discloser = agents.get(step.discloser)
                if discloser is None or step.credential_id not in discloser.profile:
                    continue
                credential = discloser.profile.get(step.credential_id)
                provenance.add((credential.issuer, credential.serial))
        entry = CachedSequence(
            requester=result.requester,
            controller=result.controller,
            resource=result.resource,
            steps=tuple(steps),
            provenance=frozenset(provenance),
        )
        key = self._key(result.requester, result.controller, result.resource)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def lookup(
        self, requester: str, controller: str, resource: str
    ) -> Optional[CachedSequence]:
        key = self._key(requester, controller, resource)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def invalidate(
        self, requester: str, controller: str, resource: str
    ) -> None:
        with self._lock:
            if self._entries.pop(
                self._key(requester, controller, resource), None
            ) is not None:
                self.invalidations += 1

    def invalidate_retracted(
        self, issuer: str, serials: frozenset[int]
    ) -> int:
        """Drop every sequence whose provenance includes a retracted
        credential.  Called by :meth:`repro.trust.TrustBus.retract` on
        every registered cache; returns the number of entries dropped.
        """
        retracted = {(issuer, serial) for serial in serials}
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items()
                if entry.provenance & retracted
            ]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)
            return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class CachingNegotiator:
    """Negotiation front-end with sequence-cache replay."""

    cache: SequenceCache = field(default_factory=SequenceCache)

    def negotiate(
        self,
        requester: TrustXAgent,
        controller: TrustXAgent,
        resource: str,
        at: Optional[datetime] = None,
        **engine_options,
    ) -> NegotiationResult:
        at = at or DEFAULT_NEGOTIATION_TIME
        cached = self.cache.lookup(requester.name, controller.name, resource)
        if cached is not None:
            with obs_span(
                "tn.replay",
                resource=resource,
                requester=requester.name,
                controller=controller.name,
            ) as replay_span:
                replayed = self._replay(requester, controller, cached, at)
                replay_span.set(replayed=replayed is not None)
            if replayed is not None:
                self.cache.hits += 1
                obs_count("negotiation.cache.replays")
                return replayed
            self.cache.invalidate(requester.name, controller.name, resource)
            obs_count("negotiation.cache.replay_failures")
        self.cache.misses += 1
        obs_count("negotiation.cache.misses")
        result = NegotiationEngine(requester, controller, **engine_options).run(
            resource, at=at
        )
        if result.success:
            self.cache.store(
                result,
                agents={requester.name: requester, controller.name: controller},
            )
        return result

    def _replay(
        self,
        requester: TrustXAgent,
        controller: TrustXAgent,
        cached: CachedSequence,
        at: datetime,
    ) -> Optional[NegotiationResult]:
        """Re-run only the exchange phase over the cached sequence.

        Returns None when replay is impossible (a cached credential
        left the profile), any re-verification fails, or a credential
        it accepted is retracted mid-replay, triggering a full
        negotiation.
        """
        core = NegotiationCore(requester.name, controller.name)
        try:
            result = drive(
                core.replay(cached.resource, TrustSequence(cached.steps), at),
                {requester.name: requester, controller.name: controller},
            )
        except ReproError:
            return None
        return result if result.success else None
