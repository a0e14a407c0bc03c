"""Hot-path memoization layer: bounded, instrumented, invalidatable.

The ROADMAP's production north-star ("sharding, batching, async,
caching") and the paper's own timing analysis (Section 6.2: join time is
dominated by per-credential crypto and policy evaluation) both point at
the same levers grid deployments standardized on — cache the expensive,
*pure* steps of the security handshake and invalidate them on the one
event that changes their answer (revocation; cf. Welch et al.,
*Security for Grid Services* and Czenko et al. on nonmonotonic trust).

This module is the substrate: a small, thread-safe LRU cache with
per-cache hit/miss/eviction/invalidation counters and a process-wide
registry for introspection.

Import discipline: ``repro.perf`` imports nothing from the rest of
``repro`` (only the standard library), so any layer — ``xmlutil``,
``credentials``, ``policy``, ``negotiation`` — may depend on it without
creating an import cycle.

Cache instances used across the stack:

- :data:`XPATH_CACHE` — expression string → parsed XPath AST.
- :data:`SIGNATURE_CACHE` — ``(key fingerprint, message digest,
  signature)`` → bool, tagged ``(issuer, serial)`` so a retraction
  event (:mod:`repro.trust`) can drop exactly the entries it
  contradicts — per credential, not per issuer.

Canonical XML forms and their digests are not cached.  A key chosen by
the caller is only sound if it covers every serialized byte (a frozen
credential's equality does not: two instants in different UTC offsets
compare equal but serialize differently), and every entry keeps its
key and text alive for the life of the process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

__all__ = [
    "CacheStats",
    "LRUCache",
    "all_caches",
    "all_stats",
    "clear_all_caches",
    "XPATH_CACHE",
    "SIGNATURE_CACHE",
    "drop_issuer_signatures",
]

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters."""

    name: str
    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int
    invalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe LRU map with counters and tag-based invalidation.

    ``tag`` groups entries under a shared label (e.g. an issuer name)
    so they can be dropped together when the fact they memoize is
    retracted — the "principled invalidation" nonmonotonic trust
    management calls for.
    """

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._tags: dict[Hashable, set[Hashable]] = {}
        self._key_tag: dict[Hashable, Hashable] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        _register(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any,
            tag: Optional[Hashable] = None) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                self._retag(key, tag)
                return
            self._entries[key] = value
            self._retag(key, tag)
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._drop_tag(old_key)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any],
                       tag: Optional[Hashable] = None) -> Any:
        """Look up ``key``; on a miss run ``compute`` and memoize it."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value, tag=tag)
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._drop_tag(key)
                self.invalidations += 1
                return True
            return False

    def invalidate_tag(self, tag: Hashable) -> int:
        """Drop every entry stored under ``tag``; returns the count."""
        with self._lock:
            keys = self._tags.pop(tag, None)
            if not keys:
                return 0
            dropped = 0
            for key in keys:
                if self._entries.pop(key, _MISSING) is not _MISSING:
                    dropped += 1
                self._key_tag.pop(key, None)
            self.invalidations += dropped
            return dropped

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
                self._drop_tag(key)
            self.invalidations += len(doomed)
            return len(doomed)

    def invalidate_tags(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *tag* satisfies ``predicate``.

        Complements :meth:`invalidate_where` (which predicates over
        entry keys): compound tags like ``(issuer, serial)`` can be
        swept by their components — e.g. every serial of one issuer —
        without the keys having to carry that provenance.
        """
        with self._lock:
            matched = [tag for tag in self._tags if predicate(tag)]
            dropped = 0
            for tag in matched:
                for key in self._tags.pop(tag, ()):
                    if self._entries.pop(key, _MISSING) is not _MISSING:
                        dropped += 1
                    self._key_tag.pop(key, None)
            self.invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop all entries (counts as invalidations) but keep counters."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._tags.clear()
            self._key_tag.clear()

    def reset(self) -> None:
        """Drop all entries and zero every counter."""
        with self._lock:
            self._entries.clear()
            self._tags.clear()
            self._key_tag.clear()
            self.hits = self.misses = 0
            self.evictions = self.invalidations = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                size=len(self._entries),
                capacity=self.capacity,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
            )

    # -- internal (caller holds the lock) ------------------------------------------

    def _retag(self, key: Hashable, tag: Optional[Hashable]) -> None:
        old = self._key_tag.get(key)
        if old is not None and old != tag:
            members = self._tags.get(old)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._tags[old]
        if tag is None:
            self._key_tag.pop(key, None)
        else:
            self._key_tag[key] = tag
            self._tags.setdefault(tag, set()).add(key)

    def _drop_tag(self, key: Hashable) -> None:
        tag = self._key_tag.pop(key, None)
        if tag is not None:
            members = self._tags.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._tags[tag]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_registry: list[LRUCache] = []
_registry_lock = threading.Lock()


def _register(cache: LRUCache) -> None:
    with _registry_lock:
        _registry.append(cache)


def all_caches() -> list[LRUCache]:
    """Every LRUCache constructed in this process, in creation order."""
    with _registry_lock:
        return list(_registry)


def all_stats() -> dict[str, CacheStats]:
    """Name → stats snapshot for every registered cache."""
    return {cache.name: cache.stats() for cache in all_caches()}


def clear_all_caches(reset_counters: bool = False) -> None:
    """Empty every registered cache (optionally zeroing counters too)."""
    for cache in all_caches():
        if reset_counters:
            cache.reset()
        else:
            cache.clear()


# ---------------------------------------------------------------------------
# The shared cache instances
# ---------------------------------------------------------------------------

#: XPath expression string → parsed AST.  Policy portfolios reuse a
#: small set of conditions across thousands of evaluations.
XPATH_CACHE = LRUCache("xpath_ast", capacity=2048)

#: (issuer-key fingerprint, message digest, signature) → bool, tagged
#: ``(issuer, serial)`` for retraction-driven invalidation: a trust
#: event names exactly the serials it contradicts, so eviction is
#: per-credential, not per-issuer.  (Chain-link verdicts with no serial
#: fall back to the bare issuer-name tag.)
SIGNATURE_CACHE = LRUCache("signature_verify", capacity=8192)


def drop_issuer_signatures(issuer: str) -> int:
    """Drop every cached signature verdict touching ``issuer``.

    The coarse whole-issuer sweep — matches both the per-credential
    ``(issuer, serial)`` tags and the legacy bare issuer-name tag.  The
    precise per-serial path lives on
    :meth:`~repro.trust.TrustBus.retract`; this helper remains for CRL
    supersession, where every verdict derived under the stale list must
    go regardless of serial.
    """
    return SIGNATURE_CACHE.invalidate_tags(
        lambda tag: tag == issuer
        or (isinstance(tag, tuple) and len(tag) == 2 and tag[0] == issuer)
    )

