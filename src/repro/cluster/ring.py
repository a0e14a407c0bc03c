"""Consistent-hash ring with virtual nodes.

Standard construction: every node is hashed onto the ring at
``replicas`` points (``"{node}#{i}"``), a key routes to the first
node point clockwise from the key's hash, and removing a node only
re-routes the keys that mapped to it — the property that makes
failover migrate one shard's sessions instead of reshuffling the
whole cluster.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.crypto.digest import sha256

__all__ = ["HashRing"]


def _hash(key: str) -> int:
    return int(sha256(key.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Maps string keys onto member nodes."""

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 32) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def nodes(self) -> list[str]:
        return sorted(self._members)

    def add(self, node: str) -> None:
        if node in self._members:
            return
        self._members.add(node)
        for replica in range(self.replicas):
            point = (_hash(f"{node}#{replica}"), node)
            bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        if node not in self._members:
            return
        self._members.discard(node)
        self._points = [
            point for point in self._points if point[1] != node
        ]

    def route(self, key: str) -> str:
        """Node owning ``key`` (first ring point clockwise)."""
        if not self._points:
            raise LookupError("hash ring is empty")
        index = bisect.bisect_right(
            self._points, (_hash(key), "￿")
        )
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key: str, count: int) -> list[str]:
        """First ``count`` distinct nodes clockwise from ``key`` —
        the failover order for sessions placed at ``key``."""
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, (_hash(key), "￿"))
        seen: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) >= count:
                    break
        return seen
