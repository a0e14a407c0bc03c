"""A seeded stand-in for the ``secrets`` module in prime generation."""

from __future__ import annotations

import random


class SeededSecrets:
    """The two ``secrets`` calls prime generation makes, from a seeded
    stream, counting the witness draws since the latest window start.

    ``first``, when given, is returned by the first ``randbits`` call
    instead of a seeded draw.  A search that draws more than
    ``MAX_STARTS`` window starts fails instead of running forever.
    """

    MAX_STARTS = 10_000

    def __init__(self, seed: int, first: int | None = None) -> None:
        self._rng = random.Random(seed)
        self._first = first
        self.starts = 0
        self.witnesses_since_start = 0

    def randbits(self, bits: int) -> int:
        self.starts += 1
        if self.starts > self.MAX_STARTS:
            raise AssertionError(
                f"prime search drew {self.starts} starts at {bits} bits"
            )
        self.witnesses_since_start = 0
        if self._first is not None:
            value, self._first = self._first, None
            return value
        return self._rng.getrandbits(bits)

    def randbelow(self, bound: int) -> int:
        self.witnesses_since_start += 1
        return self._rng.randrange(bound)
