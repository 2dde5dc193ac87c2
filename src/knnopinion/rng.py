"""Seeded, platform-independent random streams.

Generator: Mersenne Twister (MT19937) as exposed by random.Random with
seeding version 2, which is stable across CPython versions and platforms.

Integer draws below a bound use rejection sampling on getrandbits, so the
mapping from raw bits to an agent index is uniform and documented here:
draw ceil(log2(m)) bits, reject and redraw while the value is >= m.

Unit-interval draws use random.Random.random() (53-bit mantissa).
"""

from __future__ import annotations

import random


class SeededRng:
    """One reproducible stream. Seeds may be ints or strings; named
    substreams are derived as "<seed>:<name>". The generator is seeded on
    the first draw, so a stream that only derives others seeds nothing."""

    def __init__(self, seed):
        self.seed = seed
        self._r = None

    def _seeded(self) -> random.Random:
        seed = self.seed
        self._r = random.Random(seed if isinstance(seed, int) else str(seed))
        return self._r

    def derive(self, name: str) -> "SeededRng":
        return SeededRng(f"{self.seed}:{name}")

    def randbelow(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection sampling."""
        if m <= 0:
            raise ValueError("bound must be positive")
        bits = (m - 1).bit_length() or 1
        r = self._r or self._seeded()
        while True:
            v = r.getrandbits(bits)
            if v < m:
                return v

    def randbelow_many(self, m: int, count: int) -> list:
        """`count` draws of randbelow(m) in one call: the same getrandbits
        calls, so the same values and the same generator state after."""
        if m <= 0:
            raise ValueError("bound must be positive")
        bits = (m - 1).bit_length() or 1
        getrandbits = (self._r or self._seeded()).getrandbits
        out = []
        for _ in range(count):
            v = getrandbits(bits)
            while v >= m:
                v = getrandbits(bits)
            out.append(v)
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self._r or self._seeded()).random()

    def shuffle(self, items: list) -> None:
        """Fisher-Yates driven by randbelow, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
