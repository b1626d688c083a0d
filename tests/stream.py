"""The scalar splitmix64 stream: one counter word at a time.

Oracle of ``rng._words``, ``rng.uniform_columns``, ``rng._counter_words`` and
``lacunary._x_limbs``: word ``t = 1, 2, ...`` of ``Stream(seed)`` is
``mix64(seed + t * GOLDEN)``, computed with Python integers.  The tests
also draw their own seeded inputs from it.  The tests import it like the
``conftest`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from permutalab.rng import _MASK64, GOLDEN, mix64, uniform_columns


@dataclass
class Stream:
    """Sequential splitmix64 stream; scalar and block draws interleave freely."""

    seed: int
    _count: int = field(default=0, repr=False)

    def u64(self) -> int:
        self._count += 1
        return mix64((self.seed + self._count * GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * 2.0**-53

    def bits(self, nbits: int) -> int:
        """Uniform integer in [0, 2**nbits)."""
        words = (nbits + 63) // 64
        v = 0
        for w in range(words):
            v |= self.u64() << (64 * w)
        return v & ((1 << nbits) - 1)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection, for 1 <= n <= 2**64."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("below() needs 1 <= n <= 2**64")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def uniform_block(self, count: int) -> np.ndarray:
        start, self._count = self._count, self._count + count
        return uniform_columns(np.array([self.seed]), np.arange(start, self._count))[0]

