"""Deterministic random streams built on the splitmix64 counter generator.

All Monte Carlo code in this package draws from :class:`Stream` objects
whose seeds come from :func:`derive_seed`.  splitmix64 is counter-based:
the ``t``-th output of a stream is ``mix64(seed + (t+1) * GOLDEN)``, a pure
function of ``(seed, t)``.  The rule is stated twice, for one word
(``Stream.u64``) and for a matrix of words (``_words``); every other draw
reads one of the two.  Two consequences we rely on everywhere:

* any block of draws can be produced in one vectorized numpy call
  (:func:`uniform_columns`), bit-identical to the scalar path;
* per-task streams are derived as ``derive_seed(master, task, index)``,
  so results never depend on how work is chunked across threads.

The derivation rule is fixed: starting from ``mix64(master)``, each part is
folded in as ``z = mix64(z + GOLDEN + h(part))`` where ``h`` is the identity
for 64-bit non-negative integers, and an FNV-1a hash of the UTF-8 bytes
(or of the two's-complement bytes for out-of-range integers) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U = np.uint64


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def mix64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array."""
    z = z ^ (z >> _U(30))
    z *= _U(_MIX_M1)
    z ^= z >> _U(27)
    z *= _U(_MIX_M2)
    z ^= z >> _U(31)
    return z


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fold_part(part: int | str | bytes) -> int:
    if isinstance(part, (int, np.integer)):
        p = int(part)
        if 0 <= p <= _MASK64:
            return p
        nbytes = (p.bit_length() + 8) // 8 + 1
        return _fnv1a(p.to_bytes(nbytes, "little", signed=True))
    if isinstance(part, str):
        return _fnv1a(part.encode("utf-8"))
    return _fnv1a(part)


def derive_seed(master: int, *parts: int | str | bytes) -> int:
    """64-bit seed for a sub-task, stable across platforms and runs."""
    z = mix64(master & _MASK64)
    for part in parts:
        z = mix64((z + GOLDEN + _fold_part(part)) & _MASK64)
    return z


def derive_seed_vec(master: int, indices: np.ndarray, *prefix: int | str) -> np.ndarray:
    """Vectorized ``derive_seed(master, *prefix, i)`` for an index array.

    Matches the scalar function exactly for ``0 <= i < 2**64``.
    """
    base = _U((derive_seed(master, *prefix) + GOLDEN) & _MASK64)
    return mix64_vec(base + indices.astype(np.uint64))


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


def _words(seeds: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """uint64 matrix: entry (i, j) is ``Stream(seeds[i])``'s ``columns[j]+1``-th ``u64()``."""
    c = (columns.astype(np.uint64) + _U(1)) * _U(GOLDEN)
    return mix64_vec(seeds.astype(np.uint64)[:, None] + c[None, :])


def uniform_columns(seeds: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Matrix of uniforms: row i is draws ``columns`` of the stream ``seeds[i]``.

    ``columns`` are zero-based draw indices; entry (i, j) equals what
    ``Stream(seeds[i])`` would return as its ``columns[j]+1``-th uniform.
    """
    return (_words(seeds, columns) >> _U(11)) * 2.0**-53
