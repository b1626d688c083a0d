"""Deterministic random streams built on the splitmix64 counter generator.

All Monte Carlo code in this package draws counter words of streams whose
seeds come from :func:`derive_seed`.  splitmix64 is counter-based: word
``t = 1, 2, ...`` of the stream ``seed`` is ``mix64(seed + t * GOLDEN)``, a
pure function of ``(seed, t)``.  The rule is stated once, in ``_words``, for
a matrix of words; every draw reads it.  Two consequences we rely on
everywhere:

* any block of draws can be produced in one vectorized numpy call
  (:func:`uniform_columns`);
* per-task streams are derived as ``derive_seed(master, task, index)``,
  so results never depend on how work is chunked across threads.

The derivation rule is fixed: starting from ``mix64(master)``, each part is
folded in as ``z = mix64(z + GOLDEN + h(part))`` where ``h`` is the identity
for 64-bit non-negative integers, and an FNV-1a hash of the UTF-8 bytes
(or of the two's-complement bytes for out-of-range integers) otherwise.
"""

from __future__ import annotations

from itertools import count

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


def _words(seeds: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """uint64 matrix: entry (i, j) is word ``columns[j]+1`` of the stream ``seeds[i]``."""
    c = (columns.astype(np.uint64) + _U(1)) * _U(GOLDEN)
    return mix64_vec(seeds.astype(np.uint64)[:, None] + c[None, :])


def uniform_columns(seeds: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Matrix of uniforms: row i is draws ``columns`` of the stream ``seeds[i]``.

    ``columns`` are zero-based draw indices; entry (i, j) holds the top 53
    bits of word ``columns[j]+1`` of the stream ``seeds[i]``, scaled to [0, 1).
    """
    return (_words(seeds, columns) >> _U(11)) * 2.0**-53


def _counter_words(seed: int):
    """Words 1, 2, ... of the stream ``seed`` as ints, read from ``_words`` 4,096 at a time."""
    seeds = np.array([seed], dtype=np.uint64)
    for start in count(0, 4096):
        yield from _words(seeds, np.arange(start, start + 4096))[0].tolist()
