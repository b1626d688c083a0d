"""Lacunary trigonometric sums in fixed-point arithmetic, with CLT/LIL runs.

The sample point x lives on [0, 1) as a B-bit fixed-point value (B raw
bits of ``rng`` words), so ``n * x mod 1`` is an exact integer
multiply-and-mask.  The precision has one rule: B is
``required_bits(max n)``, the smallest multiple of 64 that is at least 256
and leaves at least 64 significant fractional bits
(``ceil(log2 n) + 65 <= B``).  Both drivers run at that B, and the kernel
reads it off the points' limbs (:func:`_x_limbs`): B is 32 x the rows.

Summation order in the CLT sums is canonicalized (frequencies sorted
ascending), so the floating-point value is exactly invariant under
permuting the summands, isolating distributional questions from float
noise; the LIL sums run in sequence order.

One numpy kernel, ``_frac_tops``, reduces ``n * x mod 1`` for a block of
frequencies at a block of sample points at once, and its values equal,
bit for bit, those of the per-point bigint computation
``float((n * x mod 2**B) >> (B - 64)) * 2**-64``:

* x is held as ``B/32`` rows of 32-bit limbs (one column per point) in
  uint64 arrays.  The nonzero 32-bit limbs of every frequency are found
  once per frequency list (:func:`_blocks`), so a power of two has a
  single limb.
* Only four rows of the product are formed (``_ROWS``): the two top rows
  ``B/32 - 2`` and ``B/32 - 1``, which hold bits ``[B - 64, B)``, the
  guard row g = ``B/32 - 3`` below them and the row g - 1 below that.
  They come from one gather-multiply of the needed x limbs by the limbs
  of n.  Row k receives the low half of every limb product ``x_i n_j``
  with ``i + j = k`` and the high half of those with ``i + j = k - 1``
  (when every n of the block has a single limb, the whole products
  instead, as a whole product plus a carry stays below ``2**64``): at
  most ``2 * (nonzero limbs of n)`` addends below ``2**32``, so a row
  never overflows uint64, and one ripple carry normalizes the rows.
  Reading the low halves of the two top rows drops the rest: that is the
  reduction mod ``2**B``.
* A block of F frequencies is laid out along the column axis: the
  gather has shape ``(4, m, F * points)``, m the most nonzero limbs of a
  frequency in the block, and a frequency with fewer limbs has weight 0
  in the slots past its own.  uint64 sums are exact mod ``2**64``, so
  the extra zero products change no word, and each column block of
  ``points`` columns goes through the same sums, carries and reads as a
  block of one frequency.
* What the formed rows leave out lies below the guard row: the high
  halves that land in row g - 1, and every row below it.  With ``m``
  nonzero limbs of n each row below the guard row sums to less than
  ``2 m * 2**32``, so these rows together (their formed part included)
  are below ``2 m`` units of the guard row, and the carry c they would
  add to it is at most ``2 m - 1``.  When the guard digit d satisfies
  ``d < 2**32 - 2 m``, ``d + c < 2**32`` and no carry reaches the bits
  read.  A column whose guard digit is within ``2 m`` of ``2**32``
  (probability about ``2 m / 2**32`` for a random point; m counts that
  column's own frequency) is recomputed with the bigint formula.
* numpy converts uint64 to float64 with round-to-nearest-even, exactly as
  Python's ``float(int)`` does (a top word of all ones rounds to 2**64).

A block grows, frequency by frequency in order, while its gather
``4 x m x F x points`` stays within ``BLOCK_ELEMENTS`` (102,400) uint64
elements; a frequency that alone needs more forms a block of its own, of
``4 x (its nonzero limbs) x points`` elements.  A call's other arrays
hold ``4 x F x points`` elements or fewer.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LabError
from .measures import EmpiricalSample
from .parallel import BLOCK_ELEMENTS, map_chunks
from .rng import _words, derive_seed_vec
from .sequences import IndexSequence, Permutation, apply_permutation

TWO_PI = 2.0 * math.pi
DEFAULT_BITS = 256

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# Rows of the product the kernel forms: g - 1, the guard row g and the two
# rows that hold bits [B - 64, B).
_ROWS = 4


def ceil_log2(n: int) -> int:
    if n < 1:
        raise LabError("bad-count", "need n >= 1")
    return (n - 1).bit_length()


def required_bits(max_n: int) -> int:
    """Smallest multiple of 64 (and >= DEFAULT_BITS) usable with frequency max_n."""
    need = ceil_log2(max_n) + 65
    return max(DEFAULT_BITS, ((need + 63) // 64) * 64)


def _x_limbs(seed: int, label: str, start: int, count: int, bits: int) -> np.ndarray:
    """32-bit limbs of the B-bit sample points of indices [start, start+count).

    Row ``i`` of the ``B/32`` rows holds bits ``[32 i, 32 i + 32)`` of every
    point.  Point ``s`` is the little-endian concatenation of words
    ``1..B/64`` (``rng._words``) of the stream ``derive_seed(seed, label, s)``:
    the value ``Stream(derive_seed(seed, label, s)).bits(B)``.
    """
    words = bits // 64
    seeds = derive_seed_vec(seed, np.arange(start, start + count), label)
    u = _words(seeds, np.arange(words)).T
    limbs = np.empty((2 * words, count), dtype=np.uint64)
    np.bitwise_and(u, _M32, out=limbs[0::2])
    np.right_shift(u, _U(32), out=limbs[1::2])
    return limbs


def _bigint_tops(xl: np.ndarray, f: int) -> np.ndarray:
    """``(f * x mod 2**B) >> (B - 64)`` in Python integers, one uint64 per column."""
    bits = 32 * len(xl)
    mask = (1 << bits) - 1
    xs = (int.from_bytes(col.tobytes(), "little") for col in xl.T.astype("<u4"))
    return np.fromiter((((f * x) & mask) >> (bits - 64) for x in xs), dtype=np.uint64)


class _Block(NamedTuple):
    """Frequencies that one kernel call reduces, with their nonzero 32-bit limbs.

    Slot s of frequency k holds the s-th nonzero limb of ``fs[k]``: its
    index in ``limb[s, k]`` and its value in ``weight[s, k]``.  Past its
    own limbs a frequency has limb 0 and weight 0.  ``slack[k]`` is
    ``2**32 - 2 m`` for the m nonzero limbs of ``fs[k]``.
    """

    fs: Sequence[int]
    limb: np.ndarray
    weight: np.ndarray
    slack: np.ndarray


def _blocks(fs, xl: np.ndarray) -> list[_Block]:
    """fs in order, cut into the blocks that :func:`_frac_tops` reduces at once on xl.

    A block grows while its gather, ``_ROWS x (nonzero limbs of its widest
    frequency) x frequencies x (columns of xl)`` uint64 products, stays within
    ``BLOCK_ELEMENTS``; a block holds at least one frequency.  The limbs
    of every frequency are found in one pass over fs.
    """
    points = xl.shape[1]
    raw = b"".join(f.to_bytes(4 * len(xl), "little") for f in fs)
    fl = np.frombuffer(raw, dtype="<u4").reshape(len(fs), len(xl))
    fk, j = np.nonzero(fl)
    counts = np.bincount(fk, minlength=len(fs))
    slot = np.arange(len(fk)) - np.searchsorted(fk, fk)
    limb = np.zeros((int(counts.max()), len(fs)), dtype=np.intp)
    weight = np.zeros(limb.shape, dtype=np.uint64)
    limb[slot, fk] = j
    weight[slot, fk] = fl[fk, j]
    slack = (2**32 - 2 * counts).astype(np.uint64)
    edges, start, widest = [], 0, 0
    for k, c in enumerate(counts.tolist()):
        if k > start and (k + 1 - start) * max(widest, c) * _ROWS * points > BLOCK_ELEMENTS:
            edges.append((start, k, widest))
            start, widest = k, 0
        widest = max(widest, c)
    edges.append((start, len(fs), widest))
    return [_Block(fs[a:b], limb[:w, a:b], weight[:w, a:b], slack[a:b]) for a, b, w in edges]


def _frac_tops(xl: np.ndarray, block: _Block) -> np.ndarray:
    """Bits ``[B-64, B)`` of ``f * x mod 2**B``, as doubles, for each f of the block.

    ``xl`` holds the limbs of x (:func:`_x_limbs`); row k of the result
    holds the values of ``block.fs[k]`` at every column of xl.  See the
    module docstring for the layout and for why the result is exact.
    """
    g = len(xl) - 3  # the guard row
    fs, limb, weight, slack = block
    m, points = len(limb), xl.shape[1]
    i = np.arange(g - 1, g - 1 + _ROWS)[:, None, None] - limb  # x limb of each product position
    prod = xl[np.maximum(i, 0)]
    prod *= np.where(i >= 0, weight, 0)[..., None]
    prod = prod.reshape(_ROWS, m, len(fs) * points)
    if m == 1:  # a whole product plus a carry stays below 2**64
        rows = prod[:, 0]
    else:  # the low halves' sum is the products' sum minus the high halves', mod 2**64
        rows = prod.sum(axis=1)
        prod >>= _U(32)
        hi = prod.sum(axis=1)
        rows -= hi << _U(32)
        rows[1:] += hi[:-1]
    for k in range(_ROWS - 1):
        rows[k + 1] += rows[k] >> _U(32)
    word = rows[2] & _M32  # bits [B - 64, B): the low halves of the two top rows
    word |= rows[3] << _U(32)
    word = word.reshape(len(fs), points)
    near = np.flatnonzero((rows[1] & _M32).reshape(len(fs), points) >= slack[:, None])
    for k in set((near // points).tolist()):
        cols = near[near // points == k] % points
        word[k, cols] = _bigint_tops(xl[:, cols], fs[k])
    return word.astype(np.float64)


def _sines(xl: np.ndarray, block: _Block) -> np.ndarray:
    """``sin(2 pi (f x mod 1))`` for each f of the block, one row per f."""
    return np.sin(TWO_PI * (_frac_tops(xl, block) * 2.0**-64))


def clt_sample(
    seq: IndexSequence,
    n: int,
    m: int,
    norm: str = "sqrtN_over_2",
    perm: Permutation | None = None,
    seed: int = 0,
    threads: int = 1,
) -> EmpiricalSample:
    """Monte Carlo law of the normalized trigonometric sum.

    Each of the m samples draws its own uniform x (a fresh B-bit value from
    the stream of its sample index, B = ``required_bits`` of the largest
    frequency summed) and evaluates ``sum sin(2 pi n_sigma(k) x) / norm``
    over the first n terms of the (optionally permuted) sequence.
    """
    if n < 1 or n > len(seq):
        raise LabError("bad-count", "need 1 <= N <= len(seq)")
    if norm == "sqrtN_over_2":
        divisor = math.sqrt(n / 2.0)
    elif norm == "sqrtN":
        divisor = math.sqrt(float(n))
    else:
        raise LabError("bad-norm", f"unknown normalization {norm!r}")
    freqs = sorted(seq.values[:n] if perm is None else apply_permutation(seq, perm, n))
    b = required_bits(freqs[-1])

    def run(start: int, count: int) -> np.ndarray:
        xl = _x_limbs(seed, "clt-x", start, count, b)
        acc = np.zeros(count)
        for block in _blocks(freqs, xl):
            for row in _sines(xl, block):
                acc += row
        return acc / divisor

    return EmpiricalSample(map_chunks(m, run, threads))


@dataclass(frozen=True)
class LilTrajectory:
    """Running law-of-the-iterated-logarithm statistic of several sample points.

    ``first`` holds L_3..L_{n_max} of the first point, ``max_values`` the
    maximum over N of L_N of every point, and ``bits`` the precision B.
    """

    first: np.ndarray
    max_values: np.ndarray
    bits: int


def lil_trajectory(seq: IndexSequence, xs: int, n_max: int, seed: int = 0) -> LilTrajectory:
    """L_N = S_N / sqrt(N log log N) for N = 3..n_max at xs seeded points.

    Point i is ``Stream(derive_seed(seed, "lil-x", i)).bits(B)`` with B
    ``required_bits(n_{n_max})``.
    """
    if xs < 1:
        raise LabError("bad-count", "need at least one sample point")
    if n_max < 3:
        raise LabError("bad-count", "need N_max >= 3 for log log N")
    if n_max > len(seq):
        raise LabError("bad-count", "N_max exceeds sequence length")
    bits = required_bits(seq.values[n_max - 1])
    return _lil_limbs(seq.values[:n_max], _x_limbs(seed, "lil-x", 0, xs, bits))


def _lil_limbs(freqs, xl: np.ndarray) -> LilTrajectory:
    """The LIL statistics along freqs, in order, at the points of xl (:func:`_x_limbs`).

    Each block's running sums are one ``np.cumsum`` seeded with the last
    sums of the block before, so every S_N is the same sequence of
    additions as a term-by-term loop; the maximum of each point is its
    first largest L_N.
    """
    points = xl.shape[1]
    divisors = np.array([math.sqrt(k * math.log(math.log(k))) for k in range(3, len(freqs) + 1)])
    first = np.empty(len(freqs) - 2)
    s = np.zeros(points)
    best = np.full(points, -math.inf)
    done = 0  # terms summed before the block
    for block in _blocks(freqs, xl):
        t = _sines(xl, block)
        t[0] += s
        t = np.cumsum(t, axis=0)
        s = t[-1]
        skip = max(2 - done, 0)  # rows of S_1 and S_2
        if skip < len(block.fs):
            span = slice(done + skip - 2, done + len(block.fs) - 2)
            l_n = t[skip:] / divisors[span, None]
            first[span] = l_n[:, 0]
            peak = l_n[l_n.argmax(axis=0), np.arange(points)]
            best = np.where(peak > best, peak, best)
        done += len(block.fs)
    return LilTrajectory(first, best, 32 * len(xl))
