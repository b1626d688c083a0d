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
frequencies at a block of sample points at once.  Its uint64 top words
are exactly the integers ``(n * x mod 2**B) >> (B - 64)`` of the
per-point bigint computation; :func:`_sines`, the kernel's one reader,
turns them into sine rows.  x is held as ``B/32`` rows of 32-bit limbs
(one column per point) in uint64 arrays.  The nonzero 32-bit limbs of
every frequency are found once per frequency list (:func:`_blocks`), so
a power of two has a single limb.  A block whose frequencies all have
one nonzero limb (every power of two) takes the limb branch; a block
with a wider frequency takes the digit branch.

Limb branch:

* Only four rows of the product are formed (``_ROWS``): the two top rows
  ``B/32 - 2`` and ``B/32 - 1``, which hold bits ``[B - 64, B)``, the
  guard row g = ``B/32 - 3`` below them and the row g - 1 below that.
  Each is the whole product of the x limb it needs with the one limb of
  n, from one gather-multiply; a whole product plus a carry stays below
  ``2**64``, and one ripple carry normalizes the rows.  Reading the low
  halves of the two top rows drops the rest: that is the reduction mod
  ``2**B``.  The F frequencies of a block are laid side by side along
  the column axis, in a gather of ``4 x F x points`` elements.
* What the formed rows leave out lies below the guard row.  Each row
  below it holds the low half of one product and the high half of
  another, at most ``2 (2**32 - 1)``, so these rows together (their
  formed part included) are below 2 units of the guard row, and the
  carry c they would add to it is at most 1.  When the guard digit d
  satisfies ``d < 2**32 - 2``, ``d + c < 2**32`` and no carry reaches the
  bits read.  A column whose guard digit is within 2 of ``2**32`` is
  recomputed with the bigint formula (:func:`_bigint_tops`).

Digit branch:

* x and every n are split into 16-bit digits, ``D = B/16`` of x
  (``x = sum x_i 2**(16 i)``, ``n = sum n_j 2**(16 j)``).  Digit
  position p of the product is ``S_p = sum over i + j = p of x_i n_j``:
  with e nonzero digits of n (e at most D), at most e products below
  ``2**32``, so ``S_p < e 2**32``, below ``2**41`` up to B = 4,160.
* Seven positions are formed (``_DIGITS``): the four top ones
  ``D - 4 .. D - 1``, which hold bits ``[B - 64, B)``, the two of the
  guard row, ``D - 6`` and ``D - 5`` (the limb branch's guard row g), and
  ``D - 7`` below them.  One matrix product forms them all.  Its weight
  matrix has a row per (position, frequency): row ``r F + k`` holds digit
  ``p - i`` of ``fs[k]`` in the column of x digit i, for position
  ``p = D - 7 + r``.  It multiplies the ``(K + 1, points)`` matrix of the x
  digits that the positions read: digits ``D - K .. D - 1``, from
  ``D - 6 - (digits of the block's longest n)`` on, down to a whole limb
  and at least 0, and a last row of ones whose weight is ``2**52``.  Each
  formed value is then ``2**52 + S_p``, and every partial sum of it is an
  integer below ``2**53``, so its float64 sum is exact in any order: in
  any BLAS kernel, at any thread count.  The double ``2**52 + S_p``,
  read as a uint64 word, is ``0x433 << 52`` plus the integer ``S_p``
  (``_MAGIC``), so uint64 arithmetic reads the product with no
  conversion.  One ripple carry adds ``S_{D-7} >> 16`` to the guard sum
  ``S_{D-6} + 2**16 S_{D-5}``, whose low 32 bits are the guard digit, and
  the guard sum's bits from 32 on to ``S_{D-4} + 2**16 S_{D-3} +
  2**32 S_{D-2} + 2**48 S_{D-1}``, mod ``2**64``: the top word.  That
  read needs the guard sum and its share of the magic words (below
  ``2**62.1``) to stay below ``2**64``.  The guard sum is below
  ``e 2**48 (1 + 2**-15)``, so every n of fewer than ``_WIDEST`` (``2**15``)
  nonzero digits fits, and then ``S_p < 2**47`` too.  A wider n, of half
  a million bits or more, has every column recomputed with the bigint
  formula (its slack is 0).
* What the formed positions leave out lies below position ``D - 7``.
  With e nonzero 16-bit digits of n, each ``S_p`` is at most
  ``e (2**16 - 1)**2``, so all positions below ``D - 7`` together hold
  at most ``e (2**16 - 1) (2**(16 (D - 7)) - 1)``, less than e units of
  the guard row (``2**(16 (D - 6))``), and the low 16 bits of position
  ``D - 7`` add less than one unit: the carry c they would add to the
  guard row is at most e.  When the guard digit d satisfies
  ``d < 2**32 - 1 - e``, ``d + c < 2**32`` and no carry reaches the bits
  read.  A column whose guard digit is within e + 1 of ``2**32``
  (probability about ``(e + 1) / 2**32`` for a random point, e at most D;
  e counts that column's own frequency) is recomputed with the bigint
  formula.  So is every column whose true guard row is all ones: its
  formed digit is at least ``2**32 - 1 - e``.

A block grows, frequency by frequency in order, while its largest array
stays within ``BLOCK_ELEMENTS`` (102,400) elements: in a limb block the
gather, ``4 x F x points``; in a digit block the F output rows,
``F x points``, and the weight matrix, ``7 F x (K + 1)``.  A frequency
that alone needs more forms a block of its own.  A digit block's other
arrays go over the points in tiles that keep each within a quarter of
the budget, and its matrix products over sub-tiles of at most ``2**18``
multiply-adds (``_BLAS_ONE_THREAD``): numpy's OpenBLAS runs a larger
product on its own thread pool, and on 2 vCPUs a ``(112 x 25) @
(25 x 1,024)`` product took 10 ms there against 0.17 ms in one-thread
sub-tiles.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LabError
from .parallel import BLOCK_ELEMENTS, map_chunks
from .rng import _words, derive_seed_vec
from .sequences import IndexSequence, Permutation, apply_permutation

TWO_PI = 2.0 * math.pi
DEFAULT_BITS = 256
_ANGLE = TWO_PI * 2.0**-64

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# Rows of the product the limb branch forms: g - 1, the guard row g and the
# two rows that hold bits [B - 64, B).
_ROWS = 4
# 16-bit positions of the product the digit branch forms: D - 7, the guard
# row's two and the four that hold bits [B - 64, B).
_DIGITS = 7
# The weight of the digit matrix's row of ones: a formed position 2**52 + S
# reads, as a uint64 word, _MAGIC plus the integer S.
_EXPONENT = 2.0**52
_MAGIC = _U(0x433 << 52)
# What the magic words add to the guard sum and, shifted, to the top word.
_GUARD_MAGIC = _MAGIC + (_MAGIC >> _U(16))
_TOP_MAGIC = _MAGIC + (_GUARD_MAGIC >> _U(32))
# Most multiply-adds of one matrix product that OpenBLAS runs on one thread.
_BLAS_ONE_THREAD = 2**18
# Nonzero 16-bit digits of n below which the digit branch's guard sum fits
# its uint64 word; a wider n has every column recomputed.
_WIDEST = 2**15


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
    ``1..B/64`` (``rng._words``) of the stream ``derive_seed(seed, label, s)``.
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
    """Frequencies that one kernel call reduces, and what its branch reads of them.

    A limb block (``limb`` not None) holds frequencies with one nonzero
    32-bit limb each: ``fs[k]`` is ``weight[k] << (32 limb[k])``.  A digit
    block (``limb`` None) holds the ``(7 F, K + 1)`` weight matrix of its
    digit product, row ``r F + k`` for position ``D - 7 + r`` of ``fs[k]``.
    ``slack[k]`` is the least guard digit of ``fs[k]`` that is recomputed.
    """

    fs: Sequence[int]
    limb: np.ndarray | None
    weight: np.ndarray
    slack: np.ndarray


def _weights(digits: np.ndarray, columns: int) -> np.ndarray:
    """The digit branch's weight matrix of frequencies with these 16-bit digits.

    Row ``r F + k``, position ``D - 7 + r`` of frequency k, holds its digit
    ``K - 7 + r - c`` in column c < K, the x digit ``D - K + c``, and
    ``2**52`` in the last column, the row of ones; K is ``columns - 1``.
    """
    k = columns - 1
    reversed_digits = np.zeros((len(digits), k + _DIGITS - 1))  # digit K - 1 - t in column t
    reversed_digits[:, :k] = digits[:, k - 1::-1]
    windows = np.lib.stride_tricks.sliding_window_view(reversed_digits, k, axis=1)
    weight = np.empty((_DIGITS, len(digits), columns))
    weight[:, :, :k] = windows[:, ::-1].swapaxes(0, 1)  # window 6 - r: digits K - 7 + r - c
    weight[:, :, k] = _EXPONENT
    return weight.reshape(_DIGITS * len(digits), columns)


def _blocks(fs, xl: np.ndarray) -> list[_Block]:
    """fs in order, cut into the blocks that :func:`_frac_tops` reduces at once on xl.

    A block grows while its largest array stays within ``BLOCK_ELEMENTS``:
    in a limb block the gather, ``_ROWS x frequencies x (columns of xl)``
    uint64 products; in a digit block the output, ``frequencies x (columns
    of xl)``, and the weight matrix, ``_DIGITS x frequencies x (K + 1)``.
    K, the x digits read, is set by the block's longest frequency: the
    digits from ``D - 6 - (its digits)`` up, from a whole limb on and from
    0 at most.  A block holds at least one frequency.  The digits of every
    frequency are found in one pass over fs.
    """
    points, limbs = xl.shape[1], len(xl)
    raw = b"".join(f.to_bytes(4 * limbs, "little") for f in fs)
    fl = np.frombuffer(raw, dtype="<u4").reshape(len(fs), limbs)
    fd = np.frombuffer(raw, dtype="<u2").reshape(len(fs), 2 * limbs)
    wide = np.count_nonzero(fl, axis=1) > 1
    length = 2 * limbs - (fd[:, ::-1] != 0).argmax(axis=1)  # digits up to the top nonzero one
    # K + 1 of a digit block of one frequency: x digits from D - 6 - length,
    # down to a whole limb, and the row of ones
    columns = 2 * limbs + 1 - np.maximum(2 * limbs - _DIGITS + 1 - length, 0) // 2 * 2

    def largest(size: int, any_wide: bool, most_columns: int) -> int:
        if any_wide:
            return size * max(points, _DIGITS * most_columns)
        return _ROWS * size * points

    starts, run_wide, run_columns = [0], False, 0
    for k, (w, c) in enumerate(zip(wide.tolist(), columns.tolist())):
        grown = largest(k + 1 - starts[-1], run_wide or w, max(run_columns, c))
        if k > starts[-1] and grown > BLOCK_ELEMENTS:
            starts.append(k)
            run_wide, run_columns = False, 0
        run_wide, run_columns = run_wide or w, max(run_columns, c)
    blocks = []
    for a, b in zip(starts, starts[1:] + [len(fs)]):
        if wide[a:b].any():
            e = np.count_nonzero(fd[a:b], axis=1)
            slack = np.where(e < _WIDEST, 2**32 - 1 - e, 0)  # 0: recompute every column
            weight = _weights(fd[a:b], int(columns[a:b].max()))
            blocks.append(_Block(fs[a:b], None, weight, slack.astype(np.uint32)))
        else:
            limb = fl[a:b].argmax(axis=1)
            weight = fl[a:b][np.arange(b - a), limb].astype(np.uint64)
            blocks.append(_Block(fs[a:b], limb, weight, np.full(b - a, 2**32 - 2, dtype=np.uint32)))
    return blocks


def _limb_tops(xl: np.ndarray, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """The limb branch: the (F, points) uint64 top words and uint32 guard digits of a block."""
    g = len(xl) - 3  # the guard row
    fs, limb, weight, _ = block
    points = xl.shape[1]
    i = np.arange(g - 1, g - 1 + _ROWS)[:, None] - limb  # x limb of each product position
    rows = xl[np.maximum(i, 0)]
    rows *= np.where(i >= 0, weight, 0)[..., None]
    rows = rows.reshape(_ROWS, len(fs) * points)  # a whole product plus a carry stays below 2**64
    for k in range(_ROWS - 1):
        rows[k + 1] += rows[k] >> _U(32)
    word = rows[2] & _M32  # bits [B - 64, B): the low halves of the two top rows
    word |= rows[3] << _U(32)
    guard = rows[1].astype(np.uint32)  # the low half
    return word.reshape(len(fs), points), guard.reshape(len(fs), points)


def _digit_tops(xl: np.ndarray, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """The digit branch: the top words of a digit block, and its guard digits.

    Both arrays are ``(F, points)``, as :func:`_limb_tops` returns them.  The
    points go in tiles of at most a quarter of ``BLOCK_ELEMENTS`` formed
    positions (and x digits), and each tile's matrix product in sub-tiles
    of at most ``_BLAS_ONE_THREAD`` multiply-adds; the tile buffers are
    made once per call.  Tiles four times larger ran no faster on the
    lacunary-mc benchmark's ``permute-clt`` (2 vCPUs, numpy 2.4) and
    raised its peak RSS by 6%.
    """
    weight = block.weight
    f, points = len(block.fs), xl.shape[1]
    columns = weight.shape[1]
    low = len(xl) - (columns - 1) // 2  # the first x limb read
    tile = max(1, min(points, BLOCK_ELEMENTS // (4 * max(len(weight), columns))))
    step = max(1, _BLAS_ONE_THREAD // weight.size)
    tops = np.empty((f, points), dtype=_U)
    guards = np.empty((f, points), dtype=np.uint32)
    x = np.empty((columns, tile))
    x[-1] = 1.0
    halves = x[:-1].reshape(-1, 2, tile)  # the low and high digit of each limb
    prod = np.empty((len(weight), tile))
    word, guard, shifted = (np.empty((f, tile), dtype=_U) for _ in range(3))
    for a in range(0, points, tile):
        w = min(tile, points - a)
        np.bitwise_and(xl[low:, a:a + w], _U(0xFFFF), out=halves[:, 0, :w])
        np.right_shift(xl[low:, a:a + w], _U(16), out=halves[:, 1, :w])
        for b in range(0, w, step):
            c = min(step, w - b)
            np.matmul(weight, x[:, b:b + c], out=prod[:, b:b + c])
        d = prod[:, :w].view(_U).reshape(_DIGITS, f, w)  # _MAGIC + S_p
        tw, g, s = word[:, :w], guard[:, :w], shifted[:, :w]
        np.right_shift(d[0], _U(16), out=g)  # the guard sum, plus _GUARD_MAGIC
        g += d[1]
        np.left_shift(d[2], _U(16), out=s)
        g += s
        np.right_shift(g, _U(32), out=tw)  # the top word, plus _TOP_MAGIC
        tw += d[3]
        for r in range(4, _DIGITS):
            np.left_shift(d[r], _U(16 * (r - 3)), out=s)
            tw += s
        tw -= _TOP_MAGIC
        tops[:, a:a + w] = tw
        guards[:, a:a + w] = g  # the low half: _GUARD_MAGIC has no bit below 32
    return tops, guards


def _frac_tops(xl: np.ndarray, block: _Block) -> np.ndarray:
    """Bits ``[B-64, B)`` of ``f * x mod 2**B``, as uint64 words, for each f of the block.

    ``xl`` holds the limbs of x (:func:`_x_limbs`); row k of the result
    holds the values of ``block.fs[k]`` at every column of xl.  See the
    module docstring for the two branches and for why the result is exact.
    """
    tops, guards = (_digit_tops if block.limb is None else _limb_tops)(xl, block)
    # a 2-D np.nonzero here added 1.6 ms to a q = 2 clt_sample of 8,192 points
    rows, cols = np.divmod(np.flatnonzero(guards >= block.slack[:, None]), xl.shape[1])
    for k in set(rows.tolist()):
        tops[k, cols[rows == k]] = _bigint_tops(xl[:, cols[rows == k]], block.fs[k])
    return tops


def _sines(freqs, xl: np.ndarray) -> Iterator[np.ndarray]:
    """``sin(2 pi (f x mod 1))`` for freqs in order at the points of xl.

    Yields one block's rows (:func:`_blocks`) at a time, a row per frequency.
    Here alone a top word becomes a double: numpy converts uint64 to float64
    with round-to-nearest-even, as Python's ``float(int)`` does (all ones
    round to ``2**64``), and times ``_ANGLE``, ``2 pi 2**-64``, it is
    ``TWO_PI * (word * 2**-64)`` bit for bit: a power of two scales exactly.
    """
    for block in _blocks(freqs, xl):
        t = _frac_tops(xl, block).astype(np.float64)
        t *= _ANGLE
        yield np.sin(t, out=t)


def clt_sample(
    seq: IndexSequence,
    n: int,
    m: int,
    norm: str = "sqrtN_over_2",
    perm: Permutation | None = None,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Monte Carlo law of the normalized trigonometric sum, one value per sample.

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
        for rows in _sines(freqs, xl):
            for row in rows:
                acc += row
        return acc / divisor

    return map_chunks(m, run, threads)


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

    Point i is the B-bit little-endian concatenation of words 1..B/64
    (``rng._words``) of the stream ``derive_seed(seed, "lil-x", i)``, with B
    ``required_bits(n_{n_max})``; points run in ``map_chunks`` chunks, which bound xs.
    """
    if n_max < 3:
        raise LabError("bad-count", "need N_max >= 3 for log log N")
    if n_max > len(seq):
        raise LabError("bad-count", "N_max exceeds sequence length")
    bits = required_bits(seq.values[n_max - 1])
    first = []  # L_N of point 0, from the chunk that holds it

    def run(start: int, count: int) -> np.ndarray:
        traj = _lil_limbs(seq.values[:n_max], _x_limbs(seed, "lil-x", start, count, bits))
        if start == 0:
            first.append(traj.first)
        return traj.max_values

    max_values = map_chunks(xs, run)
    return LilTrajectory(first[0], max_values, bits)


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
    for t in _sines(freqs, xl):
        t[0] += s
        t = np.cumsum(t, axis=0)
        s = t[-1]
        skip = max(2 - done, 0)  # rows of S_1 and S_2
        if skip < len(t):
            span = slice(done + skip - 2, done + len(t) - 2)
            l_n = t[skip:] / divisors[span, None]
            first[span] = l_n[:, 0]
            peak = l_n[l_n.argmax(axis=0), np.arange(points)]
            best = np.where(peak > best, peak, best)
        done += len(t)
    return LilTrajectory(first, best, 32 * len(xl))
