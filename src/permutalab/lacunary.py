"""Lacunary trigonometric sums in fixed-point arithmetic, with CLT/LIL runs.

The sample point x lives on [0, 1) as a B-bit fixed-point value, so
``n * x mod 1`` is a single integer multiply-and-mask.  When x is itself a
B-bit value (the case for all Monte Carlo draws here: uniforms are sampled
by drawing B raw bits), the reduction is exact; when x rounds an external
real, the absolute error after multiplying by n is at most
``2**-(B - ceil(log2 n))``.  A call with ``ceil(log2 n) >= B - 64`` raises
``precision-exhausted``: fewer than 64 significant fractional bits would
survive.  ``required_bits`` picks the smallest sufficient multiple of 64
for a given maximal frequency, which the Monte Carlo drivers use as their
default.

Summation order in all sums is canonicalized (frequencies sorted
ascending), so the floating-point value is exactly invariant under
permuting the summands, isolating distributional questions from float
noise.

``frac_mul`` and the scalar sums work on Python integers.  ``clt_sample``
evaluates the same reduction for a whole chunk of samples at once with a
numpy kernel on 32-bit limbs, and its values equal, bit for bit, those of
the per-sample bigint computation
``float((n * x mod 2**B) >> (B - 64)) * 2**-64``:

* x is held as ``ceil(B/32)`` rows of 32-bit limbs (one column per sample)
  in uint64 arrays; each frequency's nonzero 32-bit limbs are found once
  per call, so a power of two has a single limb.
* A single-limb frequency ``f_j`` is multiplied into the accumulator rows
  ``i + j`` whole: one product is at most ``(2**32 - 1)**2`` and a carry
  stays below ``2**32``, so no row can overflow.  A frequency with several
  limbs adds, for each of its limbs, the low half of every product
  ``x_i f_j`` to row ``i + j`` and the high half to row ``i + j + 1`` (the
  low half is added as the whole product minus the high half shifted
  back, in uint64 arithmetic mod ``2**64``).  A row then receives at most
  ``2 * (nonzero limbs of f)`` addends below ``2**32``, so the true row
  value is below ``2**64`` for any B the precision guard allows, and
  arithmetic mod ``2**64`` yields it exactly.
* One carry pass from the lowest nonzero limb of f upward normalizes the
  rows.  Rows above those of x are never formed, and reading bits
  ``[B - 64, B)`` from the two or three top rows into one uint64 drops
  the rest: that is the reduction mod ``2**B``.
* numpy converts uint64 to float64 with round-to-nearest-even, exactly as
  Python's ``float(int)`` does (a top word of all ones rounds to 2**64).

Each chunk's working memory is a few ``ceil(B/32) x CHUNK`` uint64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LabError
from .measures import EmpiricalSample
from .parallel import map_chunks
from .rng import GOLDEN, Stream, derive_seed_vec, mix64_vec
from .sequences import IndexSequence, Permutation, apply_permutation

TWO_PI = 2.0 * math.pi
DEFAULT_BITS = 256

_U = np.uint64


def ceil_log2(n: int) -> int:
    if n < 1:
        raise LabError("bad-count", "need n >= 1")
    return (n - 1).bit_length()


def required_bits(max_n: int, floor: int = DEFAULT_BITS) -> int:
    """Smallest multiple of 64 (and >= floor) usable with frequency max_n."""
    need = ceil_log2(max_n) + 65
    return max(floor, ((need + 63) // 64) * 64)


@dataclass(frozen=True)
class FixedPointX:
    """Point of [0, 1) with ``bits`` fractional bits: x = value / 2**bits."""

    value: int
    bits: int = DEFAULT_BITS

    def __post_init__(self):
        if self.bits < 64:
            raise LabError("bad-bits", "need at least 64 fractional bits")
        if not 0 <= self.value < (1 << self.bits):
            raise LabError("bad-bits", "value outside [0, 2**bits)")

    @classmethod
    def from_fraction(cls, num: int, den: int, bits: int = DEFAULT_BITS) -> "FixedPointX":
        """Nearest fixed-point neighbor of the rational num/den in [0, 1)."""
        if den <= 0:
            raise LabError("bad-bits", "denominator must be positive")
        num %= den
        value = ((num << bits) + den // 2) // den
        return cls(value & ((1 << bits) - 1), bits)

    @classmethod
    def random(cls, stream: Stream, bits: int = DEFAULT_BITS) -> "FixedPointX":
        return cls(stream.bits(bits), bits)

    def to_float(self) -> float:
        """Leading 64 bits as a double (error <= 2**-53)."""
        return float(self.value >> (self.bits - 64)) * 2.0**-64

    def to_fraction(self) -> Fraction:
        return Fraction(self.value, 1 << self.bits)


def frac_mul(x: FixedPointX, n: int) -> FixedPointX:
    """Fractional part of n*x at the same precision."""
    if n < 1:
        raise LabError("bad-count", "need n >= 1")
    if ceil_log2(n) >= x.bits - 64:
        raise LabError(
            "precision-exhausted",
            f"frequency needs {ceil_log2(n)} bits, x has only {x.bits}",
        )
    return FixedPointX((n * x.value) & ((1 << x.bits) - 1), x.bits)


@dataclass(frozen=True)
class FourierFunction:
    """Mean-zero 1-periodic trigonometric polynomial given by coefficients."""

    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __call__(self, t: float) -> float:
        val = 0.0
        for j, a in enumerate(self.cos_coeffs, start=1):
            val += a * math.cos(TWO_PI * j * t)
        for j, b in enumerate(self.sin_coeffs, start=1):
            val += b * math.sin(TWO_PI * j * t)
        return val

    def l2_norm_sq(self) -> float:
        """Integral of f^2 over one period."""
        return 0.5 * (
            sum(a * a for a in self.cos_coeffs) + sum(b * b for b in self.sin_coeffs)
        )


def f_sum(f: FourierFunction, seq_prefix, x: FixedPointX) -> float:
    """Sum of f(n x mod 1) over the prefix, in canonical (sorted) order."""
    total = 0.0
    for n in sorted(seq_prefix):
        total += f(frac_mul(x, n).to_float())
    return total


_M32 = _U(0xFFFFFFFF)


def _freq_plan(f: int) -> tuple[tuple[int, np.uint64], ...]:
    """Nonzero 32-bit limbs of f as ``(limb index, limb value)`` pairs."""
    plan = []
    j = 0
    while f:
        if f & 0xFFFFFFFF:
            plan.append((j, _U(f & 0xFFFFFFFF)))
        f >>= 32
        j += 1
    return tuple(plan)


def _x_limbs(seed: int, start: int, count: int, bits: int) -> np.ndarray:
    """32-bit limbs of the B-bit sample points of sample indices [start, start+count).

    Row ``i`` holds bits ``[32 i, 32 i + 32)`` of every sample's x.  The x of
    sample ``s`` is the little-endian concatenation of draws ``1..ceil(B/64)``
    of the stream ``derive_seed(seed, "clt-x", s)``, masked to B bits.
    """
    words = (bits + 63) // 64
    seeds = derive_seed_vec(seed, np.arange(start, start + count), "clt-x")
    cols = np.arange(1, words + 1, dtype=np.uint64) * _U(GOLDEN)
    u = mix64_vec(cols[:, None] + seeds[None, :])
    limbs = np.empty((2 * words, count), dtype=np.uint64)
    np.bitwise_and(u, _M32, out=limbs[0::2])
    np.right_shift(u, _U(32), out=limbs[1::2])
    limbs = limbs[: (bits + 31) // 32]
    if bits % 32:
        limbs[-1] &= _U((1 << (bits % 32)) - 1)
    return limbs


def _frac_tops(xl: np.ndarray, plan, bits: int, work: np.ndarray | None = None) -> np.ndarray:
    """Bits ``[B-64, B)`` of ``f * x mod 2**B``, as doubles, for every column of xl.

    ``xl`` holds the limbs of x (:func:`_x_limbs`), ``plan`` those of f
    (:func:`_freq_plan`); ``work`` is an optional ``(2,) + xl.shape`` uint64
    scratch array.  See the module docstring for why the result is exact.
    """
    nl = xl.shape[0]
    if work is None:
        work = np.empty((2,) + xl.shape, dtype=np.uint64)
    acc, prod = work
    j0, f0 = plan[0]
    if len(plan) == 1:
        np.multiply(xl[: nl - j0], f0, out=acc[j0:])
    else:
        acc[j0:] = 0
        for j, fj in plan:
            n = nl - j
            p = prod[:n]
            np.multiply(xl[:n], fj, out=p)
            acc[j:] += p
            p >>= _U(32)
            acc[j + 1 :] += p[: n - 1]
            p <<= _U(32)
            acc[j:] -= p
    row = prod[0]
    for k in range(j0, nl - 1):
        np.right_shift(acc[k], _U(32), out=row)
        acc[k + 1] += row
    lo, r = divmod(bits - 64, 32)
    top = acc[lo] & _M32
    if r == 0:
        top |= acc[lo + 1] << _U(32)
    else:
        top >>= _U(r)
        top |= (acc[lo + 1] & _M32) << _U(32 - r)
        top |= acc[lo + 2] << _U(64 - r)
    return top.astype(np.float64)


def clt_sample(
    seq: IndexSequence,
    n: int,
    m: int,
    norm: str = "sqrtN_over_2",
    perm: Permutation | None = None,
    seed: int = 0,
    bits: int | None = None,
    threads: int = 1,
) -> EmpiricalSample:
    """Monte Carlo law of the normalized trigonometric sum.

    Each of the m samples draws its own uniform x (a fresh B-bit value from
    the stream of its sample index) and evaluates
    ``sum sin(2 pi n_sigma(k) x) / norm`` over the first n terms of the
    (optionally permuted) sequence.
    """
    if n < 1 or n > len(seq):
        raise LabError("bad-count", "need 1 <= N <= len(seq)")
    if m < 1:
        raise LabError("bad-count", "need M >= 1")
    if norm == "sqrtN_over_2":
        divisor = math.sqrt(n / 2.0)
    elif norm == "sqrtN":
        divisor = math.sqrt(float(n))
    else:
        raise LabError("bad-norm", f"unknown normalization {norm!r}")
    freqs = sorted(seq.values[:n] if perm is None else apply_permutation(seq, perm, n))
    b = bits if bits is not None else required_bits(freqs[-1])
    if ceil_log2(freqs[-1]) >= b - 64:
        raise LabError("precision-exhausted", "bits too small for max frequency")
    plans = [_freq_plan(f) for f in freqs]

    def run(start: int, count: int) -> np.ndarray:
        xl = _x_limbs(seed, start, count, b)
        work = np.empty((2,) + xl.shape, dtype=np.uint64)
        acc = np.zeros(count)
        for plan in plans:
            acc += np.sin(TWO_PI * (_frac_tops(xl, plan, b, work) * 2.0**-64))
        return acc / divisor

    return EmpiricalSample(map_chunks(m, run, threads))


@dataclass(frozen=True)
class LilTrajectory:
    """Running law-of-the-iterated-logarithm statistic along one sample point."""

    points: tuple[tuple[int, float], ...]
    max_value: float


def lil_trajectory(seq: IndexSequence, x: FixedPointX, n_max: int) -> LilTrajectory:
    """L_N = S_N / sqrt(N log log N) for N = 3..n_max, plus its maximum."""
    if n_max < 3:
        raise LabError("bad-count", "need N_max >= 3 for log log N")
    if n_max > len(seq):
        raise LabError("bad-count", "N_max exceeds sequence length")
    s = 0.0
    points = []
    best = -math.inf
    for k in range(1, n_max + 1):
        s += math.sin(TWO_PI * frac_mul(x, seq.values[k - 1]).to_float())
        if k >= 3:
            l_k = s / math.sqrt(k * math.log(math.log(k)))
            points.append((k, l_k))
            if l_k > best:
                best = l_k
    return LilTrajectory(tuple(points), best)
