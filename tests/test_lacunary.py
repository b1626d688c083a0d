"""Fixed-point reduction, trigonometric sums, Monte Carlo distributions."""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permutalab import (
    LabError,
    MixedNormal,
    clt_sample,
    empirical_measure,
    gen_hadamard,
    ks_distance,
    lil_trajectory,
)
from permutalab import lacunary
from permutalab.lacunary import (
    DEFAULT_BITS,
    TWO_PI,
    _ANGLE,
    _DIGITS,
    _ROWS,
    _blocks,
    _frac_tops,
    _lil_limbs,
    _x_limbs,
    ceil_log2,
    required_bits,
)
from permutalab.parallel import BLOCK_ELEMENTS, map_chunks
from permutalab.rng import GOLDEN, Stream, derive_seed, derive_seed_vec, mix64_vec
from permutalab.sequences import (
    IndexSequence,
    block_interleave_permutation,
    permutation,
)


# -- bigint oracles ---------------------------------------------------------
# The per-point Python-integer fixed-point layer the package used before its
# one limb kernel, kept verbatim: the references that the kernel and the LIL
# driver must match bit for bit.


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


@dataclass(frozen=True)
class BigintLilTrajectory:
    """Running law-of-the-iterated-logarithm statistic along one sample point."""

    points: tuple[tuple[int, float], ...]
    max_value: float


def lil_trajectory_bigint(seq: IndexSequence, x: FixedPointX, n_max: int) -> BigintLilTrajectory:
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
    return BigintLilTrajectory(tuple(points), best)


class TestFixedPoint:
    def test_dyadic_annihilation(self):
        x = FixedPointX.from_fraction(1, 2)
        assert frac_mul(x, 2).value == 0
        x = FixedPointX.from_fraction(1, 4)
        assert frac_mul(x, 8).value == 0

    def test_third_times_four(self):
        x = FixedPointX.from_fraction(1, 3)
        got = frac_mul(x, 4).to_fraction()
        assert abs(got - Fraction(1, 3)) <= Fraction(1, 2 ** (x.bits - 2))

    def test_precision_exhausted(self):
        x = FixedPointX(0, bits=128)
        with pytest.raises(LabError) as err:
            frac_mul(x, 1 << 64)
        assert err.value.token == "precision-exhausted"

    def test_rational_oracle_error_bound(self):
        # random rationals with denominator <= 1e6: exact arithmetic agrees
        # within the documented bound 2**-(B - ceil(log2 n))
        stream = Stream(8080)
        for _ in range(1000):
            den = 2 + stream.below(999_999)
            num = stream.below(den)
            n = 1 + stream.below(10**9)
            x = FixedPointX.from_fraction(num, den)
            got = frac_mul(x, n).to_fraction()
            want = (Fraction(num, den) * n) % 1
            err = min(abs(got - want), 1 - abs(got - want))  # circular distance
            assert err <= Fraction(1, 2 ** (x.bits - ceil_log2(max(n, 2))))

    def test_required_bits(self):
        assert required_bits(2**100) == 256
        assert required_bits(2**255) == 320
        assert required_bits(2**4095) == 4160

    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 8, 9)] == [0, 1, 2, 3, 4]


UNIT_SINE = FourierFunction(sin_coeffs=(1.0,))


def sine_sum_loop(freqs, x: FixedPointX) -> float:
    """Sum of sin(2 pi n x) over sorted frequencies, written out as a loop."""
    total = 0.0
    for n in sorted(freqs):
        total += math.sin(TWO_PI * frac_mul(x, n).to_float())
    return total


class TestTrigSum:
    """The sine sum is ``f_sum`` of the unit sine."""

    def test_x_zero(self):
        assert f_sum(UNIT_SINE, [1, 5, 9], FixedPointX(0)) == 0.0

    def test_x_half(self):
        # sin of integer multiples of pi
        assert abs(f_sum(UNIT_SINE, [3, 7, 11], FixedPointX.from_fraction(1, 2))) < 1e-12

    def test_hand_value_third(self):
        # sin(4 pi/3) + sin(8 pi/3) = 0
        assert abs(f_sum(UNIT_SINE, [2, 4], FixedPointX.from_fraction(1, 3))) < 1e-9

    def test_order_invariance_exact(self):
        x = FixedPointX.from_fraction(17, 97)
        freqs = [3, 1, 16, 9, 27]
        assert f_sum(UNIT_SINE, freqs, x) == f_sum(UNIT_SINE, list(reversed(freqs)), x)
        assert f_sum(UNIT_SINE, freqs, x) == f_sum(UNIT_SINE, sorted(freqs), x)

    def test_fourier_consistency_with_sine(self):
        # 0.0 + 1.0 * s differs from s only at s = -0.0, and a total that
        # starts at +0.0 never becomes -0.0, so the two sums agree exactly
        stream = Stream(21)
        for _ in range(300):
            x = FixedPointX.random(stream, 512)
            freqs = [1 + stream.bits(1 + stream.below(400)) for _ in range(1 + stream.below(12))]
            assert f_sum(UNIT_SINE, freqs, x) == sine_sum_loop(freqs, x)
        x = FixedPointX.from_fraction(5, 13)
        assert f_sum(UNIT_SINE, [1, 2, 4, 8], x) == sine_sum_loop([1, 2, 4, 8], x)

    def test_pure_sine_at_zero(self):
        f = FourierFunction(sin_coeffs=(0.3, 0.7))
        assert f_sum(f, [1, 2, 4], FixedPointX(0)) == 0.0

    def test_cos_hand_value(self):
        # cos(pi/2) + cos(pi) = -1
        f = FourierFunction(cos_coeffs=(1.0,))
        x = FixedPointX.from_fraction(1, 4)
        assert f_sum(f, [1, 2], x) == pytest.approx(-1.0, abs=1e-12)

    def test_l2_norm(self):
        f = FourierFunction(cos_coeffs=(1.0,), sin_coeffs=(2.0,))
        assert f.l2_norm_sq() == pytest.approx(2.5)


def arcsine_cdf(t: float) -> float:
    """Law of sqrt(2) sin(2 pi U): F(t) = 1/2 + arcsin(t / sqrt 2) / pi."""
    z = t / math.sqrt(2.0)
    if z <= -1.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    return 0.5 + math.asin(z) / math.pi


class TestCltSample:
    SEQ = gen_hadamard(2, 1, 600)

    def test_single_term_arcsine_law(self):
        sample = clt_sample(gen_hadamard(2, 1, 1), 1, 20_000, seed=5)
        vals = np.sort(sample.values)
        emp = np.arange(1, len(vals) + 1) / len(vals)
        want = np.array([arcsine_cdf(v) for v in vals])
        assert np.max(np.abs(emp - want)) < 0.015  # DKW at M=2e4

    def test_deterministic(self):
        a = clt_sample(self.SEQ, 16, 100, seed=11)
        b = clt_sample(self.SEQ, 16, 100, seed=11)
        assert a.values.tobytes() == b.values.tobytes()

    def test_thread_count_invariance(self):
        a = clt_sample(self.SEQ, 16, 9000, seed=11, threads=1)
        b = clt_sample(self.SEQ, 16, 9000, seed=11, threads=4)
        assert a.values.tobytes() == b.values.tobytes()

    def test_permutation_fixing_prefix_is_identical(self):
        # any permutation mapping {1..N} onto itself gives bit-identical
        # samples: the summation order is canonicalized
        n = 16
        perm = permutation("reverse", n)
        a = clt_sample(self.SEQ, n, 200, seed=3)
        b = clt_sample(self.SEQ, n, 200, perm=perm, seed=3)
        assert a.values.tobytes() == b.values.tobytes()

    def test_block_perm_changes_index_set(self):
        perm = block_interleave_permutation(32, 4)
        a = clt_sample(self.SEQ, 16, 200, seed=3)
        b = clt_sample(self.SEQ, 16, 200, perm=perm, seed=3)
        assert a.values.tobytes() != b.values.tobytes()

    def test_variance_orthogonality(self):
        # distinct sine frequencies are orthogonal: Var S_N = N/2, so the
        # normalized variance is 1; quadrature oracle below confirms N/2
        n = 64
        sample = clt_sample(self.SEQ, n, 20_000, seed=21)
        assert abs(sample.values.var() - 1.0) < 0.05

    def test_variance_quadrature_oracle(self):
        # integral of (sum sin(2 pi n x))^2 over [0,1] equals N/2 for
        # distinct frequencies; midpoint rule on a fine grid
        freqs = [1, 2, 4]
        grid = (np.arange(20_000) + 0.5) / 20_000
        s = sum(np.sin(2 * np.pi * f * grid) for f in freqs)
        assert np.mean(s**2) == pytest.approx(1.5, abs=1e-6)

    def test_norm_variants(self):
        a = clt_sample(self.SEQ, 8, 50, norm="sqrtN_over_2", seed=2)
        b = clt_sample(self.SEQ, 8, 50, norm="sqrtN", seed=2)
        ratio = a.values / b.values
        assert np.allclose(ratio, math.sqrt(2.0))

    def test_ks_at_moderate_n(self):
        sample = clt_sample(self.SEQ, 128, 20_000, seed=77)
        ks = ks_distance(empirical_measure(sample), MixedNormal.standard())
        assert ks < 0.05

    def test_bad_norm(self):
        with pytest.raises(LabError) as err:
            clt_sample(self.SEQ, 4, 10, norm="none", seed=1)
        assert err.value.token == "bad-norm"


# -- bigint oracle of the kernel ------------------------------------------
# Per-sample Python-int computation of clt_sample's values: the reference
# that its kernel must match bit for bit.

_U = np.uint64


def _assemble_xs(seed: int, start: int, count: int, words: int, bits: int) -> list[int]:
    """Fixed-point sample values for sample indices [start, start+count)."""
    seeds = derive_seed_vec(seed, np.arange(start, start + count), "clt-x")
    cols = (np.arange(1, words + 1, dtype=np.uint64)) * _U(GOLDEN)
    u = mix64_vec(seeds[:, None] + cols[None, :])
    mask = (1 << bits) - 1
    out = []
    for row in u:
        v = 0
        for w in range(words):
            v |= int(row[w]) << (64 * w)
        out.append(v & mask)
    return out


def _clt_bigint_reference(seq, n, m, perm=None, seed=0, threads=1):
    """Values of ``clt_sample(seq, n, m, perm=perm, seed=seed)``."""
    indices = range(1, n + 1) if perm is None else perm.image[:n]
    freqs = sorted(seq.values[i - 1] for i in indices)
    b = required_bits(freqs[-1])
    divisor = math.sqrt(n / 2.0)
    words = b // 64
    mask = (1 << b) - 1
    shift = b - 64

    def run(start: int, count: int) -> np.ndarray:
        xs = _assemble_xs(seed, start, count, words, b)
        acc = np.zeros(count)
        for f in freqs:
            tops = np.fromiter(
                (((f * x) & mask) >> shift for x in xs), dtype=np.float64, count=count
            )
            acc += np.sin(TWO_PI * (tops * 2.0**-64))
        return acc / divisor

    values = map_chunks(m, run, threads)
    return tuple(float(v) for v in values)


DOUBLING = gen_hadamard(2, 1, 512)
Q15 = gen_hadamard(1.5, 1, 512)


def _all_limbs_sequence(bits: int) -> IndexSequence:
    """Small frequencies plus 2**(bits-65) - 1, whose 32-bit limbs are all nonzero."""
    top = 2 ** (bits - 65) - 1
    assert all((top >> (32 * j)) & 0xFFFFFFFF for j in range((bits - 65 + 31) // 32))
    return IndexSequence((1, 3, 5, 2**40 + 7, top))


def _with_top(seq: IndexSequence, n: int, top: int) -> IndexSequence:
    """The first n terms of seq and then top, which alone sets B = required_bits(top)."""
    return IndexSequence(seq.values[:n] + (top,))


@pytest.mark.parametrize(
    "seq, n, perm, m, threads",
    [
        (DOUBLING, 128, None, 4096, 1),
        (DOUBLING, 128, None, 8193, 2),
        (Q15, 128, block_interleave_permutation(512, 32), 4097, 2),
        (Q15, 128, block_interleave_permutation(512, 32), 1, 1),
        (Q15, 256, None, 4095, 1),
        (_with_top(DOUBLING, 63, 2**255), 64, None, 4097, 1),
        (_with_top(Q15, 127, 2**255 - 3**100), 128, None, 4096, 2),
        (_with_top(DOUBLING, 127, 2**319 - 2**64 + 1), 128, None, 1, 2),
        (_with_top(Q15, 127, 2**318 + 12345), 128, None, 4095, 2),
        (_all_limbs_sequence(256), 5, None, 4097, 2),
        (_all_limbs_sequence(320), 5, None, 4095, 1),
        (_all_limbs_sequence(384), 5, None, 4097, 2),
    ],
    ids=[
        "doubling-N128-M4096-t1",
        "doubling-N128-M8193-t2",
        "q1.5-block32-M4097-t2",
        "q1.5-block32-M1-t1",
        "q1.5-N256-M4095-t1",
        "doubling-B320-M4097-t1",
        "q1.5-B320-M4096-t2",
        "doubling-B384-M1-t2",
        "q1.5-B384-M4095-t2",
        "all-limbs-B256-M4097-t2",
        "all-limbs-B320-M4095-t1",
        "all-limbs-B384-M4097-t2",
    ],
)
def test_clt_sample_matches_bigint_oracle(seq, n, perm, m, threads):
    got = clt_sample(seq, n, m, perm=perm, seed=7, threads=threads)
    want = _clt_bigint_reference(seq, n, m, perm=perm, seed=7, threads=threads)
    assert got.values.tobytes() == np.asarray(want, dtype=float).tobytes()


_Q15_DIGEST = """
import hashlib
from permutalab import clt_sample, gen_hadamard
from permutalab.sequences import permutation

seq = gen_hadamard(1.5, 1, 512)
sample = clt_sample(seq, 128, 4097, perm=permutation("block:32", 512), seed=7, threads=2)
print(hashlib.sha256(sample.values.tobytes()).hexdigest())
"""


def test_clt_sample_bytes_do_not_depend_on_the_blas_threads():
    # the digit branch's matrix products are exact in any summation order,
    # so OpenBLAS on one thread and at its default give the same bytes
    src = str(Path(lacunary.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    digests = [
        subprocess.run(
            [sys.executable, "-c", _Q15_DIGEST], env=run_env, capture_output=True, text=True,
            check=True, timeout=300,
        ).stdout
        for run_env in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env)
    ]
    seq = gen_hadamard(1.5, 1, 512)
    here = clt_sample(seq, 128, 4097, perm=permutation("block:32", 512), seed=7, threads=2)
    assert digests == [hashlib.sha256(here.values.tobytes()).hexdigest() + "\n"] * 2


def test_clt_sample_precision_is_set_by_the_largest_frequency():
    # the B-setting term is summed only when it is among the first n terms
    seq = _with_top(DOUBLING, 127, 2**319 - 2**64 + 1)
    assert [required_bits(max(seq.values[:n])) for n in (127, 128)] == [256, 384]
    for n in (127, 128):
        got = clt_sample(seq, n, 300, seed=2)
        want = _clt_bigint_reference(seq, n, 300, seed=2)
        assert got.values.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("bits", [256, 320, 384, 4160])
def test_x_limbs_reassemble_to_bigint_points(bits):
    xl = _x_limbs(5, "clt-x", 4090, 9, bits)
    assert xl.shape == (bits // 32, 9)
    got = [sum(int(v) << (32 * i) for i, v in enumerate(col)) for col in xl.T]
    assert got == _assemble_xs(5, 4090, 9, bits // 64, bits)


@pytest.mark.parametrize("bits", [256, 320, 384, 4160])
def test_x_limbs_are_the_stream_bits_of_their_label(bits):
    xl = _x_limbs(9, "lil-x", 3, 4, bits)
    got = [sum(int(v) << (32 * i) for i, v in enumerate(col)) for col in xl.T]
    assert got == [Stream(derive_seed(9, "lil-x", i)).bits(bits) for i in range(3, 7)]


def _limbs(xs: list[int], bits: int) -> np.ndarray:
    rows = bits // 32
    return np.array(
        [[(x >> (32 * i)) & 0xFFFFFFFF for x in xs] for i in range(rows)], dtype=np.uint64
    )


def _top_floats(xs: list[int], f: int, bits: int) -> list[float]:
    return [float(frac_mul(FixedPointX(x, bits), f).value >> (bits - 64)) for x in xs]


def _one_block(xl: np.ndarray, fs: list[int]) -> np.ndarray:
    """``_frac_tops`` of fs as a single block (few points: the budget never splits it)."""
    [block] = _blocks(fs, xl)
    return _frac_tops(xl, block)


@contextlib.contextmanager
def _counting_recomputes():
    """Record (frequency, columns) of each call of the kernel's bigint recompute."""
    original = lacunary._bigint_tops
    seen = []

    def spy(xl, f):
        seen.append((f, xl.shape[1]))
        return original(xl, f)

    lacunary._bigint_tops = spy
    try:
        yield seen
    finally:
        lacunary._bigint_tops = original


_LIMB_VALUES = st.one_of(st.just(0), st.just(0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))


def _precisions(max_bits: int = 4160):
    """The precisions the program runs at: multiples of 64 from 256 to max_bits."""
    return st.integers(4, max_bits // 64).map(lambda words: 64 * words)


@st.composite
def _limb_runs(draw, bits: int):
    """A B-bit integer made of runs of equal 32-bit limbs: zeros, all ones or random."""
    limbs: list[int] = []
    while len(limbs) < bits // 32:
        limbs += [draw(_LIMB_VALUES)] * draw(st.integers(1, 40))
    return sum(v << (32 * i) for i, v in enumerate(limbs)) & ((1 << bits) - 1)


@st.composite
def _limb_cases(draw):
    """(bits, f, xs) with f < 2**(bits - 65), as ``required_bits`` allows at bits."""
    bits = draw(_precisions())
    f_max = 2 ** (bits - 65)
    f = draw(
        st.one_of(
            st.just(f_max),
            st.integers(1, f_max),
            _limb_runs(bits).map(lambda v: 1 + v % f_max),
        )
    )
    x = st.one_of(st.just(2**bits - 1), st.just(0), st.integers(0, 2**bits - 1), _limb_runs(bits))
    xs = draw(st.lists(x, min_size=1, max_size=5))
    return bits, f, xs


@st.composite
def _guard_cases(draw):
    """(bits, f, xs) with the guard digit of ``f * x`` in the kernel's slack.

    The kernel's guard row is row ``B/32 - 3`` of the product.
    Each x is solved from a target ``f * x mod 2**B`` whose guard row is
    all ones (so that the formed guard digit is at least the slack,
    ``2**32 - 2`` for a one-limb f and ``2**32 - 1 - e`` for f of e nonzero
    16-bit digits, whatever the skipped carry) or a small value (so that
    the skipped carry wraps it); the first x always takes the all-ones row.
    """
    bits = draw(_precisions())
    guard = bits // 32 - 3
    s = draw(st.integers(0, min(32 * guard, bits - 65) - 1))
    u = draw(st.one_of(st.just(1), st.integers(0, 2 ** (bits - 65 - s) - 1))) | 1
    assume(u << s <= 2 ** (bits - 65))
    f = u << s
    digits = st.one_of(st.integers(0, 300), st.integers(2**32 - 300, 2**32 - 1))
    xs = []
    for digit in [0xFFFFFFFF] + draw(st.lists(digits, max_size=4)):
        rest = draw(st.integers(0, 2**bits - 1))
        target = (rest & ~(0xFFFFFFFF << (32 * guard)) | digit << (32 * guard)) >> s << s
        xs.append((target >> s) * pow(u, -1, 2 ** (bits - s)) % 2 ** (bits - s))
    return bits, f, xs


@st.composite
def _one_limb(draw, bits: int):
    """A frequency allowed at bits with exactly one nonzero 32-bit limb."""
    k = draw(st.integers(0, (bits - 65) // 32))
    return draw(st.integers(1, 2 ** min(32, bits - 65 - 32 * k))) << (32 * k)


@st.composite
def _block_cases(draw, max_bits: int = 1100):
    """(bits, fs, xs): a block that mixes one-limb and several-limb frequencies."""
    bits = draw(_precisions(max_bits))
    f_max = 2 ** (bits - 65)
    many = st.one_of(
        st.just(f_max - 1), st.integers(2**32, f_max), _limb_runs(bits).map(lambda v: 1 + v % f_max)
    )
    fs = draw(st.lists(_one_limb(bits), min_size=1, max_size=4))
    fs += draw(st.lists(many, min_size=1, max_size=4))
    fs = draw(st.permutations(fs))
    x = st.one_of(st.just(2**bits - 1), st.integers(0, 2**bits - 1), _limb_runs(bits))
    return bits, fs, draw(st.lists(x, min_size=1, max_size=5))


def _nonzero_limbs(f: int, bits: int) -> int:
    return sum((f >> (32 * j)) & 0xFFFFFFFF != 0 for j in range(bits // 32))


def _largest_array(fs, bits: int, points: int) -> int:
    """The largest array of one kernel call on fs at points columns, by the module's rule.

    A limb block's gather, ``_ROWS x F x points``; a digit block's output,
    ``F x points``, or its weight matrix, ``_DIGITS x F x (K + 1)``, K the x
    digits from ``D - 6 - (digits of the longest f)`` up, from a whole limb.
    """
    if max(_nonzero_limbs(f, bits) for f in fs) == 1:
        return _ROWS * len(fs) * points
    digits = bits // 16
    first = max(0, digits - 6 - max(-(-f.bit_length() // 16) for f in fs)) // 2 * 2
    return len(fs) * max(points, _DIGITS * (digits - first + 1))


@st.composite
def _wide(draw, bits: int):
    """A frequency allowed at bits with two or more nonzero 32-bit limbs, of any length."""
    length = draw(st.integers(33, bits - 65))
    top = 2 ** (length - 1)
    f = draw(
        st.one_of(
            st.just(2 ** (bits - 65)),
            st.just(2 * top - 1),
            st.integers(top, 2 * top - 1),
            _limb_runs(bits).map(lambda v: top | v % top),
        )
    )
    assume(_nonzero_limbs(f, bits) > 1)
    return f


@st.composite
def _digit_cases(draw):
    """(bits, fs, xs, points): one to four wide frequencies at 1 to 1,200 columns of xs."""
    bits = draw(_precisions())
    fs = draw(st.lists(_wide(bits), min_size=1, max_size=4))
    x = st.one_of(st.just(2**bits - 1), st.just(0), st.integers(0, 2**bits - 1), _limb_runs(bits))
    return bits, fs, draw(st.lists(x, min_size=1, max_size=5)), draw(st.integers(1, 1200))


@st.composite
def _digit_guard_cases(draw):
    """(bits, f, xs): an odd wide f and points x whose ``f * x mod 2**B`` has the
    guard row ``B/32 - 3`` and the 16-bit digit below it all ones."""
    bits = draw(_precisions())
    f = draw(_wide(bits)) | 1
    assume(f <= 2 ** (bits - 65) and _nonzero_limbs(f, bits) > 1)
    ones = (2**48 - 1) << (32 * (bits // 32 - 3) - 16)
    targets = draw(st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=4))
    return bits, f, [(t | ones) * pow(f, -1, 2**bits) % 2**bits for t in targets]


class TestLimbKernel:
    @settings(max_examples=200, deadline=None)
    @given(_block_cases())
    def test_block_rows_match_frac_mul(self, case):
        # frequencies with fewer limbs than the block's widest are padded
        # with zero weights; every row must still be its own frequency's
        bits, fs, xs = case
        got = _one_block(_limbs(xs, bits), fs)
        assert got.shape == (len(fs), len(xs))
        for row, f in zip(got, fs):
            assert row.tolist() == _top_floats(xs, f, bits)

    @settings(max_examples=150, deadline=None)
    @given(_guard_cases(), st.data())
    def test_guard_digit_of_a_later_block_member_is_recomputed(self, case, data):
        # a one-limb frequency leads the block, so a slack taken from the
        # block's first member (2 instead of e + 1) would miss the columns
        # where the skipped carry of f wraps its guard digit
        bits, f, xs = case
        others = st.lists(st.integers(1, 2 ** (bits - 65)), max_size=3)
        fs = [1] + data.draw(others, label="before") + [f] + data.draw(others, label="after")
        with _counting_recomputes() as seen:
            got = _one_block(_limbs(xs, bits), fs)
        for row, g in zip(got, fs):
            assert row.tolist() == _top_floats(xs, g, bits)
        assert f in [g for g, _ in seen]

    @settings(max_examples=40, deadline=None)
    @given(_block_cases(max_bits=400), st.sampled_from([8192, 32768]))
    def test_budget_split_blocks_match_frac_mul(self, case, points):
        # at 8,192 columns a limb block holds at most 3 frequencies and a
        # digit block at most 12, at 32,768 columns 1 and 3, so many of
        # these lists are cut; each cut is where the next frequency would
        # take the block's largest array past the budget
        bits, fs, xs = case
        xl = np.tile(_limbs(xs, bits), points // len(xs) + 1)[:, :points]
        blocks = _blocks(fs, xl)
        assert [f for b in blocks for f in b.fs] == fs
        for b in blocks:
            assert (b.limb is None) == (max(_nonzero_limbs(f, bits) for f in b.fs) > 1)
            assert len(b.fs) == 1 or _largest_array(b.fs, bits, points) <= BLOCK_ELEMENTS
        for b, nxt in zip(blocks, blocks[1:]):
            assert _largest_array([*b.fs, nxt.fs[0]], bits, points) > BLOCK_ELEMENTS
        got = np.concatenate([_frac_tops(xl, b) for b in blocks])
        for row, f in zip(got, fs):
            assert row.tolist() == (_top_floats(xs, f, bits) * (points // len(xs) + 1))[:points]

    @settings(max_examples=200, deadline=None)
    @given(_digit_cases())
    def test_digit_branch_matches_frac_mul(self, case):
        # frequencies of two or more nonzero limbs go through the matrix
        # product, over point tiles and the product's sub-tiles
        bits, fs, xs, points = case
        reps = points // len(xs) + 1
        xl = np.tile(_limbs(xs, bits), reps)[:, :points]
        [block] = _blocks(fs, xl)
        assert block.limb is None
        got = _frac_tops(xl, block)
        for row, f in zip(got, fs):
            assert row.tolist() == (_top_floats(xs, f, bits) * reps)[:points]
        # the formed guard digit sits at most e (f's nonzero 16-bit digits)
        # below the true one: a position formed short by one product would not
        _, guards = lacunary._digit_tops(xl, block)
        for row, f in zip(guards.tolist(), fs):
            e = sum((f >> (16 * j)) & 0xFFFF != 0 for j in range(bits // 16))
            true = [(f * x % 2**bits) >> (bits - 96) & 0xFFFFFFFF for x in xs] * reps
            assert all((t - g) % 2**32 <= e for t, g in zip(true, row))

    @settings(max_examples=150, deadline=None)
    @given(_digit_guard_cases())
    def test_digit_guard_row_and_the_digit_below_all_ones_is_recomputed(self, case):
        # the formed guard digit is at least 2**32 - 1 - e whatever the
        # carry the skipped positions would add, so every column is
        # recomputed, once, however the all-ones digit below it carries
        bits, f, xs = case
        xl = _limbs(xs, bits)
        [block] = _blocks([f], xl)
        assert block.limb is None
        with _counting_recomputes() as seen:
            got = _frac_tops(xl, block)[0]
        assert got.tolist() == _top_floats(xs, f, bits)
        assert seen == [(f, len(xs))]

    def test_frequency_of_too_many_digits_is_recomputed_at_every_column(self):
        # the guard sum of 52,000 digits near 2**16 - 1 wraps its uint64
        # word at most points; from _WIDEST digits on no column is read
        rng = np.random.default_rng(5)

        def high_digits(count: int) -> int:
            return int.from_bytes(rng.integers(0xF0, 0x100, 2 * count, dtype=np.uint8).tobytes(), "little")

        f = high_digits(52_000)
        bits = required_bits(f)
        xs = [high_digits(bits // 16) for _ in range(3)]
        limbs = [np.frombuffer(x.to_bytes(bits // 8, "little"), "<u4") for x in xs]
        xl = np.stack(limbs, axis=1).astype(np.uint64)
        [block] = _blocks([f], xl)
        assert block.slack.tolist() == [0]
        with _counting_recomputes() as seen:
            got = _frac_tops(xl, block)[0]
        assert got.tolist() == _top_floats(xs, f, bits)
        assert seen == [(f, 3)]

    @settings(max_examples=300, deadline=None)
    @given(_limb_cases())
    def test_matches_frac_mul(self, case):
        bits, f, xs = case
        got = _one_block(_limbs(xs, bits), [f])[0]
        assert got.tolist() == _top_floats(xs, f, bits)

    @settings(max_examples=300, deadline=None)
    @given(_guard_cases())
    def test_guard_digit_in_slack_is_recomputed(self, case):
        bits, f, xs = case
        with _counting_recomputes() as seen:
            got = _one_block(_limbs(xs, bits), [f])[0]
        assert got.tolist() == _top_floats(xs, f, bits)
        assert seen and all(g == f for g, _ in seen)

    def test_no_recompute_on_random_points(self):
        # a guard digit lands in the slack with probability about 2 m / 2**32
        xl = _x_limbs(3, "clt-x", 0, 4096, 384)
        with _counting_recomputes() as seen:
            for block in _blocks([1, 3, 2**200 + 12345, 2**319 - 1], xl):
                _frac_tops(xl, block)
        assert seen == []

    @settings(max_examples=200, deadline=None)
    @given(_precisions(640), st.data())
    def test_top_word_all_ones_rounds_to_two_to_64(self, bits, data):
        # pick x so that f * x mod 2**B has 64 leading ones, whatever the rest
        f = data.draw(st.integers(1, 2 ** (bits - 65)))
        assume(f % 2 == 1)
        rest = data.draw(st.integers(0, 2 ** (bits - 64) - 1))
        target = ((2**64 - 1) << (bits - 64)) | rest
        x = target * pow(f, -1, 2**bits) % 2**bits
        got = _one_block(_limbs([x], bits), [f])[0]
        assert got.tolist() == _top_floats([x], f, bits) == [2.0**64]

    def test_largest_frequency_and_point(self):
        for bits in (256, 320, 384, 4160):
            f = 2 ** (bits - 65)
            xs = [2**bits - 1, 1, 2 ** (bits - 1)]
            for g in (f, max(f - 1, 1), min(f, 2 ** ((bits - 65) // 2) + 1)):
                got = _one_block(_limbs(xs, bits), [g])[0]
                assert got.tolist() == _top_floats(xs, g, bits)

    def test_np_sin_equals_math_sin_on_kernel_outputs(self):
        # clt and lil sum np.sin of the kernel's outputs; their bytes equal
        # the math.sin of the bigint oracles only if the two agree bit for
        # bit.  They scale a top word by _ANGLE, one multiply, which equals
        # scaling it by 2**-64 first: a power of two scales exactly here
        xl = _x_limbs(11, "clt-x", 0, 4096, 320)
        blocks = _blocks(gen_hadamard(1.5, 1, 246).values, xl)
        tops = np.concatenate([_frac_tops(xl, block).ravel() for block in blocks])
        t = tops * 2.0**-64
        assert t.size >= 10**6
        assert (tops * _ANGLE).tobytes() == (TWO_PI * t).tobytes()
        got = np.sin(TWO_PI * t)
        want = np.array([math.sin(TWO_PI * v) for v in t.tolist()])
        assert got.tobytes() == want.tobytes()


def _lil_oracle(seq, n_max: int, xs: list[FixedPointX]) -> tuple[np.ndarray, np.ndarray]:
    """(first trajectory, maxima) of the bigint loop at the points xs."""
    trajs = [lil_trajectory_bigint(seq, x, n_max) for x in xs]
    first = np.array([v for _, v in trajs[0].points])
    return first, np.array([t.max_value for t in trajs])


class TestLilTrajectory:
    SEQ = gen_hadamard(2, 1, 64)

    def _at(self, *xs: FixedPointX):
        bits = xs[0].bits
        got = _lil_limbs(self.SEQ.values, _limbs([x.value for x in xs], bits))
        first, maxes = _lil_oracle(self.SEQ, 64, list(xs))
        assert got.first.tobytes() == first.tobytes()
        assert got.max_values.tobytes() == maxes.tobytes()
        return got

    def test_x_zero_all_zero(self):
        traj = self._at(FixedPointX(0, 256))
        assert not traj.first.any()

    def test_x_half_all_zero(self):
        traj = self._at(FixedPointX.from_fraction(1, 2, 256), FixedPointX(0, 256))
        assert np.all(np.abs(traj.first) < 1e-12)

    def test_needs_three_terms(self):
        with pytest.raises(LabError):
            lil_trajectory(self.SEQ, 1, 2)

    def test_points_range(self):
        traj = self._at(FixedPointX.from_fraction(1, 7, 256), FixedPointX.from_fraction(1, 2, 256))
        assert traj.first.shape == (62,)
        assert traj.max_values[0] == traj.first.max()

    def test_bad_counts(self):
        for xs, n_max in ((0, 10), (1, 65), (1, -1)):
            with pytest.raises(LabError) as err:
                lil_trajectory(self.SEQ, xs, n_max)
            assert err.value.token == "bad-count"


@pytest.mark.parametrize(
    "q, n_max, xs, seed",
    [(2, 3, 1, 0), (2, 600, 7, 4), (2, 4096, 3, 77), (1.5, 3, 2, 1), (1.5, 600, 7, 5),
     (1.5, 4096, 2, 77)],
)
def test_lil_matches_bigint_oracle(q, n_max, xs, seed):
    seq = gen_hadamard(q, 1, 4096)
    got = lil_trajectory(seq, xs, n_max, seed)
    assert got.bits == required_bits(seq.values[n_max - 1])
    points = [
        FixedPointX.random(Stream(derive_seed(seed, "lil-x", i)), got.bits) for i in range(xs)
    ]
    first, maxes = _lil_oracle(seq, n_max, points)
    assert got.first.tobytes() == first.tobytes()
    assert got.max_values.tobytes() == maxes.tobytes()
    # every point's trajectory, not only the first: rerun from each column
    xl = _x_limbs(seed, "lil-x", 0, xs, got.bits)
    if n_max <= 600:
        for i in range(1, xs):
            rest = _lil_limbs(seq.values[:n_max], xl[:, i:])
            assert rest.first.tobytes() == _lil_oracle(seq, n_max, points[i:i + 1])[0].tobytes()


def _first_wins_max(values) -> float:
    best = -math.inf
    for v in values:
        if v > best:
            best = v
    return best


@pytest.mark.parametrize("points", [1, 10, 200, 2000])
def test_lil_matches_bigint_oracle_around_a_block_boundary(points):
    # the first block ends at a different N for each point count: after
    # 541 terms at 1 and 10 points, where its weight matrix fills the
    # budget, 512 at 200, where its output does, and 12 at 2,000, a limb
    # block of the first 12 one-limb terms before a digit block; n_max
    # stops one before that edge, on it and one past it
    seq = gen_hadamard(1.5, 1, 1000)
    bits = required_bits(seq.values[-1])
    xs = [FixedPointX.random(Stream(derive_seed(13, "lil-x", i)), bits) for i in range(points)]
    xl = _limbs([x.value for x in xs], bits)
    blocks = _blocks(seq.values, xl)
    assert len(blocks) > 1
    assert (blocks[0].limb is None) == (points < 2000)
    edge = len(blocks[0].fs)
    trajs = [lil_trajectory_bigint(seq, x, edge + 1) for x in xs]
    for n_max in (edge - 1, edge, edge + 1):
        got = _lil_limbs(seq.values[:n_max], xl)
        first = np.array([v for _, v in trajs[0].points[: n_max - 2]])
        maxes = np.array([_first_wins_max(v for _, v in t.points[: n_max - 2]) for t in trajs])
        assert got.first.tobytes() == first.tobytes()
        assert got.max_values.tobytes() == maxes.tobytes()


def test_cumsum_along_rows_is_the_sequential_sum():
    # _lil_limbs takes each block's running sums with np.cumsum(axis=0),
    # seeded through its first row; that equals the term-by-term loop bit
    # for bit only if every column is added in order, with no pairwise or
    # reassociated summation (which heavy cancellation would expose)
    rng = np.random.default_rng(5)
    big = rng.standard_normal((3001, 7)) * 1e16
    t = np.empty_like(big)
    t[0::2] = big[0::2]
    t[1::2] = -big[0:-1:2] + rng.standard_normal((1500, 7))  # cancels its partner
    t += rng.standard_normal(t.shape) * 1e-3
    t[5:9] = 0.0
    t[0] += rng.standard_normal(7) * 1e20
    want = np.empty_like(t)
    s = np.zeros(7)
    for k, row in enumerate(t):
        s = s + row
        want[k] = s
    assert np.cumsum(t, axis=0).tobytes() == want.tobytes()
    assert want[-1].tolist() == [_sequential_sum(t[:, c]) for c in range(7)]
    # the data tells the orders apart: numpy's pairwise sum of each column differs
    assert (np.ascontiguousarray(t.T).sum(axis=1) != want[-1]).any()


def _sequential_sum(column) -> float:
    total = 0.0
    for v in column.tolist():
        total += v
    return total


def test_first_argmax_with_strict_greater_is_the_first_wins_loop():
    # _lil_limbs keeps each point's first largest L_N: the row of the first
    # maximum of a block (argmax) replaces the running best only when it is
    # strictly larger; ties, -0.0 against 0.0 included, keep the earlier one
    rng = np.random.default_rng(8)
    levels = np.array([-0.0, 0.0, -1.5, 1.5, 2.0])
    rows = levels[rng.integers(0, 3, size=(60, 400))]  # no positive level
    rows[:, 200:] = levels[rng.integers(0, 5, size=(60, 200))]
    start = np.array([-math.inf, -0.0, 0.0, -1.5, 1.5])[rng.integers(0, 5, size=400)]
    want = start.copy()
    for row in rows:
        want = np.where(row > want, row, want)
    got = start.copy()
    for block in np.split(rows, [1, 7, 30]):
        peak = block[block.argmax(axis=0), np.arange(400)]
        got = np.where(peak > got, peak, got)
    assert got.tobytes() == want.tobytes()
    zero = got == 0.0
    assert (zero & np.signbit(got)).any() and (zero & ~np.signbit(got)).any()
