"""Fixed-point reduction, trigonometric sums, Monte Carlo distributions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permutalab import (
    FixedPointX,
    FourierFunction,
    LabError,
    MixedNormal,
    clt_sample,
    empirical_measure,
    f_sum,
    frac_mul,
    gen_hadamard,
    ks_distance,
    lil_trajectory,
    trig_sum,
)
from permutalab.lacunary import (
    TWO_PI,
    _frac_tops,
    _freq_plan,
    _x_limbs,
    ceil_log2,
    required_bits,
)
from permutalab.parallel import map_chunks
from permutalab.rng import GOLDEN, Stream, derive_seed_vec, mix64_vec
from permutalab.sequences import (
    IndexSequence,
    block_interleave_permutation,
    reverse_permutation,
)


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


class TestTrigSum:
    def test_x_zero(self):
        assert trig_sum([1, 5, 9], FixedPointX(0)) == 0.0

    def test_x_half(self):
        # sin of integer multiples of pi
        assert abs(trig_sum([3, 7, 11], FixedPointX.from_fraction(1, 2))) < 1e-12

    def test_hand_value_third(self):
        # sin(4 pi/3) + sin(8 pi/3) = 0
        assert abs(trig_sum([2, 4], FixedPointX.from_fraction(1, 3))) < 1e-9

    def test_order_invariance_exact(self):
        x = FixedPointX.from_fraction(17, 97)
        freqs = [3, 1, 16, 9, 27]
        assert trig_sum(freqs, x) == trig_sum(list(reversed(freqs)), x)
        assert trig_sum(freqs, x) == trig_sum(sorted(freqs), x)

    def test_fourier_consistency_with_sine(self):
        f = FourierFunction(sin_coeffs=(1.0,))
        x = FixedPointX.from_fraction(5, 13)
        freqs = [1, 2, 4, 8]
        assert f_sum(f, freqs, x) == pytest.approx(trig_sum(freqs, x), abs=1e-12)

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
        perm = reverse_permutation(n)
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


# -- bigint oracle of the limb kernel ------------------------------------
# Per-sample Python-int computation of clt_sample's values: the reference
# that its limb kernel must match bit for bit.

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


def _clt_bigint_reference(seq, n, m, perm=None, seed=0, bits=None, threads=1):
    """Values of ``clt_sample(seq, n, m, perm=perm, seed=seed, bits=bits)``."""
    indices = range(1, n + 1) if perm is None else perm.image[:n]
    freqs = sorted(seq.values[i - 1] for i in indices)
    b = bits if bits is not None else required_bits(freqs[-1])
    divisor = math.sqrt(n / 2.0)
    words = (b + 63) // 64
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
    assert len(_freq_plan(top)) == (bits - 65 + 31) // 32
    return IndexSequence((1, 3, 5, 2**40 + 7, top))


@pytest.mark.parametrize(
    "seq, n, perm, bits, m, threads",
    [
        (DOUBLING, 128, None, None, 4096, 1),
        (DOUBLING, 128, None, None, 8193, 2),
        (Q15, 128, block_interleave_permutation(512, 32), None, 4097, 2),
        (Q15, 128, block_interleave_permutation(512, 32), None, 1, 1),
        (Q15, 256, None, None, 4095, 1),
        (DOUBLING, 64, None, 200, 4097, 1),
        (Q15, 128, None, 200, 4096, 2),
        (DOUBLING, 128, None, 333, 1, 2),
        (Q15, 128, None, 333, 4095, 2),
        (_all_limbs_sequence(256), 5, None, None, 4097, 2),
        (_all_limbs_sequence(333), 5, None, 333, 4095, 1),
    ],
    ids=[
        "doubling-N128-M4096-t1",
        "doubling-N128-M8193-t2",
        "q1.5-block32-M4097-t2",
        "q1.5-block32-M1-t1",
        "q1.5-N256-M4095-t1",
        "doubling-bits200-M4097-t1",
        "q1.5-bits200-M4096-t2",
        "doubling-bits333-M1-t2",
        "q1.5-bits333-M4095-t2",
        "all-limbs-bits256-M4097-t2",
        "all-limbs-bits333-M4095-t1",
    ],
)
def test_clt_sample_matches_bigint_oracle(seq, n, perm, bits, m, threads):
    got = clt_sample(seq, n, m, perm=perm, seed=7, bits=bits, threads=threads)
    want = _clt_bigint_reference(seq, n, m, perm=perm, seed=7, bits=bits, threads=threads)
    assert got.values.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("bits", [65, 200, 256, 333, 384])
def test_x_limbs_reassemble_to_bigint_points(bits):
    xl = _x_limbs(5, 4090, 9, bits)
    assert xl.shape == ((bits + 31) // 32, 9)
    got = [sum(int(v) << (32 * i) for i, v in enumerate(col)) for col in xl.T]
    assert got == _assemble_xs(5, 4090, 9, (bits + 63) // 64, bits)


def _limbs(xs: list[int], bits: int) -> np.ndarray:
    rows = (bits + 31) // 32
    return np.array(
        [[(x >> (32 * i)) & 0xFFFFFFFF for x in xs] for i in range(rows)], dtype=np.uint64
    )


def _top_floats(xs: list[int], f: int, bits: int) -> list[float]:
    return [float(frac_mul(FixedPointX(x, bits), f).value >> (bits - 64)) for x in xs]


@st.composite
def _limb_cases(draw):
    """(bits, f, xs) with f allowed by the precision guard at bits."""
    bits = draw(st.integers(65, 640))
    f_max = 2 ** (bits - 65)
    f = draw(st.one_of(st.just(f_max), st.integers(1, f_max)))
    x = st.one_of(st.just(2**bits - 1), st.just(0), st.integers(0, 2**bits - 1))
    xs = draw(st.lists(x, min_size=1, max_size=5))
    return bits, f, xs


class TestLimbKernel:
    @settings(max_examples=300, deadline=None)
    @given(_limb_cases())
    def test_matches_frac_mul(self, case):
        bits, f, xs = case
        got = _frac_tops(_limbs(xs, bits), _freq_plan(f), bits)
        assert got.tolist() == _top_floats(xs, f, bits)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(65, 640), st.data())
    def test_top_word_all_ones_rounds_to_two_to_64(self, bits, data):
        # pick x so that f * x mod 2**B has 64 leading ones, whatever the rest
        f = data.draw(st.integers(1, 2 ** (bits - 65)))
        assume(f % 2 == 1)
        rest = data.draw(st.integers(0, 2 ** (bits - 64) - 1))
        target = ((2**64 - 1) << (bits - 64)) | rest
        x = target * pow(f, -1, 2**bits) % 2**bits
        got = _frac_tops(_limbs([x], bits), _freq_plan(f), bits)
        assert got.tolist() == _top_floats([x], f, bits) == [2.0**64]

    def test_largest_frequency_and_point(self):
        for bits in (65, 96, 128, 200, 256, 333, 4160):
            f = 2 ** (bits - 65)
            xs = [2**bits - 1, 1, 2 ** (bits - 1)]
            for g in (f, max(f - 1, 1), min(f, 2 ** ((bits - 65) // 2) + 1)):
                got = _frac_tops(_limbs(xs, bits), _freq_plan(g), bits)
                assert got.tolist() == _top_floats(xs, g, bits)

    def test_freq_plan_skips_zero_limbs(self):
        assert _freq_plan(1) == ((0, 1),)
        assert _freq_plan(2**100) == ((3, 2**4),)
        assert _freq_plan(2**64 + 5) == ((0, 5), (2, 1))


class TestLilTrajectory:
    SEQ = gen_hadamard(2, 1, 64)

    def test_x_zero_all_zero(self):
        traj = lil_trajectory(self.SEQ, FixedPointX(0), 64)
        assert all(v == 0.0 for _, v in traj.points)

    def test_x_half_all_zero(self):
        traj = lil_trajectory(self.SEQ, FixedPointX.from_fraction(1, 2), 64)
        assert all(abs(v) < 1e-12 for _, v in traj.points)

    def test_needs_three_terms(self):
        with pytest.raises(LabError):
            lil_trajectory(self.SEQ, FixedPointX(0), 2)

    def test_points_range(self):
        traj = lil_trajectory(self.SEQ, FixedPointX.from_fraction(1, 7), 64)
        assert traj.points[0][0] == 3
        assert traj.points[-1][0] == 64
        assert traj.max_value == max(v for _, v in traj.points)
