"""Sequence generation, gap checks, Diophantine counting, permutations."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutalab import (
    IndexSequence,
    LabError,
    Permutation,
    apply_permutation,
    block_interleave_permutation,
    check_erdos,
    check_hadamard,
    count_diophantine,
    diophantine_growth_scan,
    gen_erdos,
    gen_hadamard,
    identity_permutation,
    random_permutation,
    reverse_permutation,
)
from permutalab.sequences import _check_c_alpha, _check_q, gap_report
from permutalab.rng import Stream


def brute_force_count(seq, a, b, c, n):
    vals = seq.values[:n]
    return sum(
        1 for vk in vals for vl in vals if a * vk + b * vl == c
    )


class TestGenerators:
    def test_doubling(self):
        assert gen_hadamard(2, 1, 5).values == (1, 2, 4, 8, 16)

    def test_ceil_recurrence(self):
        assert gen_hadamard(1.5, 2, 4).values == (2, 3, 5, 8)

    def test_erdos_hand_values(self):
        # k=1: ceil(10*2)=20; k=2: ceil(20*(1+2^-0.25))=37
        assert gen_erdos(1.0, 0.25, 10, 3).values == (10, 20, 37)

    def test_generators_pass_own_checkers(self):
        for q in (1.1, 1.5, 2.0, 3.7):
            seq = gen_hadamard(q, 3, 40)
            assert check_hadamard(seq, q)
            assert check_hadamard(seq, 1.0 + 1e-12)  # strict increase
        for c, alpha in ((0.5, 0.3), (1.0, 0.25), (2.0, 0.8)):
            seq = gen_erdos(c, alpha, 5, 40)
            assert check_erdos(seq, c, alpha)

    def test_strict_increase_near_q_one(self):
        seq = gen_hadamard(1.0000001, 1, 30)
        assert all(b > a for a, b in zip(seq.values, seq.values[1:]))
        assert check_hadamard(seq, 1.0 + 1e-12)

    def test_no_overflow_at_large_k(self):
        seq = gen_hadamard(2, 1, 200)
        assert seq.values[-1] == 2**199


class TestCheckers:
    def test_hadamard_true(self):
        assert check_hadamard(IndexSequence((2, 4, 8, 16)), 2)

    def test_hadamard_false(self):
        assert not check_hadamard(IndexSequence((1, 4, 9, 16)), 2)  # 16/9 < 2

    def test_bad_q(self):
        with pytest.raises(LabError) as err:
            check_hadamard(IndexSequence((1, 2, 4)), 1.0)
        assert err.value.token == "bad-q"

    def test_too_short(self):
        with pytest.raises(LabError) as err:
            check_hadamard(IndexSequence((5,)), 2.0)
        assert err.value.token == "too-short"

    def test_gap_report(self):
        assert gap_report(gen_hadamard(2, 1, 20)) == 2.0
        assert gap_report(IndexSequence((2, 3, 9))) == 1.5
        with pytest.raises(LabError) as err:
            gap_report(IndexSequence((5,)))
        assert err.value.token == "too-short"

    @pytest.mark.parametrize("q", [math.inf, math.nan, 1.0])
    def test_q_must_be_finite_above_one(self, q):
        with pytest.raises(LabError) as err:
            gen_hadamard(q, 1, 5)
        assert err.value.token == "bad-q"
        with pytest.raises(LabError) as err:
            check_hadamard(IndexSequence((1, 2, 4)), q)
        assert err.value.token == "bad-q"

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0])
    def test_c_must_be_finite_positive(self, c):
        with pytest.raises(LabError) as err:
            gen_erdos(c, 0.5, 1, 5)
        assert err.value.token == "bad-c"
        with pytest.raises(LabError) as err:
            check_erdos(IndexSequence((1, 2, 4)), c, 0.5)
        assert err.value.token == "bad-c"


# -- gap-condition oracles: the generators and checkers as they were before
# they shared ``_grow`` and ``_holds``, copied verbatim


def _ceil_frac_times_reference(q: Fraction, n: int) -> int:
    num = q.numerator * n
    den = q.denominator
    return -((-num) // den)


def gen_hadamard_reference(q: float, n1: int, count: int) -> IndexSequence:
    _check_q(q)
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    qf = Fraction(q)
    vals = [n1]
    for _ in range(count - 1):
        nxt = max(_ceil_frac_times_reference(qf, vals[-1]), vals[-1] + 1)
        vals.append(nxt)
    return IndexSequence(tuple(vals))


def gen_erdos_reference(c: float, alpha: float, n1: int, count: int) -> IndexSequence:
    _check_c_alpha(c, alpha)
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    vals = [n1]
    for k in range(1, count):
        factor = Fraction(1.0 + c * k ** (-alpha))
        nxt = max(_ceil_frac_times_reference(factor, vals[-1]), vals[-1] + 1)
        vals.append(nxt)
    return IndexSequence(tuple(vals))


def check_hadamard_reference(seq: IndexSequence, q: float) -> bool:
    _check_q(q)
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    qf = Fraction(q)
    vals = seq.values
    return all(
        vals[k + 1] * qf.denominator >= qf.numerator * vals[k]
        for k in range(len(vals) - 1)
    )


def check_erdos_reference(seq: IndexSequence, c: float, alpha: float) -> bool:
    _check_c_alpha(c, alpha)
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    vals = seq.values
    for k in range(1, len(vals)):
        bound = Fraction(1.0 + c * k ** (-alpha))
        if vals[k] * bound.denominator < bound.numerator * vals[k - 1]:
            return False
    return True


def _outcome(fn, *args):
    """The values or verdict ``fn`` returns, or the token it raises."""
    try:
        result = fn(*args)
    except LabError as exc:
        return exc.token
    return result.values if isinstance(result, IndexSequence) else result


# valid values (2.0, 1.5 and c = 1.0 give ratios exactly on the bound) and
# each kind of invalid one (bad-q, bad-c, bad-alpha)
_QS = st.one_of(
    st.floats(1.0, 4.0), st.sampled_from([2.0, 1.5, 1.0000001, 0.5, math.inf, math.nan])
)
_CS = st.one_of(st.floats(0.0, 3.0), st.sampled_from([1.0, 1e-9, math.inf, math.nan]))
_ALPHAS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-9, 0.999999, math.nan]))


class TestGapOracle:
    """The gap functions give the old sequences, verdicts and tokens."""

    @given(q=_QS, c=_CS, alpha=_ALPHAS, n1=st.integers(-1, 1000), count=st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_generators(self, q, c, alpha, n1, count):
        assert _outcome(gen_hadamard, q, n1, count) == _outcome(
            gen_hadamard_reference, q, n1, count
        )
        assert _outcome(gen_erdos, c, alpha, n1, count) == _outcome(
            gen_erdos_reference, c, alpha, n1, count
        )

    @given(q=_QS, c=_CS, alpha=_ALPHAS, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_checkers(self, q, c, alpha, data):
        # a sequence generated with the checked bound, one term of it possibly
        # lowered by 1 (a ratio just below the bound), or an arbitrary one
        source = data.draw(st.sampled_from(["hadamard", "erdos", "arbitrary"]))
        n1, count = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 40))
        try:
            if source == "hadamard":
                vals = list(gen_hadamard_reference(q, n1, count).values)
            elif source == "erdos":
                vals = list(gen_erdos_reference(c, alpha, n1, count).values)
        except LabError:
            source = "arbitrary"
        if source == "arbitrary":
            raw = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=30))
            vals = sorted(set(raw))
        i = data.draw(st.integers(0, len(vals) - 1))
        if data.draw(st.booleans()) and vals[i] - 1 > (vals[i - 1] if i else 0):
            vals[i] -= 1
        seq = IndexSequence(tuple(vals))
        assert _outcome(check_hadamard, seq, q) == _outcome(check_hadamard_reference, seq, q)
        assert _outcome(check_erdos, seq, c, alpha) == _outcome(
            check_erdos_reference, seq, c, alpha
        )


class TestDiophantine:
    SEQ = IndexSequence((2, 4, 8, 16, 32))

    def test_doubling_relation(self):
        assert count_diophantine(self.SEQ, 1, -2, 0, 5) == 4

    def test_sum_pairs(self):
        assert count_diophantine(self.SEQ, 1, 1, 12, 5) == 2

    def test_diagonal(self):
        for n in (1, 3, 5):
            assert count_diophantine(self.SEQ, 1, -1, 0, n) == n

    def test_degenerate(self):
        for a, b in ((0, 1), (1, 0)):
            with pytest.raises(LabError) as err:
                count_diophantine(self.SEQ, a, b, 3, 5)
            assert err.value.token == "degenerate-coefficient"

    def test_brute_force_oracle(self):
        stream = Stream(204)
        seqs = [gen_hadamard(1.3, 2, 12), gen_erdos(1.0, 0.4, 3, 12), self.SEQ]
        for _ in range(150):
            seq = seqs[stream.below(len(seqs))]
            a = stream.below(7) - 3 or 1
            b = stream.below(7) - 3 or -1
            c = stream.below(60) - 30
            n = 2 + stream.below(len(seq) - 1)
            assert count_diophantine(seq, a, b, c, n) == brute_force_count(seq, a, b, c, n)

    def test_swap_symmetry(self):
        stream = Stream(919)
        seq = gen_hadamard(1.5, 2, 15)
        for _ in range(60):
            a = stream.below(9) - 4 or 2
            b = stream.below(9) - 4 or -2
            c = stream.below(100) - 50
            n = 2 + stream.below(13)
            assert count_diophantine(seq, a, b, c, n) == count_diophantine(seq, b, a, c, n)

    def test_hadamard_sum_pairs_rare(self):
        # geometric growth separates sums: for a=b=1 any c is hit by at most
        # one unordered pair, i.e. ordered count in {0, 1, 2}
        seq = gen_hadamard(2, 1, 21)  # values up to 2^20 > 10^6
        for c in (3, 5, 6, 10, 24, 96, 3 * 2**15, 10**6, 10**6 + 1):
            cnt = count_diophantine(seq, 1, 1, c, 21)
            assert cnt in (0, 1, 2)

    def test_growth_scan(self):
        seq = gen_hadamard(2, 1, 100)
        rows = diophantine_growth_scan(seq, 1, -2, 0, [10, 100])
        assert rows[0] == (10, 9, 0.9)
        assert rows[1] == (100, 99, 0.99)

    def test_growth_scan_zero(self):
        seq = gen_hadamard(2, 2, 100)
        rows = diophantine_growth_scan(seq, 1, 1, 3, [10, 100])
        assert [cnt for _, cnt, _ in rows] == [0, 0]

    def test_scan_requires_increasing(self):
        seq = gen_hadamard(2, 1, 10)
        with pytest.raises(LabError):
            diophantine_growth_scan(seq, 1, 1, 3, [5, 5])

    def test_csv_round_trip(self):
        seq = gen_hadamard(2, 1, 80)
        assert IndexSequence.from_csv(seq.to_csv()) == seq


class TestPermutations:
    def test_reverse(self):
        assert reverse_permutation(3).image == (3, 2, 1)

    def test_block_interleave(self):
        assert block_interleave_permutation(4, 2).image == (1, 3, 2, 4)

    def test_block_divides(self):
        with pytest.raises(LabError) as err:
            block_interleave_permutation(10, 3)
        assert err.value.token == "bad-block"

    def test_random_deterministic(self):
        assert random_permutation(5, 9).image == random_permutation(5, 9).image

    def test_random_is_bijection(self):
        for seed in range(10):
            p = random_permutation(37, seed)
            assert sorted(p.image) == list(range(1, 38))

    def test_bad_image_rejected(self):
        with pytest.raises(LabError):
            Permutation((1, 1, 3))

    def test_apply_identity(self):
        seq = IndexSequence((1, 2, 4, 8))
        assert apply_permutation(seq, identity_permutation(4), 3) == (1, 2, 4)

    def test_apply_reverse(self):
        seq = IndexSequence((1, 2, 4))
        assert apply_permutation(seq, reverse_permutation(3), 3) == (4, 2, 1)

    def test_apply_multiset_invariant(self):
        seq = gen_hadamard(1.7, 3, 20)
        for seed in range(5):
            perm = random_permutation(20, seed)
            out = apply_permutation(seq, perm, 20)
            assert sorted(out) == list(seq.values)

    def test_apply_size_mismatch(self):
        seq = IndexSequence((1, 2))
        with pytest.raises(LabError) as err:
            apply_permutation(seq, reverse_permutation(3), 3)
        assert err.value.token == "perm-size"
