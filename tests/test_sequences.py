"""Sequence generation, gap checks, Diophantine counting, permutations."""

from __future__ import annotations

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
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
    permutation,
    random_permutation,
)
from permutalab import sequences
from permutalab.rng import derive_seed
from permutalab.sequences import _check_c_alpha, _check_q, gap_report

from stream import Stream


def fisher_yates_reference(n, stream):
    """The former ``random_permutation`` loop, verbatim but for its stream
    argument: the oracle of the counter-word reader."""
    arr = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return arr


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

    @pytest.mark.parametrize("cap", [50, 2000, 30_000])
    @pytest.mark.parametrize("make", [lambda n: gen_erdos(1, 0.5, 1, n),
                                      lambda n: gen_hadamard(1.5, 7, n)],
                             ids=["erdos", "hadamard"])
    def test_table_character_cap(self, monkeypatch, make, cap):
        # the cap bounds the table from the terms' bit lengths: a table that
        # passes it stops with too-large at the term that crosses it, and the
        # table one term shorter is written, within the cap
        monkeypatch.setattr(sequences, "TABLE_MAX_CHARS", cap)
        with pytest.raises(LabError) as err:
            make(10**5)
        assert err.value.token == "too-large"
        stop = int(str(err.value).split()[1])
        assert str(err.value) == f"term {stop} takes the table past {cap} characters"
        seq = make(stop - 1)
        bound = [v.bit_length() * 30103 // 100000 + 2 for v in seq.values]
        assert all(len(line) + 1 <= b for line, b in zip(seq.to_csv().splitlines(), bound))
        assert len(seq.to_csv()) <= sum(bound) <= cap
        with pytest.raises(LabError):
            make(stop)

    def test_table_character_cap_leaves_the_doubling_digit_limit_first(self):
        # doubling reaches the 4,300-digit limit near 30 million characters
        assert sequences.TABLE_MAX_CHARS == 2**29
        assert len(gen_hadamard(2, 1, 14_000)) == 14_000


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_alpha_must_be_in_the_open_unit_interval(self, alpha):
        with pytest.raises(LabError) as err:
            gen_erdos(1.0, alpha, 1, 5)
        assert err.value.token == "bad-alpha"
        with pytest.raises(LabError) as err:
            check_erdos(IndexSequence((1, 2, 4)), 1.0, alpha)
        assert err.value.token == "bad-alpha"


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 80), min_size=1, max_size=30, unique=True),
        st.integers(-4, 4).filter(bool),
        st.integers(-4, 4).filter(bool),
        st.integers(-90, 90),
        st.data(),
    )
    def test_scan_matches_per_n_counts(self, values, a, b, c, data):
        # the one-pass scan against one count_diophantine (and the brute
        # force) per N; small values and coefficients make solutions common
        seq = IndexSequence(tuple(sorted(values)))
        ns = sorted(data.draw(st.lists(st.integers(1, len(seq)), min_size=1, unique=True)))
        counts = [count_diophantine(seq, a, b, c, n) for n in ns]
        assert diophantine_growth_scan(seq, a, b, c, ns) == [
            (n, cnt, cnt / n) for n, cnt in zip(ns, counts)
        ]
        assert counts == [brute_force_count(seq, a, b, c, n) for n in ns]

    @pytest.mark.parametrize(
        "a, b, n_list, token",
        [(0, 1, [2, 3], "degenerate-coefficient"), (1, 0, [2], "degenerate-coefficient"),
         (1, 1, [0, 3], "bad-count"), (1, 1, [3, 11], "bad-count"), (1, 1, [4, 2], "bad-count")],
    )
    def test_scan_rejects(self, a, b, n_list, token):
        with pytest.raises(LabError) as err:
            diophantine_growth_scan(gen_hadamard(2, 1, 10), a, b, 3, n_list)
        assert err.value.token == token

    def test_csv_round_trip(self):
        seq = gen_hadamard(2, 1, 80)
        assert IndexSequence.from_csv(seq.to_csv()) == seq

    def test_csv_of_numpy_integers_is_plain_digits(self):
        seq = IndexSequence(tuple(np.array([1, 3, 2**40], dtype=np.int64)))
        assert seq.to_csv() == "1\n3\n1099511627776\n"

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int digit limit")
    def test_csv_past_the_digit_limit_is_too_large(self):
        limit = sys.get_int_max_str_digits()
        widest = IndexSequence((1, 10**limit - 1))
        assert IndexSequence.from_csv(widest.to_csv()) == widest
        assert IndexSequence.from_csv("1\n+" + "9" * limit + "\n") == widest
        with pytest.raises(LabError) as err:
            IndexSequence((1, 10**limit)).to_csv()
        assert err.value.token == "too-large"
        with pytest.raises(LabError) as err:
            IndexSequence.from_csv("1\n1" + "0" * limit + "\n")
        assert err.value.token == "too-large"

    def test_csv_with_a_non_integer_is_malformed_input(self):
        with pytest.raises(LabError) as err:
            IndexSequence.from_csv("1\n2\n4.5\n")
        assert err.value.token == "malformed-input"
        assert "line 3" in str(err.value)


class TestPermutations:
    def test_reverse(self):
        assert permutation("reverse", 3).image.tolist() == [3, 2, 1]

    def test_block_interleave(self):
        assert block_interleave_permutation(4, 2).image.tolist() == [1, 3, 2, 4]

    def test_block_divides(self):
        with pytest.raises(LabError) as err:
            block_interleave_permutation(10, 3)
        assert err.value.token == "bad-block"

    def test_random_deterministic(self):
        assert random_permutation(5, 9).image.tolist() == random_permutation(5, 9).image.tolist()

    def test_random_is_bijection(self):
        for seed in range(10):
            p = random_permutation(37, seed)
            assert sorted(p.image) == list(range(1, 38))

    @pytest.mark.parametrize(
        "image",
        [(1, 1, 3), (0, 1), (2, 3), (1.0, 2.0), ((1, 2), (2, 1)), ((1,), (2, 1)), (), 1,
         (True,), ("1", "2"), (2**64, 1), (-(2**63), 1)],
    )
    def test_bad_image_rejected(self, image):
        with pytest.raises(LabError) as err:
            Permutation(image)
        assert err.value.token == "bad-permutation"

    def test_bijection_check_holds_no_int64_copy(self):
        random_permutation(8, 3)
        tracemalloc.start()
        try:
            perm = random_permutation(2**20, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(perm) == 2**20
        # the 8 MiB shuffle array, its 8 MiB int64 copy and a 1 MiB mask;
        # np.sort, np.arange and np.array_equal took it to 33.5 MiB
        assert peak <= 18.5 * 2**20

    def test_empty_integer_image_is_accepted(self):
        assert len(Permutation(np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.int64])
    def test_image_is_a_read_only_int64_copy(self, dtype):
        given = np.array([2, 3, 1], dtype=dtype)
        perm = Permutation(given)
        given[0] = 1
        assert perm.image.dtype == np.int64 and perm.image.tolist() == [2, 3, 1]
        assert not perm.image.flags.writeable
        with pytest.raises(ValueError):
            perm.image[0] = 1

    @pytest.mark.parametrize("n", [1, 2, 4097, 70_000])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 + 3])
    def test_random_is_the_scalar_fisher_yates(self, n, seed):
        # 4,097 terms take exactly one 4,096-word block of counter words, 70,000 take 18
        want = fisher_yates_reference(n, Stream(derive_seed(seed, "permutation")))
        assert random_permutation(n, seed).image.tolist() == want

    @pytest.mark.parametrize("n", [3, 7, 100])
    def test_random_skips_a_word_at_or_above_the_limit(self, monkeypatch, n):
        # each step i whose range i + 1 does not divide 2**64 is first fed the
        # rejection limit itself and 2**64 - 1; both must be skipped
        fill = Stream(77)
        words = []
        for size in range(n, 1, -1):
            if 2**64 % size:
                words += [2**64 - 2**64 % size, 2**64 - 1]
            words.append(fill.u64())
        fed = iter(words)
        monkeypatch.setattr(sequences, "_counter_words", lambda seed: fed)
        oracle = Stream(0)
        oracle.u64 = iter(words).__next__
        assert random_permutation(n, 5).image.tolist() == fisher_yates_reference(n, oracle)
        assert next(fed, None) is None

    @pytest.mark.parametrize(
        "pattern, image",
        [
            ("identity", [1, 2, 3, 4, 5, 6]),
            ("reverse", [6, 5, 4, 3, 2, 1]),
            ("block:2", [1, 4, 2, 5, 3, 6]),
            ("block:3", [1, 3, 5, 2, 4, 6]),
            ("random:9", random_permutation(6, 9).image.tolist()),
        ],
    )
    def test_pattern_images(self, pattern, image):
        assert permutation(pattern, 6).image.tolist() == image

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("pattern", ["identity", "reverse", "block:2", "random:3"])
    def test_pattern_below_one_term_is_perm_size(self, monkeypatch, pattern, n):
        # every pattern refuses n < 1 alike, naming n, before a term is built:
        # identity and reverse used to build an empty permutation, block:2 an
        # empty one at 0 and bad-block at -1, and random:3 raised bad-count
        def built(image):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(sequences, "Permutation", built)
        with pytest.raises(LabError) as err:
            permutation(pattern, n)
        assert err.value.token == "perm-size"
        assert f"--perm-n {n} " in str(err.value)

    def test_window_is_the_zero_based_images(self):
        perm = Permutation((3, 1, 4, 2, 5))
        assert perm.window(0, 5).tolist() == [2, 0, 3, 1, 4]
        assert perm.window(1, 3).tolist() == [0, 3]
        assert perm.window(2, 2).tolist() == []

    def test_window_past_the_permutation_is_perm_size(self):
        with pytest.raises(LabError) as err:
            Permutation((2, 1, 3)).window(1, 4)
        assert err.value.token == "perm-size"

    def test_apply_identity(self):
        seq = IndexSequence((1, 2, 4, 8))
        assert apply_permutation(seq, permutation("identity", 4), 3) == (1, 2, 4)

    def test_apply_reverse(self):
        seq = IndexSequence((1, 2, 4))
        assert apply_permutation(seq, permutation("reverse", 3), 3) == (4, 2, 1)

    def test_apply_multiset_invariant(self):
        seq = gen_hadamard(1.7, 3, 20)
        for seed in range(5):
            perm = random_permutation(20, seed)
            out = apply_permutation(seq, perm, 20)
            assert sorted(out) == list(seq.values)

    @pytest.mark.parametrize("n", [0, -1])
    def test_apply_fewer_than_one_term_is_bad_count(self, n):
        # 0 used to end in max() of an empty window, and -1 returned all
        # but the last term
        seq = IndexSequence((1, 2, 4))
        with pytest.raises(LabError) as err:
            apply_permutation(seq, permutation("identity", 3), n)
        assert err.value.token == "bad-count"

    def test_apply_size_mismatch(self):
        seq = IndexSequence((1, 2))
        with pytest.raises(LabError) as err:
            apply_permutation(seq, permutation("reverse", 3), 3)
        assert err.value.token == "perm-size"
