"""Limit-theorem objects: windows, probes, stability check, thinning plans."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutalab import (
    DiscreteMeasure,
    LabError,
    MixedNormal,
    RegularLimitTheorem,
    empirical_measure,
    ks_distance,
    limit_convergence_check,
    simulate_fk,
)
from permutalab import framework, parallel
from permutalab.parallel import map_chunks
from permutalab.rng import derive_seed_vec, uniform_columns
from permutalab.sequences import PERM_MAX_TERMS

from conftest import point_mass, random_discrete_measure
from stream import Stream
from thinning import lipschitz_probe, mc_tolerance, plan_thinning, statistic_stability_check

RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
NO_TAIL = lambda t: 0.0  # noqa: E731 - bounded inputs


class TestCltInstances:
    def test_f1_centers(self):
        T = RegularLimitTheorem("clt")
        got = T.evaluate(np.array([[2.0]]), point_mass(0.5), 1)
        assert got[0] == 1.5

    def test_f4_hand_value(self):
        T = RegularLimitTheorem("clt")
        got = T.evaluate(np.array([[1.0, 1.0, -1.0, 1.0]]), RADEMACHER, 4)
        assert got[0] == 1.0

    def test_limit_is_standard_normal_for_rademacher(self):
        T = RegularLimitTheorem("clt")
        assert T.limit(RADEMACHER).variance_atoms == ((1.0, 1.0),)

    def test_trimmed_windows(self):
        T = RegularLimitTheorem("trimmed-clt")
        assert T.window(1) == (1, 1)
        assert T.window(15) == (1, 15)
        assert T.window(16) == (2, 16)
        assert T.window(81) == (3, 81)
        assert T.window(400) == (4, 400)

    def test_trimmed_point_mass_drift(self):
        # at a point mass c the trimmed statistic is the deterministic
        # drift -(p_k - 1) c / sqrt(k); the plain variant is exactly 0
        T = RegularLimitTheorem("trimmed-clt")
        k, c = 16, 0.7
        p, q = T.window(k)
        x = np.full((1, q - p + 1), c)
        got = T.evaluate(x, point_mass(c), k)
        assert got[0] == pytest.approx(-(p - 1) * c / math.sqrt(k), abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(LabError) as err:
            RegularLimitTheorem("lil")
        assert err.value.token == "bad-theorem"

    @pytest.mark.parametrize("name, k", [("clt", 2**20), ("trimmed-clt", 2**20 + 31)])
    def test_window_wider_than_the_term_cap_is_too_large(self, name, k):
        # the widest window each theorem accepts is 2**20 terms wide: trimmed-clt
        # drops 31 of them at this k; one more term is refused before any draw
        T = RegularLimitTheorem(name)
        assert T.window_width(k) == PERM_MAX_TERMS == 2**20
        for call in (lambda: T.window(k + 1), lambda: simulate_fk(T, k + 1, RADEMACHER, 1, 0),
                     lambda: limit_convergence_check(T, RADEMACHER, [1, k + 1], 1, 0)):
            with mock.patch.object(framework, "map_chunks", side_effect=AssertionError("drew")):
                with pytest.raises(LabError) as err:
                    call()
            assert err.value.token == "too-large"
            assert str(k + 1) in str(err.value)

    def test_windows_monotone(self):
        T = RegularLimitTheorem("trimmed-clt")
        prev_p, prev_q = T.window(1)
        for k in range(2, 200):
            p, q = T.window(k)
            assert p >= prev_p and q >= prev_q
            prev_p, prev_q = p, q


class TestSimulateFk:
    def test_point_mass_plain_is_zero(self):
        T = RegularLimitTheorem("clt")
        sample = simulate_fk(T, 8, point_mass(3.0), 50, seed=4)
        assert all(v == 0.0 for v in sample)

    def test_deterministic(self):
        T = RegularLimitTheorem("clt")
        a = simulate_fk(T, 4, RADEMACHER, 100, seed=9)
        b = simulate_fk(T, 4, RADEMACHER, 100, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_thread_invariance(self):
        T = RegularLimitTheorem("clt")
        a = simulate_fk(T, 4, RADEMACHER, 9000, seed=9, threads=1)
        b = simulate_fk(T, 4, RADEMACHER, 9000, seed=9, threads=4)
        assert a.tobytes() == b.tobytes()

    def test_k1_rademacher_ks_closed_form(self):
        T = RegularLimitTheorem("clt")
        sample = simulate_fk(T, 1, RADEMACHER, 20_000, seed=13)
        ks = ks_distance(empirical_measure(sample), T.limit(RADEMACHER))
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert ks == pytest.approx(phi1 - 0.5, abs=0.02)

    def test_convergence_table(self):
        T = RegularLimitTheorem("clt")
        rows = limit_convergence_check(T, RADEMACHER, [1, 16, 100], 20_000, seed=3)
        ks_by_k = dict(rows)
        assert ks_by_k[1] > 0.3
        assert ks_by_k[100] < 0.08
        # Berry-Esseen-informed threshold at the largest k (rho3 = sigma = 1)
        assert ks_by_k[100] <= 0.4748 / math.sqrt(100) + 2 * 1.36 / math.sqrt(20_000)

    def test_trimmed_close_to_plain_at_large_k(self):
        k, m = 256, 20_000
        plain, trimmed = (
            limit_convergence_check(RegularLimitTheorem(name), RADEMACHER, [k], m, seed=8)
            for name in ("clt", "trimmed-clt")
        )
        assert abs(plain[0][1] - trimmed[0][1]) <= 0.02

    def test_discretized_normal_input(self):
        # 31-atom equal-mass discretization of a standard normal: the limit
        # carries the discretization's own variance, and k = 16 already
        # matches it well (while k = 1 does not, the input is discrete)
        from scipy.special import erfinv

        qs = np.array([(i + 0.5) / 31 for i in range(31)])
        zs = np.array([math.sqrt(2.0) * erfinv(2.0 * q - 1.0) for q in qs])
        mu = DiscreteMeasure(tuple((float(z), 1.0 / 31) for z in zs))
        T = RegularLimitTheorem("clt")
        rows = dict(limit_convergence_check(T, mu, [1, 16], 20_000, seed=14))
        assert rows[16] <= 0.05
        assert rows[1] > rows[16]


class TestLipschitzProbe:
    def test_bounded_by_one(self):
        for T in (RegularLimitTheorem("clt"), RegularLimitTheorem("trimmed-clt")):
            for k in (1, 4, 16, 64):
                assert lipschitz_probe(T, k, 150, seed=6) <= 1.0 + 1e-12

    def test_single_coordinate_ratio_is_one(self):
        T = RegularLimitTheorem("clt")
        k = 9
        base = np.zeros((1, k))
        bumped = base.copy()
        bumped[0, 3] = 1.0
        f0 = T.evaluate(base, RADEMACHER, k)[0]
        f1 = T.evaluate(bumped, RADEMACHER, k)[0]
        omega = math.sqrt(k)
        assert abs(f1 - f0) / (1.0 / omega) == pytest.approx(1.0, abs=1e-12)


class TestStatisticStability:
    def test_equal_measures(self):
        T = RegularLimitTheorem("clt")
        lhs, rhs, holds = statistic_stability_check(T, 4, RADEMACHER, RADEMACHER, 4000, seed=2)
        assert holds
        assert lhs <= mc_tolerance(4000)

    def test_shifted_rademacher(self):
        T = RegularLimitTheorem("clt")
        nu = DiscreteMeasure(((-0.9, 0.5), (1.1, 0.5)))
        lhs, rhs, holds = statistic_stability_check(T, 4, RADEMACHER, nu, 10_000, seed=2)
        assert holds, (lhs, rhs)

    def test_random_pairs(self):
        T = RegularLimitTheorem("clt")
        stream = Stream(42424)
        for _ in range(15):
            mu = random_discrete_measure(stream, max_atoms=4)
            nu = random_discrete_measure(stream, max_atoms=4)
            k = (1, 4, 16)[stream.below(3)]
            lhs, rhs, holds = statistic_stability_check(T, k, mu, nu, 4000, seed=stream.u64())
            assert holds, (k, lhs, rhs)


class TestThinningPlan:
    def test_plain_clt_infeasible(self):
        with pytest.raises(LabError) as err:
            plan_thinning(RegularLimitTheorem("clt"), NO_TAIL, 10)
        assert err.value.token == "plan-infeasible"

    def test_trimmed_bounded_inputs_k16(self):
        plan = plan_thinning(RegularLimitTheorem("trimmed-clt"), NO_TAIL, 16)
        assert plan.k_min == 16
        assert plan.r_at(16) == 1  # min(floor(omega^(1/4)) = 1, p-1 = 1)

    def test_rank_grows(self):
        plan = plan_thinning(RegularLimitTheorem("trimmed-clt"), NO_TAIL, 300)
        assert plan.r_at(16) == 1
        assert plan.r_at(300) == 2  # omega^(1/4) = 300^(1/8) > 2, p - 1 = 3

    def test_eps_constraint_post_check(self):
        plan = plan_thinning(RegularLimitTheorem("trimmed-clt"), NO_TAIL, 64)
        for k in range(plan.k_min, 65):
            rk = plan.r_at(k)
            assert plan.eps_at(rk) * k <= 1.0 / k + 1e-18

    def test_eps_decreasing_positive(self):
        plan = plan_thinning(RegularLimitTheorem("trimmed-clt"), NO_TAIL, 400)
        assert all(e > 0 for e in plan.eps)
        assert all(e1 <= e0 for e0, e1 in zip(plan.eps, plan.eps[1:]))

    def test_tail_cap_binds(self):
        # a fat tail forces infeasibility even where the window allows r = 1
        fat = lambda t: 1.0  # noqa: E731
        with pytest.raises(LabError) as err:
            plan_thinning(RegularLimitTheorem("trimmed-clt"), fat, 20)
        assert err.value.token == "plan-infeasible"

    def test_out_of_range_raises(self):
        plan = plan_thinning(RegularLimitTheorem("trimmed-clt"), NO_TAIL, 20)
        with pytest.raises(LabError):
            plan.r_at(15)
        with pytest.raises(LabError):
            plan.r_at(21)


def test_mc_tolerance_formula():
    assert mc_tolerance(10_000) == pytest.approx(3.0 * math.sqrt(math.log(10_000) / 10_000))


# -- oracle: every chunk of 4,096 runs drawn in one block -----------------
#
# A verbatim copy of ``simulate_fk`` from before it drew in row blocks
# (only the name differs).  The library must give the same bytes for any
# row-block size.


def _simulate_fk_chunk_reference(
    T: RegularLimitTheorem,
    k: int,
    mu: DiscreteMeasure,
    m: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """m independent evaluations of f_k on i.i.d. window draws from mu."""
    if m < 1:
        raise LabError("bad-count", "need M >= 1")
    p, q = T.window(k)
    width = q - p + 1

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "fk")
        us = uniform_columns(seeds, np.arange(width))
        draws = mu.quantile_many(us)
        return T.evaluate(draws, mu, k)

    return map_chunks(m, run, threads)


# more atoms than measures._COUNT_MAX_ATOMS, so its quantiles take the binary search
WIDE_100 = DiscreteMeasure(tuple((i / 8.0 - 6.0, 0.01) for i in range(100)))


@settings(max_examples=60, deadline=None)
@given(
    theorem=st.sampled_from(["clt", "trimmed-clt"]),
    k=st.sampled_from([1, 16, 81]),
    mu=st.sampled_from([RADEMACHER, WIDE_100]),
    elements=st.one_of(st.just(1), st.integers(2, 5000), st.just(2**40)),
    m=st.integers(1, 9000),
    threads=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**64 - 1),
)
@example("clt", 81, RADEMACHER, 1, 300, 3, 4)
@example("trimmed-clt", 81, WIDE_100, 1001, 4097, 3, 5)
def test_simulate_fk_bytes_do_not_depend_on_blocks(theorem, k, mu, elements, m, threads, seed):
    T = RegularLimitTheorem(theorem)
    if elements < T.window_width(k):
        m = min(m, 300)  # one run per block: keep the example short
    want = _simulate_fk_chunk_reference(T, k, mu, m, seed, threads)
    with mock.patch.object(parallel, "BLOCK_ELEMENTS", elements):
        got = simulate_fk(T, k, mu, m, seed, threads)
    assert got.tobytes() == want.tobytes()
