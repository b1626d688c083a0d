"""Limit-theorem objects: windows, probes, stability check, thinning plans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from permutalab import (
    DiscreteMeasure,
    LabError,
    MixedNormal,
    empirical_measure,
    ks_distance,
    lipschitz_probe,
    limit_convergence_check,
    make_theorem,
    mc_tolerance,
    plan_thinning,
    simulate_fk,
    statistic_stability_check,
)
from permutalab.rng import Stream

from conftest import random_discrete_measure

RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
NO_TAIL = lambda t: 0.0  # noqa: E731 - bounded inputs


class TestCltInstances:
    def test_f1_centers(self):
        T = make_theorem("clt")
        got = T.evaluate(np.array([[2.0]]), DiscreteMeasure.point(0.5), 1)
        assert got[0] == 1.5

    def test_f4_hand_value(self):
        T = make_theorem("clt")
        got = T.evaluate(np.array([[1.0, 1.0, -1.0, 1.0]]), RADEMACHER, 4)
        assert got[0] == 1.0

    def test_limit_is_standard_normal_for_rademacher(self):
        T = make_theorem("clt")
        assert T.limit(RADEMACHER).variance_atoms == ((1.0, 1.0),)

    def test_trimmed_windows(self):
        T = make_theorem("trimmed-clt")
        assert T.window(1) == (1, 1)
        assert T.window(15) == (1, 15)
        assert T.window(16) == (2, 16)
        assert T.window(81) == (3, 81)
        assert T.window(400) == (4, 400)

    def test_trimmed_point_mass_drift(self):
        # at a point mass c the trimmed statistic is the deterministic
        # drift -(p_k - 1) c / sqrt(k); the plain variant is exactly 0
        T = make_theorem("trimmed-clt")
        k, c = 16, 0.7
        p, q = T.window(k)
        x = np.full((1, q - p + 1), c)
        got = T.evaluate(x, DiscreteMeasure.point(c), k)
        assert got[0] == pytest.approx(-(p - 1) * c / math.sqrt(k), abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(LabError) as err:
            make_theorem("lil")
        assert err.value.token == "bad-theorem"

    def test_windows_monotone(self):
        T = make_theorem("trimmed-clt")
        prev_p, prev_q = T.window(1)
        for k in range(2, 200):
            p, q = T.window(k)
            assert p >= prev_p and q >= prev_q
            prev_p, prev_q = p, q


class TestSimulateFk:
    def test_point_mass_plain_is_zero(self):
        T = make_theorem("clt")
        sample = simulate_fk(T, 8, DiscreteMeasure.point(3.0), 50, seed=4)
        assert all(v == 0.0 for v in sample.values)

    def test_deterministic(self):
        T = make_theorem("clt")
        a = simulate_fk(T, 4, RADEMACHER, 100, seed=9)
        b = simulate_fk(T, 4, RADEMACHER, 100, seed=9)
        assert a.values.tobytes() == b.values.tobytes()

    def test_thread_invariance(self):
        T = make_theorem("clt")
        a = simulate_fk(T, 4, RADEMACHER, 9000, seed=9, threads=1)
        b = simulate_fk(T, 4, RADEMACHER, 9000, seed=9, threads=4)
        assert a.values.tobytes() == b.values.tobytes()

    def test_k1_rademacher_ks_closed_form(self):
        T = make_theorem("clt")
        sample = simulate_fk(T, 1, RADEMACHER, 20_000, seed=13)
        ks = ks_distance(empirical_measure(sample), T.limit(RADEMACHER))
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert ks == pytest.approx(phi1 - 0.5, abs=0.02)

    def test_convergence_table(self):
        T = make_theorem("clt")
        rows = limit_convergence_check(T, RADEMACHER, [1, 16, 100], 20_000, seed=3)
        ks_by_k = dict(rows)
        assert ks_by_k[1] > 0.3
        assert ks_by_k[100] < 0.08
        # Berry-Esseen-informed threshold at the largest k (rho3 = sigma = 1)
        assert ks_by_k[100] <= 0.4748 / math.sqrt(100) + 2 * 1.36 / math.sqrt(20_000)

    def test_trimmed_close_to_plain_at_large_k(self):
        k, m = 256, 20_000
        plain = limit_convergence_check(make_theorem("clt"), RADEMACHER, [k], m, seed=8)
        trimmed = limit_convergence_check(make_theorem("trimmed-clt"), RADEMACHER, [k], m, seed=8)
        assert abs(plain[0][1] - trimmed[0][1]) <= 0.02

    def test_discretized_normal_input(self):
        # 31-atom equal-mass discretization of a standard normal: the limit
        # carries the discretization's own variance, and k = 16 already
        # matches it well (while k = 1 does not, the input is discrete)
        from scipy.special import erfinv

        qs = np.array([(i + 0.5) / 31 for i in range(31)])
        zs = np.array([math.sqrt(2.0) * erfinv(2.0 * q - 1.0) for q in qs])
        mu = DiscreteMeasure(tuple((float(z), 1.0 / 31) for z in zs))
        T = make_theorem("clt")
        rows = dict(limit_convergence_check(T, mu, [1, 16], 20_000, seed=14))
        assert rows[16] <= 0.05
        assert rows[1] > rows[16]


class TestLipschitzProbe:
    def test_bounded_by_one(self):
        for T in (make_theorem("clt"), make_theorem("trimmed-clt")):
            for k in (1, 4, 16, 64):
                assert lipschitz_probe(T, k, 150, seed=6) <= 1.0 + 1e-12

    def test_single_coordinate_ratio_is_one(self):
        T = make_theorem("clt")
        k = 9
        base = np.zeros((1, k))
        bumped = base.copy()
        bumped[0, 3] = 1.0
        f0 = T.evaluate(base, RADEMACHER, k)[0]
        f1 = T.evaluate(bumped, RADEMACHER, k)[0]
        omega = T.modulus(k)
        assert abs(f1 - f0) / (1.0 / omega) == pytest.approx(1.0, abs=1e-12)


class TestStatisticStability:
    def test_equal_measures(self):
        T = make_theorem("clt")
        lhs, rhs, holds = statistic_stability_check(T, 4, RADEMACHER, RADEMACHER, 4000, seed=2)
        assert holds
        assert lhs <= mc_tolerance(4000)

    def test_shifted_rademacher(self):
        T = make_theorem("clt")
        nu = DiscreteMeasure(((-0.9, 0.5), (1.1, 0.5)))
        lhs, rhs, holds = statistic_stability_check(T, 4, RADEMACHER, nu, 10_000, seed=2)
        assert holds, (lhs, rhs)

    def test_random_pairs(self):
        T = make_theorem("clt")
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
            plan_thinning(make_theorem("clt"), NO_TAIL, 10)
        assert err.value.token == "plan-infeasible"

    def test_trimmed_bounded_inputs_k16(self):
        plan = plan_thinning(make_theorem("trimmed-clt"), NO_TAIL, 16)
        assert plan.k_min == 16
        assert plan.r_at(16) == 1  # min(floor(omega^(1/4)) = 1, p-1 = 1)

    def test_rank_grows(self):
        plan = plan_thinning(make_theorem("trimmed-clt"), NO_TAIL, 300)
        assert plan.r_at(16) == 1
        assert plan.r_at(300) == 2  # omega^(1/4) = 300^(1/8) > 2, p - 1 = 3

    def test_eps_constraint_post_check(self):
        plan = plan_thinning(make_theorem("trimmed-clt"), NO_TAIL, 64)
        for k in range(plan.k_min, 65):
            rk = plan.r_at(k)
            assert plan.eps_at(rk) * k <= 1.0 / k + 1e-18

    def test_eps_decreasing_positive(self):
        plan = plan_thinning(make_theorem("trimmed-clt"), NO_TAIL, 400)
        assert all(e > 0 for e in plan.eps)
        assert all(e1 <= e0 for e0, e1 in zip(plan.eps, plan.eps[1:]))

    def test_tail_cap_binds(self):
        # a fat tail forces infeasibility even where the window allows r = 1
        fat = lambda t: 1.0  # noqa: E731
        with pytest.raises(LabError) as err:
            plan_thinning(make_theorem("trimmed-clt"), fat, 20)
        assert err.value.token == "plan-infeasible"

    def test_out_of_range_raises(self):
        plan = plan_thinning(make_theorem("trimmed-clt"), NO_TAIL, 20)
        with pytest.raises(LabError):
            plan.r_at(15)
        with pytest.raises(LabError):
            plan.r_at(21)


def test_mc_tolerance_formula():
    assert mc_tolerance(10_000) == pytest.approx(3.0 * math.sqrt(math.log(10_000) / 10_000))
