"""Mixture-model simulation: draws, permuted statistics, bound checks."""

from __future__ import annotations

import numpy as np
import pytest

from permutalab import (
    DiscreteMeasure,
    DrawnSequence,
    EmpiricalSample,
    ExchangeableModel,
    LabError,
    Permutation,
    PerturbSpec,
    RegularLimitTheorem,
    conditional_noise_check,
    draw_sequence,
    empirical_measure,
    ks_distance,
    make_theorem,
    model_from_json,
    model_to_json,
    permuted_statistic,
    plan_thinning,
    mixture_approximation_check,
    random_permutation,
    reverse_permutation,
    identity_permutation,
    strong_law_trajectory,
    permutation_invariance_check,
)
from permutalab.exchangeable import _BAD_ATOM_SHIFT, _noise_is_read, _quantize
from permutalab.parallel import map_chunks
from permutalab.rng import Stream, derive_seed, derive_seed_vec, uniform_columns

RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
WIDE = DiscreteMeasure(((-2.0, 0.5), (2.0, 0.5)))
SMALL_A = DiscreteMeasure(((-0.5, 0.5), (0.5, 0.5)))
SMALL_B = DiscreteMeasure(((-0.4, 0.25), (0.1, 0.5), (0.5, 0.25)))

TWO_ATOM = ExchangeableModel(((0.5, RADEMACHER), (0.5, WIDE)), grid=0.0)
BOUNDED = ExchangeableModel(((0.6, SMALL_A), (0.4, SMALL_B)), grid=0.0)


class TestModel:
    def test_probs_must_sum(self):
        with pytest.raises(LabError):
            ExchangeableModel(((0.5, RADEMACHER), (0.4, WIDE)))

    def test_limit_mixture(self):
        assert TWO_ATOM.limit_mixed_normal().variance_atoms == ((1.0, 0.5), (4.0, 0.5))

    def test_limit_merges_equal_variances(self):
        m = ExchangeableModel(((0.5, RADEMACHER), (0.5, RADEMACHER)))
        assert m.limit_mixed_normal().variance_atoms == ((1.0, 1.0),)

    def test_perturb_validation(self):
        with pytest.raises(LabError):
            PerturbSpec((0.1, 0.2), 0.05, 1.0)  # not decreasing
        with pytest.raises(LabError):
            PerturbSpec((0.2, 0.1), 0.15, 1.0)  # outlier prob above min eps

    def test_bad_mass_bounded_by_eps(self):
        spec = PerturbSpec((0.1,), 0.05, 1.0)
        with pytest.raises(LabError):
            ExchangeableModel(((1.0, RADEMACHER),), bad_mass=0.2, perturb=spec)

    def test_json_round_trip(self):
        spec = PerturbSpec((0.2, 0.1), 0.05, 0.5)
        model = ExchangeableModel(((0.5, RADEMACHER), (0.5, WIDE)), 0.0, spec, 2.0**-20)
        back = model_from_json(model_to_json(model))
        assert back == model


class TestDrawSequence:
    def test_perturb_off_x_equals_z(self):
        d = draw_sequence(TWO_ATOM, 100, seed=3)
        assert np.array_equal(d.x, d.z)

    def test_point_mass_law(self):
        m = ExchangeableModel(((1.0, DiscreteMeasure.point(0.0)),), grid=0.0)
        d = draw_sequence(m, 50, seed=1)
        assert np.all(d.z == 0.0)

    def test_deterministic(self):
        a = draw_sequence(TWO_ATOM, 64, seed=11)
        b = draw_sequence(TWO_ATOM, 64, seed=11)
        assert a.atom_index == b.atom_index
        assert np.array_equal(a.x, b.x)

    def test_outlier_fraction_binomial(self):
        spec = PerturbSpec((0.1,), 0.05, 1.0)
        model = ExchangeableModel(((1.0, RADEMACHER),), perturb=spec, grid=0.0)
        d = draw_sequence(model, 10_000, seed=7)
        frac = np.mean(np.abs(d.x - d.z) >= 0.1)
        assert frac <= 0.05 + 0.01

    def test_quantization_finite_range(self):
        g = 2.0**-6
        spec = PerturbSpec((0.25,), 0.2, 0.5)
        model = ExchangeableModel(((1.0, RADEMACHER),), perturb=spec, grid=g)
        d = draw_sequence(model, 5000, seed=2)
        distinct = len(set(d.x.tolist()))
        value_range = 2.0 + 2 * 0.5  # law span plus two outlier sizes
        assert distinct <= value_range / g + 3

    def test_bad_atom_shifted(self):
        model = ExchangeableModel(
            ((0.05, DiscreteMeasure.point(0.0)), (0.95, RADEMACHER)),
            bad_mass=0.05,
            grid=0.0,
        )
        assert model.n_bad == 1
        # find a seed that lands on the bad atom, then X is offset from Z
        for seed in range(200):
            d = draw_sequence(model, 20, seed=seed)
            if d.atom_index == 0:
                assert np.all(d.x != d.z)
                break
        else:
            pytest.fail("no draw hit the bad atom")


class TestPermutedStatistic:
    def test_exchangeability_pairwise_ks(self):
        # perturb off: the law is exactly permutation-invariant, so any two
        # permuted runs differ only by Monte Carlo noise
        T = make_theorem("trimmed-clt")
        k, m = 32, 4000
        base = empirical_measure(
            permuted_statistic(TWO_ATOM, T, k, identity_permutation(32), m, seed=50)
        )
        for i in range(10):
            perm = random_permutation(32, seed=1000 + i)
            other = empirical_measure(
                permuted_statistic(TWO_ATOM, T, k, perm, m, seed=51 + i)
            )
            assert ks_distance(base, other) <= 1.95 * np.sqrt(2.0 / m)

    def test_single_atom_converges_to_normal(self):
        T = make_theorem("trimmed-clt")
        model = ExchangeableModel(((1.0, RADEMACHER),), grid=0.0)
        sample = permuted_statistic(model, T, 256, reverse_permutation(256), 20_000, seed=5)
        ks = ks_distance(empirical_measure(sample), model.limit_mixed_normal())
        assert ks <= 0.05

    def test_perm_must_cover_window(self):
        T = make_theorem("trimmed-clt")
        with pytest.raises(LabError) as err:
            permuted_statistic(TWO_ATOM, T, 64, identity_permutation(32), 10, seed=1)
        assert err.value.token == "perm-size"

    def test_thread_invariance(self):
        T = make_theorem("trimmed-clt")
        a = permuted_statistic(TWO_ATOM, T, 16, reverse_permutation(16), 9000, seed=1, threads=1)
        b = permuted_statistic(TWO_ATOM, T, 16, reverse_permutation(16), 9000, seed=1, threads=4)
        assert a.values.tobytes() == b.values.tobytes()


class TestPermutationInvariance:
    def test_needs_two_perms(self):
        with pytest.raises(LabError):
            permutation_invariance_check(TWO_ATOM, make_theorem("trimmed-clt"), 16, [identity_permutation(16)], 100, 1)

    def test_two_atom_model_holds(self):
        T = make_theorem("trimmed-clt")
        perms = [identity_permutation(64), reverse_permutation(64), random_permutation(64, 3)]
        rep = permutation_invariance_check(TWO_ATOM, T, 64, perms, 10_000, seed=9, tol_limit=0.08,
                             tol_pairwise=0.04)
        assert rep.holds, rep

    def test_degenerate_point_model(self):
        # all statistics deterministic: pairwise distance 0, distance to the
        # unit step recorded
        T = make_theorem("trimmed-clt")
        model = ExchangeableModel(((1.0, DiscreteMeasure.point(0.0)),), grid=0.0)
        perms = [identity_permutation(16), reverse_permutation(16)]
        rep = permutation_invariance_check(model, T, 16, perms, 500, seed=2, tol_limit=1.0, tol_pairwise=0.01)
        assert rep.max_pairwise_ks == 0.0
        assert rep.holds


class TestPropositionBound:
    def test_single_atom_lhs_small(self):
        T = make_theorem("trimmed-clt")
        model = ExchangeableModel(((1.0, SMALL_A),), grid=0.0)
        plan = plan_thinning(T, model.tail_bound, 16)
        lhs, rhs, holds = mixture_approximation_check(model, T, 16, plan, 3000, seed=4)
        assert holds
        assert lhs <= 0.1

    def test_two_atom_bounded_model(self):
        T = make_theorem("trimmed-clt")
        plan = plan_thinning(T, BOUNDED.tail_bound, 16)
        lhs, rhs, holds = mixture_approximation_check(BOUNDED, T, 16, plan, 3000, seed=8)
        assert holds, (lhs, rhs)

    def test_rhs_exact_rational(self):
        T = make_theorem("trimmed-clt")
        plan = plan_thinning(T, BOUNDED.tail_bound, 16)
        _, rhs, _ = mixture_approximation_check(BOUNDED, T, 16, plan, 200, seed=8)
        from fractions import Fraction

        want = 3 * Fraction(plan.eps_at(plan.r_at(16))) * 16 + Fraction(1, plan.r_at(16))
        assert rhs == float(want)


class TestStrongLaw:
    def test_point_mass_constant(self):
        model = ExchangeableModel(((1.0, DiscreteMeasure.point(2.5)),), grid=0.0)
        traj = strong_law_trajectory(model, 1.0, 100, seed=1)
        assert all(v == 2.5 for _, v in traj)

    def test_rademacher_mean_converges(self):
        model = ExchangeableModel(((1.0, RADEMACHER),), grid=0.0)
        traj = strong_law_trajectory(model, 1.0, 20_000, seed=3)
        assert abs(traj[-1][1]) <= 2.0 * np.sqrt(2 * np.log(np.log(20_000)) / 20_000)

    def test_marcinkiewicz_scaling(self):
        model = ExchangeableModel(((1.0, RADEMACHER),), grid=0.0)
        traj = strong_law_trajectory(model, 1.5, 20_000, seed=3)
        # rate oracle: statistic ~ N^(1/2 - 2/3) = N^(-1/6)
        assert abs(traj[-1][1]) <= 5.0 * 20_000 ** (-1.0 / 6.0)

    def test_p_range(self):
        model = ExchangeableModel(((1.0, RADEMACHER),), grid=0.0)
        with pytest.raises(LabError):
            strong_law_trajectory(model, 2.5, 100, seed=1)
        strong_law_trajectory(model, 2.0, 100, seed=1)  # boundary allowed


def test_conditional_noise_variant():
    lhs, holds = conditional_noise_check(BOUNDED, 0.1, seed=6)
    assert holds
    assert lhs <= 0.2 + 1e-9


# -- oracles: every run draws its flag and sign columns ------------------
#
# Verbatim copies of ``_noise``, ``draw_sequence`` and ``permuted_statistic``
# from when every run drew the noise flag and sign columns whether or not
# the noise read them (only the function names differ, and the permuted
# statistic's sample holds its values alone).  The library draws
# those columns only when some good atom has ``outlier_prob > 0``, and must
# give the same values bit for bit, signed zeros included.


def _noise_reference(model: ExchangeableModel, flags: np.ndarray, signs: np.ndarray, bad: bool):
    if bad:
        return np.full(flags.shape, _BAD_ATOM_SHIFT)
    if model.perturb is None or model.perturb.outlier_prob == 0.0:
        return np.zeros(flags.shape)
    hit = flags < model.perturb.outlier_prob
    return hit * np.where(signs < 0.5, -1.0, 1.0) * model.perturb.outlier_size


def _draw_sequence_three_block_reference(
    model: ExchangeableModel, m: int, eps_index: int, seed: int
) -> DrawnSequence:
    """Sample an atom, then m conditionally-i.i.d. perturbed values."""
    if m < 1:
        raise LabError("bad-count", "need m >= 1")
    if model.perturb is not None:
        if not 1 <= eps_index <= len(model.perturb.eps_levels):
            raise LabError("eps-level", "eps index out of range")
    stream = Stream(derive_seed(seed, "draw"))
    cum = np.cumsum(model.probs)
    atom = int(np.searchsorted(cum, stream.uniform(), side="left"))
    atom = min(atom, len(model.atoms) - 1)
    law = model.atoms[atom][1]
    z = law.quantile_many(stream.uniform_block(m))
    eta = _noise_reference(model, stream.uniform_block(m), stream.uniform_block(m), atom < model.n_bad)
    x = _quantize(z + eta, model.grid)
    return DrawnSequence(atom, z, x)


def _permuted_statistic_full_layout_reference(
    model: ExchangeableModel,
    T: RegularLimitTheorem,
    k: int,
    perm: Permutation,
    m: int,
    seed: int,
    threads: int = 1,
) -> EmpiricalSample:
    """Law of f_k over the window of the permuted drawn sequence.

    Each of the m runs draws its own atom and sequence; f_k is evaluated on
    coordinates p_k..q_k of the permuted sequence with the drawn atom's law
    as the measure argument.
    """
    p, q = T.window(k)
    if len(perm) < q:
        raise LabError("perm-size", "permutation shorter than the window end")
    length = len(perm)
    window_idx = np.array([perm.image[i - 1] - 1 for i in range(p, q + 1)])
    width = len(window_idx)
    # per-run column layout: 0 atom, 1..L values, L+1..2L flags, 2L+1..3L signs
    cols = np.concatenate(
        ([0], 1 + window_idx, 1 + length + window_idx, 1 + 2 * length + window_idx)
    )
    cum = np.cumsum(model.probs)
    n_bad = model.n_bad

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "perm-stat")
        u = uniform_columns(seeds, cols)
        atom = np.searchsorted(cum, u[:, 0], side="left")
        atom = np.minimum(atom, len(model.atoms) - 1)
        out = np.empty(count)
        for a in range(len(model.atoms)):
            rows = atom == a
            if not rows.any():
                continue
            law = model.atoms[a][1]
            z = law.quantile_many(u[rows, 1 : 1 + width])
            eta = _noise_reference(
                model,
                u[rows, 1 + width : 1 + 2 * width],
                u[rows, 1 + 2 * width :],
                a < n_bad,
            )
            x = _quantize(z + eta, model.grid)
            out[rows] = T.evaluate(x, law, k)
        return out

    return EmpiricalSample(map_chunks(m, run, threads))


NEG_ZERO = DiscreteMeasure.point(-0.0)

ORACLE_MODELS = {
    # perturb off, on the default grid and on none
    "no-perturb": ExchangeableModel(((0.5, RADEMACHER), (0.5, WIDE))),
    "no-perturb-grid0": TWO_ATOM,
    # z = -0.0 and eta = +0.0 give x = +0.0, which skipping the sum would not
    "no-perturb-signed-zero": ExchangeableModel(((0.5, NEG_ZERO), (0.5, SMALL_A)), grid=0.0),
    "outlier-prob-0": ExchangeableModel(
        ((0.5, SMALL_A), (0.5, SMALL_B)), perturb=PerturbSpec((0.25,), 0.0, 0.5)
    ),
    # the only model whose noise reads flags and signs
    "noisy-bad-and-good": ExchangeableModel(
        ((0.1, NEG_ZERO), (0.3, SMALL_A), (0.6, SMALL_B)),
        bad_mass=0.1,
        perturb=PerturbSpec((0.25, 0.2), 0.2, 0.5),
    ),
    "noisy-all-bad": ExchangeableModel(
        ((0.5, SMALL_A), (0.5, SMALL_B)),
        bad_mass=1.0,
        perturb=PerturbSpec((1.0,), 0.5, 0.5),
    ),
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestNoiseColumnsOracle:
    K = 16

    def test_models_cover_each_noise_case(self):
        read = {name: _noise_is_read(model) for name, model in ORACLE_MODELS.items()}
        assert [name for name, r in read.items() if r] == ["noisy-bad-and-good"]
        assert ORACLE_MODELS["noisy-bad-and-good"].n_bad == 1
        assert ORACLE_MODELS["noisy-all-bad"].n_bad == 2

    @pytest.mark.parametrize("perm_kind", ["identity", "reverse", "random"])
    @pytest.mark.parametrize("theorem", ["clt", "trimmed-clt"])
    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_permuted_statistic_matches_full_layout(self, name, theorem, perm_kind):
        model, T = ORACLE_MODELS[name], make_theorem(theorem)
        perm = {
            "identity": identity_permutation(self.K),
            "reverse": reverse_permutation(self.K),
            # longer than the window end, so the old flag columns start past it
            "random": random_permutation(self.K + 9, seed=77),
        }[perm_kind]
        for m in (1, 4095, 4096, 4097):
            for threads in (1, 2):
                want = _permuted_statistic_full_layout_reference(model, T, self.K, perm, m, 31, threads)
                got = permuted_statistic(model, T, self.K, perm, m, 31, threads)
                assert _bits(got.values) == _bits(want.values), (m, threads)

    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_draw_sequence_matches_three_blocks(self, name):
        model = ORACLE_MODELS[name]
        atoms_seen = set()
        for m in (1, 4095, 4096, 4097):
            for seed in range(20):
                want = _draw_sequence_three_block_reference(model, m, 1, seed)
                got = draw_sequence(model, m, seed)
                assert got.atom_index == want.atom_index
                assert _bits(got.z) == _bits(want.z), (m, seed)
                assert _bits(got.x) == _bits(want.x), (m, seed)
                atoms_seen.add(got.atom_index)
        assert atoms_seen == set(range(len(model.atoms)))
