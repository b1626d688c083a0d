"""Measure types: construction, CDF/quantile algebra, sampling, mixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutalab import (
    DiscreteMeasure,
    EmpiricalSample,
    LabError,
    MixedNormal,
    RandomMeasure,
    empirical_measure,
)
from permutalab.measures import (
    measure_from_csv,
    measure_to_csv,
    random_measure_from_json,
    random_measure_to_json,
)
from permutalab.rng import Stream

from conftest import random_discrete_measure

COIN = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))


@st.composite
def measures(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    positions = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n, max_size=n, unique=True,
        )
    )
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    total = sum(raw)
    masses = np.array(raw) / total
    return DiscreteMeasure(tuple(zip(sorted(positions), masses)))


class TestDiscreteMeasure:
    def test_invariants_rejected(self):
        with pytest.raises(LabError):
            DiscreteMeasure(())
        with pytest.raises(LabError):
            DiscreteMeasure(((0.0, 0.5), (0.0, 0.5)))  # not strictly increasing
        with pytest.raises(LabError):
            DiscreteMeasure(((0.0, 0.7), (1.0, 0.2)))  # mass deficit
        with pytest.raises(LabError):
            DiscreteMeasure(((0.0, 1.5), (1.0, -0.5)))

    def test_cdf_point_mass(self):
        d0 = DiscreteMeasure.point(0.0)
        assert d0.cdf(-1.0) == 0.0
        assert d0.cdf(0.0) == 1.0  # right-continuity

    def test_cdf_coin(self):
        assert COIN.cdf(0.5) == 0.5

    def test_quantile_examples(self):
        assert DiscreteMeasure.point(3.0).quantile(0.5) == 3.0
        assert COIN.quantile(0.5) == 0.0  # inf convention
        assert COIN.quantile(0.75) == 1.0

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(LabError) as err:
                COIN.quantile(bad)
            assert err.value.token == "quantile-domain"

    def test_mean_var_examples(self):
        assert DiscreteMeasure.point(2.5).mean_var() == (2.5, 0.0)
        assert RADEMACHER.mean_var() == (0.0, 1.0)
        mean, var = COIN.mean_var()
        assert mean == 0.5 and abs(var - 0.25) < 1e-15

    @given(measures())
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_round_trip(self, m):
        # for each atom at p with mass w and F(p-) = a, quantile(u) = p
        # throughout u in (a, a + w]
        left = 0.0
        for p, w in m.atoms:
            for u in (left + 1e-13, left + w / 2, min(left + w, 1.0 - 1e-13)):
                if 0.0 < u < 1.0:
                    assert m.quantile(u) == p
            left += w

    def test_sample_point_mass(self):
        s = DiscreteMeasure.point(2.0).sample(5, seed=1)
        assert s.values.tobytes() == np.full(5, 2.0).tobytes()

    def test_sample_deterministic(self):
        a = COIN.sample(100, seed=42)
        b = COIN.sample(100, seed=42)
        assert a.values.tobytes() == b.values.tobytes()

    def test_sample_binomial_oracle(self):
        s = COIN.sample(10_000, seed=1)
        assert abs(s.values.mean() - 0.5) < 0.02

    def test_csv_round_trip(self):
        text = measure_to_csv(COIN)
        assert measure_from_csv(text) == COIN


class TestEmpiricalMeasure:
    def test_counting(self):
        m = empirical_measure(EmpiricalSample((1.0, 1.0, 2.0)))
        assert m.atoms == ((1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0))

    def test_single_value(self):
        assert empirical_measure(EmpiricalSample((0.0,))).atoms == ((0.0, 1.0),)

    def test_empty_sample_rejected(self):
        with pytest.raises(LabError) as err:
            EmpiricalSample(())
        assert err.value.token == "empty-sample"

    def test_values_read_only_float64_view(self):
        given = np.array([3, 1, 2])
        s = EmpiricalSample(given)
        assert s.values.dtype == np.float64 and not s.values.flags.writeable
        floats = np.array([1.0, 2.0])
        s = EmpiricalSample(floats)
        assert np.shares_memory(s.values, floats)
        assert floats.flags.writeable  # only the sample's view is frozen
        with pytest.raises(LabError) as err:
            EmpiricalSample(np.ones((2, 2)))
        assert err.value.token == "empty-sample"

    def test_sampler_counts(self):
        s = COIN.sample(1000, seed=7)
        m = empirical_measure(s)
        counts = {v: 0 for v, _ in m.atoms}
        for v in s.values:
            counts[v] += 1  # independent direct count
        for v, mass in m.atoms:
            assert mass == counts[v] / 1000
            assert abs(mass - 0.5) < 0.05


class TestMixedNormal:
    def test_standard_symmetry(self):
        assert MixedNormal.standard().cdf(0.0) == 0.5

    def test_zero_variance_step(self):
        mn = MixedNormal.normal(0.0)
        assert mn.cdf(-1.0) == 0.0
        assert mn.cdf(1.0) == 1.0
        assert mn.cdf(0.0) == 1.0  # right-continuous step at 0

    def test_two_component_symmetry(self):
        mn = MixedNormal(((1.0, 0.5), (4.0, 0.5)))
        assert mn.cdf(0.0) == 0.5

    def test_monotone_on_grid(self):
        mn = MixedNormal(((0.0, 0.25), (1.0, 0.5), (4.0, 0.25)))
        grid = np.linspace(-8.0, 8.0, 1000)
        vals = mn.cdf_many(grid)
        assert np.all(np.diff(vals) >= 0.0)

    def test_phi_accuracy(self):
        # erfc route vs the direct erf expression at a few points
        mn = MixedNormal.standard()
        for t in (-3.0, -1.0, 0.0, 0.5, 2.0):
            direct = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
            assert abs(mn.cdf(t) - direct) < 1e-12


class TestRandomMeasure:
    def test_flatten_identity(self):
        rm = RandomMeasure(((1.0, COIN),))
        assert rm.flatten() == COIN

    def test_flatten_merges(self):
        d0 = DiscreteMeasure.point(0.0)
        rm = RandomMeasure(((0.5, d0), (0.5, d0)))
        assert rm.flatten() == d0

    def test_flatten_two_points(self):
        rm = RandomMeasure(((0.5, DiscreteMeasure.point(0.0)), (0.5, DiscreteMeasure.point(1.0))))
        assert rm.flatten() == COIN

    def test_flatten_preserves_mass_and_mean(self):
        stream = Stream(99)
        for _ in range(25):
            comps = []
            k = 1 + stream.below(4)
            weights = np.array([stream.uniform() + 0.05 for _ in range(k)])
            weights /= weights.sum()
            for w in weights:
                comps.append((float(w), random_discrete_measure(stream)))
            rm = RandomMeasure(tuple(comps))
            flat = rm.flatten()
            assert abs(flat.masses.sum() - 1.0) <= 1e-12
            want_mean = sum(w * c.mean_var()[0] for w, c in comps)
            assert abs(flat.mean_var()[0] - want_mean) <= 1e-12

    def test_json_round_trip(self):
        rm = RandomMeasure(((0.5, COIN), (0.5, RADEMACHER)))
        back = random_measure_from_json(random_measure_to_json(rm))
        assert back.components == rm.components
