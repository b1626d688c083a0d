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
    _COUNT_MAX_ATOMS,
    _phi,
    measure_from_csv,
    measure_to_csv,
)
from permutalab.rng import Stream

from conftest import random_discrete_measure

COIN = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
TENTHS = DiscreteMeasure(tuple((float(i), 0.1) for i in range(10)))  # cum[-1] = 1 - 2**-53

SPECIAL_US = [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]
SPECIAL_TS = [0.0, -0.0, math.nan, math.inf, -math.inf]


def reference_quantile_many(m: DiscreteMeasure, us: np.ndarray) -> np.ndarray:
    """Binary-search inversion, clamped to the last atom: the oracle for quantile_many."""
    idx = np.searchsorted(np.cumsum(m.masses), us, side="left")
    return m.positions[np.minimum(idx, len(m.positions) - 1)]


def assert_quantiles_match_reference(m: DiscreteMeasure, extra_us) -> None:
    """quantile_many equals the oracle bit for bit at every cumulative mass,
    its two neighbouring doubles, SPECIAL_US and ``extra_us``, in a 1-D and a
    2-D block; quantile(u) equals quantile_many([u])[0] at the cumulative
    masses and ``extra_us`` inside (0, 1)."""
    cum = np.cumsum(m.masses)
    us = np.concatenate(
        [cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf), SPECIAL_US, extra_us]
    )
    assert m.quantile_many(us).tobytes() == reference_quantile_many(m, us).tobytes()
    block = us[: us.size // 2 * 2].reshape(2, -1)
    assert m.quantile_many(block).tobytes() == reference_quantile_many(m, block).tobytes()
    for u in cum.tolist() + list(extra_us):
        if 0.0 < u < 1.0:
            assert m.quantile(u) == m.quantile_many(np.array([u]))[0]


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

    # atom counts up to the switch from counting thresholds to binary
    # search, and just past it; equal masses 1/n often leave cum[-1] below 1
    @pytest.mark.parametrize(
        "lo, hi", [(1, _COUNT_MAX_ATOMS), (_COUNT_MAX_ATOMS + 1, _COUNT_MAX_ATOMS + 3)]
    )
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_quantile_many_matches_binary_search(self, lo, hi, data):
        n = data.draw(st.integers(lo, hi), label="atoms")
        if data.draw(st.booleans(), label="equal masses"):
            masses = [1.0 / n] * n
        else:
            raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), label="raw")
            masses = (np.array(raw) / sum(raw)).tolist()
        positions = data.draw(
            st.lists(st.floats(-10, 10), min_size=n, max_size=n, unique=True), label="positions"
        )
        m = DiscreteMeasure(tuple(zip(sorted(positions), masses)))
        extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20), label="extra us")
        assert_quantiles_match_reference(m, extra)

    def test_quantile_many_last_cum_below_one(self):
        assert np.cumsum(TENTHS.masses)[-1] < 1.0
        assert TENTHS.quantile_many(np.array([1.0]))[0] == 9.0
        assert_quantiles_match_reference(TENTHS, [0.9999999999999999, 0.95])

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

    def test_from_pairs_merges_equal_doubles_keeping_first(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            m = DiscreteMeasure.from_pairs([(first, 0.5), (second, 0.5)])
            assert m.atoms == ((0.0, 1.0),)
            assert math.copysign(1.0, m.atoms[0][0]) == math.copysign(1.0, first)


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

    @pytest.mark.parametrize("atoms", [
        (), ((-1.0, 1.0),), ((1.0, 0.0), (4.0, 1.0)), ((1.0, 0.5), (4.0, 0.4)),
        ((math.nan, 1.0),), ((math.inf, 1.0),), ((1.0, math.nan),), ((1.0, math.inf),),
        ((1.0, 0.5), (4.0, math.nan)),
    ])
    def test_validation(self, atoms):
        with pytest.raises(LabError) as err:
            MixedNormal(atoms)
        assert err.value.token == "bad-mixed-normal"

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

    @pytest.mark.parametrize("weights", [
        (), (0.0, 1.0), (-0.5, 1.5), (0.5, 0.4), (math.nan,), (math.inf,), (0.5, math.nan),
    ])
    def test_validation(self, weights):
        with pytest.raises(LabError) as err:
            RandomMeasure(tuple((w, COIN) for w in weights))
        assert err.value.token == "bad-random-measure"

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixture_equals_flatten(self, data):
        laws = data.draw(st.lists(measures(), min_size=1, max_size=4))
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(laws), max_size=len(laws)))
        comps = tuple(zip((np.array(raw) / sum(raw)).tolist(), laws))
        assert DiscreteMeasure.mixture(comps) == RandomMeasure(comps).flatten()

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



# -- CDF oracles: the three separate routines each law had before they
# shared one path, copied verbatim (the private ``_cum`` and ``_pos`` of a
# discrete law read as ``np.cumsum(m.masses)`` and ``m.positions``)


def reference_discrete_cdf(m: DiscreteMeasure, t: float) -> float:
    i = int(np.searchsorted(m.positions, t, side="right"))
    return 0.0 if i == 0 else float(np.cumsum(m.masses)[i - 1])


def reference_discrete_cdf_many(m: DiscreteMeasure, ts: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(m.positions, ts, side="right")
    cum = np.concatenate(([0.0], np.cumsum(m.masses)))
    return cum[idx]


def reference_discrete_cdf_left_many(m: DiscreteMeasure, ts: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(m.positions, ts, side="left")
    cum = np.concatenate(([0.0], np.cumsum(m.masses)))
    return cum[idx]


def reference_mixed_cdf(mn: MixedNormal, t: float) -> float:
    acc = 0.0
    for y, w in mn.variance_atoms:
        if y == 0.0:
            acc += w if t >= 0.0 else 0.0
        else:
            acc += w * _phi(t / math.sqrt(y))
    return acc


def reference_mixed_cdf_many(mn: MixedNormal, ts: np.ndarray) -> np.ndarray:
    return np.array([reference_mixed_cdf(mn, float(t)) for t in ts])


def reference_mixed_cdf_left_many(mn: MixedNormal, ts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(ts))
    for y, w in mn.variance_atoms:
        if y == 0.0:
            out += np.where(np.asarray(ts) > 0.0, w, 0.0)
        else:
            s = math.sqrt(y)
            out += np.array([w * _phi(float(t) / s) for t in ts])
    return out


def cdf_points(anchors, extra) -> np.ndarray:
    """The anchors, both neighbouring doubles of each, SPECIAL_TS and ``extra``."""
    anchors = np.asarray(anchors, dtype=float)
    return np.concatenate(
        [anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf),
         SPECIAL_TS, np.asarray(extra, dtype=float)]
    )


def assert_cdfs_match(law, ts: np.ndarray, cdf, cdf_many, cdf_left_many) -> None:
    """``cdf``, ``cdf_many`` and ``cdf_left_many`` of ``law`` equal the
    reference routines bit for bit at every point of ``ts``."""
    assert law.cdf_many(ts).tobytes() == cdf_many(law, ts).tobytes()
    assert law.cdf_left_many(ts).tobytes() == cdf_left_many(law, ts).tobytes()
    got = np.array([law.cdf(t) for t in ts.tolist()])
    want = np.array([cdf(law, t) for t in ts.tolist()])
    assert got.tobytes() == want.tobytes()


@st.composite
def mixed_normals(draw, zero_atom: bool):
    n = draw(st.integers(min_value=1, max_value=4))
    ys = draw(st.lists(st.floats(1e-6, 100.0), min_size=n, max_size=n))
    if zero_atom:
        ys[draw(st.integers(0, n - 1))] = 0.0
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    ws = (np.array(raw) / sum(raw)).tolist()
    return MixedNormal(tuple(zip(ys, ws)))


class TestCdfOracles:
    @pytest.mark.parametrize("zero_atom", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_normal_matches_reference(self, zero_atom, data):
        mn = data.draw(mixed_normals(zero_atom), label="law")
        extra = data.draw(st.lists(st.floats(-50.0, 50.0), max_size=30), label="extra ts")
        roots = [math.sqrt(y) for y, _ in mn.variance_atoms]
        ts = cdf_points([0.0] + roots + [-r for r in roots], extra)
        assert_cdfs_match(
            mn, ts, reference_mixed_cdf, reference_mixed_cdf_many, reference_mixed_cdf_left_many
        )

    def test_mixed_normal_fixed_laws(self):
        stream = Stream(5)
        extra = [20.0 * stream.uniform() - 10.0 for _ in range(500)]
        for mn in (MixedNormal.standard(), MixedNormal.normal(0.0),
                   MixedNormal(((1.0, 0.5), (4.0, 0.5))),
                   MixedNormal(((0.0, 0.25), (1.0, 0.5), (4.0, 0.25))),
                   MixedNormal(((4.0, 0.25), (0.0, 0.5), (1.0, 0.25)))):
            assert_cdfs_match(
                mn, cdf_points([0.0, 1.0, -2.0], extra), reference_mixed_cdf,
                reference_mixed_cdf_many, reference_mixed_cdf_left_many,
            )

    @given(m=measures(), extra=st.lists(st.floats(-20.0, 20.0), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_discrete_matches_reference(self, m, extra):
        assert_cdfs_match(
            m, cdf_points(m.positions, extra), reference_discrete_cdf,
            reference_discrete_cdf_many, reference_discrete_cdf_left_many,
        )

    def test_discrete_empirical_and_signed_zero_laws(self):
        stream = Stream(6)
        sample = EmpiricalSample(np.array([round(6.0 * stream.uniform() - 3.0, 2)
                                           for _ in range(2000)]))
        extra = [8.0 * stream.uniform() - 4.0 for _ in range(300)]
        for m in (empirical_measure(sample), TENTHS, DiscreteMeasure.point(-0.0),
                  DiscreteMeasure.from_pairs([(-0.0, 0.5), (0.0, 0.5)])):
            assert_cdfs_match(
                m, cdf_points(m.positions, extra), reference_discrete_cdf,
                reference_discrete_cdf_many, reference_discrete_cdf_left_many,
            )
