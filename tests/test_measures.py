"""Measure types: construction, CDF/quantile algebra, sampling, mixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutalab import (
    DiscreteMeasure,
    LabError,
    MixedNormal,
    empirical_measure,
)
from permutalab.measures import (
    MASS_TOL,
    _COUNT_MAX_ATOMS,
    measure_from_csv,
    measure_to_csv,
)
from permutalab.rng import derive_seed

from conftest import (
    flatten_reference, from_pairs, mixed_normals, random_discrete_measure, sample_values,
)
from stream import Stream

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
    2-D block."""
    cum = np.cumsum(m.masses)
    us = np.concatenate(
        [cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf), SPECIAL_US, extra_us]
    )
    assert m.quantile_many(us).tobytes() == reference_quantile_many(m, us).tobytes()
    block = us[: us.size // 2 * 2].reshape(2, -1)
    assert m.quantile_many(block).tobytes() == reference_quantile_many(m, block).tobytes()


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

    def test_tuple_of_pairs_and_array_build_the_same_atoms(self):
        pairs = ((-0.0, 0.25), (0.5, 0.25), (2.0, 0.5))
        from_tuple = DiscreteMeasure(pairs)
        from_array = DiscreteMeasure(np.column_stack(([-0.0, 0.5, 2.0], [0.25, 0.25, 0.5])))
        assert from_tuple.atoms.tobytes() == from_array.atoms.tobytes()
        assert from_tuple.atoms.tobytes() == np.array(pairs).tobytes()
        assert [tuple(row) for row in from_tuple.atoms] == list(pairs)
        for mu in (from_tuple, from_array):
            assert mu.atoms.shape == (3, 2) and mu.atoms.dtype == np.float64
            for arr in (mu.atoms, mu.positions, mu.masses, mu._cum0):
                assert not arr.flags.writeable
            for arr in (mu.positions, mu.masses, mu._cum0):
                assert arr.flags.c_contiguous

    def test_atoms_are_a_copy(self):
        given = np.array([[0.0, 0.5], [1.0, 0.5]])
        mu = DiscreteMeasure(given)
        given[0, 0] = -5.0
        assert mu.positions.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "atoms",
        [
            ((0.0, 0.5), (1.0,)),  # ragged
            ((0.0, 0.5, 1.0), (1.0, 0.5, 1.0)),  # three columns
            (0.0, 1.0),  # 1-D
            (),  # empty
            np.empty((0, 2)),  # empty, as an array
            None,
        ],
    )
    def test_wrong_shape_is_bad_measure(self, atoms):
        with pytest.raises(LabError) as err:
            DiscreteMeasure(atoms)
        assert err.value.token == "bad-measure"

    def test_equality_is_identity(self):
        assert COIN == COIN
        assert DiscreteMeasure(((0.0, 0.5), (1.0, 0.5))) != COIN

    def test_cdf_point_mass(self):
        d0 = DiscreteMeasure.point(0.0)
        assert d0.cdf_many(np.array([-1.0, 0.0])).tolist() == [0.0, 1.0]  # right-continuity

    def test_cdf_coin(self):
        assert COIN.cdf_many(np.array([0.5])).tolist() == [0.5]

    def test_quantile_examples(self):
        assert DiscreteMeasure.point(3.0).quantile_many(np.array([0.5])).tolist() == [3.0]
        # inf convention: a tie u == F(0) goes to the atom at 0
        assert COIN.quantile_many(np.array([0.5, 0.75])).tolist() == [0.0, 1.0]

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
            us = np.array([left + 1e-13, left + w / 2, min(left + w, 1.0 - 1e-13)])
            us = us[(0.0 < us) & (us < 1.0)]
            assert np.all(m.quantile_many(us) == p)
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
        assert s.tobytes() == np.full(5, 2.0).tobytes()

    def test_sample_deterministic(self):
        a = COIN.sample(100, seed=42)
        b = COIN.sample(100, seed=42)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", [1, 5, 4097])
    def test_sample_is_the_quantiles_of_the_scalar_uniforms(self, m):
        law = DiscreteMeasure(((-1.5, 0.2), (0.0, 0.3), (2.0, 0.5)))
        want = law.quantile_many(Stream(derive_seed(11, "measure-sample")).uniform_block(m))
        assert law.sample(m, seed=11).tobytes() == want.tobytes()

    def test_sample_binomial_oracle(self):
        s = COIN.sample(10_000, seed=1)
        assert abs(s.mean() - 0.5) < 0.02

    def test_csv_round_trip(self):
        text = measure_to_csv(COIN)
        assert measure_from_csv(text).atoms.tobytes() == COIN.atoms.tobytes()

    @pytest.mark.parametrize("line", ["0.5", "0.5,1,2", "x,0.5"])
    def test_csv_line_not_a_pair_is_malformed_input(self, line):
        with pytest.raises(LabError) as err:
            measure_from_csv(f"0.0,0.5\n\n{line}\n")
        assert err.value.token == "malformed-input"
        assert "line 3" in str(err.value)

    def test_mixture_merges_equal_doubles_keeping_first(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            components = [(0.5, DiscreteMeasure.point(first)), (0.5, DiscreteMeasure.point(second))]
            m = DiscreteMeasure.mixture(components)
            assert m.atoms.tolist() == [[0.0, 1.0]]
            assert math.copysign(1.0, m.atoms[0][0]) == math.copysign(1.0, first)
            assert m.atoms.tobytes() == flatten_reference(components).atoms.tobytes()


class TestEmpiricalMeasure:
    def test_counting(self):
        m = empirical_measure(np.array([1.0, 1.0, 2.0]))
        assert m.atoms.tolist() == [[1.0, 2.0 / 3.0], [2.0, 1.0 / 3.0]]

    def test_single_value(self):
        assert empirical_measure(np.array([0.0])).atoms.tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("values", [np.array([]), np.ones((2, 2)), np.float64(1.0)])
    def test_empty_or_not_1d_sample_is_bad_measure(self, values):
        with pytest.raises(LabError) as err:
            empirical_measure(values)
        assert err.value.token == "bad-measure"

    def test_sampler_counts(self):
        s = COIN.sample(1000, seed=7)
        m = empirical_measure(s)
        counts = {v: 0 for v, _ in m.atoms}
        for v in s:
            counts[v] += 1  # independent direct count
        for v, mass in m.atoms:
            assert mass == counts[v] / 1000
            assert abs(mass - 0.5) < 0.05


class TestMixedNormal:
    def test_standard_symmetry(self):
        assert MixedNormal.standard().cdf_many(np.array([0.0])).tolist() == [0.5]

    def test_zero_variance_step(self):
        mn = MixedNormal.normal(0.0)
        # right-continuous step at 0
        assert mn.cdf_many(np.array([-1.0, 1.0, 0.0])).tolist() == [0.0, 1.0, 1.0]

    def test_two_component_symmetry(self):
        mn = MixedNormal(((1.0, 0.5), (4.0, 0.5)))
        assert mn.cdf_many(np.array([0.0])).tolist() == [0.5]

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
        ts = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        direct = [0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in ts.tolist()]
        assert np.all(np.abs(MixedNormal.standard().cdf_many(ts) - direct) < 1e-12)


class TestMixture:
    def test_identity(self):
        assert DiscreteMeasure.mixture(((1.0, COIN),)).atoms.tobytes() == COIN.atoms.tobytes()

    def test_merges(self):
        d0 = DiscreteMeasure.point(0.0)
        assert DiscreteMeasure.mixture(((0.5, d0), (0.5, d0))).atoms.tobytes() == d0.atoms.tobytes()

    def test_two_points(self):
        comps = ((0.5, DiscreteMeasure.point(0.0)), (0.5, DiscreteMeasure.point(1.0)))
        assert DiscreteMeasure.mixture(comps).atoms.tobytes() == COIN.atoms.tobytes()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_reference(self, data):
        laws = data.draw(st.lists(measures(), min_size=1, max_size=4))
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(laws), max_size=len(laws)))
        comps = tuple(zip((np.array(raw) / sum(raw)).tolist(), laws))
        want = flatten_reference(comps)
        assert DiscreteMeasure.mixture(comps).atoms.tobytes() == want.atoms.tobytes()

    def test_rescales_only_a_total_between_the_tolerances(self):
        a = DiscreteMeasure(((0.0, 0.5 + 9e-13), (1.0, 0.5)))
        # off by 1.8e-12, within (1 + MASS_TOL)**2 - 1: rescaled to 1
        flat = DiscreteMeasure.mixture(((0.5 + 9e-13, a), (0.5, a)))
        assert abs(flat.masses.sum() - 1.0) <= MASS_TOL
        # off by 9e-13, within MASS_TOL: the merged masses, untouched
        comps = ((0.5 + 9e-13, DiscreteMeasure.point(0.0)), (0.5, DiscreteMeasure.point(1.0)))
        assert DiscreteMeasure.mixture(comps).atoms.tolist() == [[0.0, 0.5 + 9e-13], [1.0, 0.5]]
        # off by 3.2e-12: beyond both, still bad-measure
        with pytest.raises(LabError) as err:
            DiscreteMeasure.mixture(((0.5 + 2.3e-12, a), (0.5, a)))
        assert err.value.token == "bad-measure"

    def test_preserves_mass_and_mean(self):
        stream = Stream(99)
        for _ in range(25):
            comps = []
            k = 1 + stream.below(4)
            weights = np.array([stream.uniform() + 0.05 for _ in range(k)])
            weights /= weights.sum()
            for w in weights:
                comps.append((float(w), random_discrete_measure(stream)))
            flat = DiscreteMeasure.mixture(comps)
            assert abs(flat.masses.sum() - 1.0) <= 1e-12
            want_mean = sum(w * c.mean_var()[0] for w, c in comps)
            assert abs(flat.mean_var()[0] - want_mean) <= 1e-12



# -- CDF oracles: the three separate routines each law had before they
# shared one path, copied verbatim (a discrete law's private ``_cum`` reads
# as ``np.cumsum(m.masses)``, and its ``_pos`` as the ``positions`` field),
# and the scalar normal CDF they call, which the package no longer has

_SQRT2 = math.sqrt(2.0)


def _phi(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


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


# -- per-point oracles of the array paths: the loops they replaced, copied
# verbatim (``MixedNormal._cdf`` with ``self`` read as ``mn``)


def reference_mixed_cdf_loop(mn: MixedNormal, ts, left: bool) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(len(ts))
    for y, w in mn.variance_atoms:
        if y == 0.0:
            out += np.where(ts > 0.0 if left else ts >= 0.0, w, 0.0)
        else:
            s = math.sqrt(y)
            out += np.array([w * _phi(t / s) for t in ts.tolist()])
    return out


def reference_empirical_measure(vals: np.ndarray) -> DiscreteMeasure:
    uniq, counts = np.unique(vals, return_counts=True)
    m = len(vals)
    return DiscreteMeasure(tuple((float(v), float(c) / m) for v, c in zip(uniq, counts)))


class TestArrayPathsMatchLoops:
    """The array paths give the bytes of the per-point loops they replaced."""

    @pytest.mark.parametrize("zero_atom", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_normal_cdf(self, zero_atom, data):
        mn = data.draw(mixed_normals(zero_atom), label="law")
        ts = np.array(data.draw(sample_values(), label="ts"))
        assert mn.cdf_many(ts).tobytes() == reference_mixed_cdf_loop(mn, ts, False).tobytes()
        assert mn.cdf_left_many(ts).tobytes() == reference_mixed_cdf_loop(mn, ts, True).tobytes()

    @given(values=sample_values())
    @settings(max_examples=60, deadline=None)
    def test_empirical_measure(self, values):
        sample = np.array(values)
        got, want = empirical_measure(sample), reference_empirical_measure(sample)
        # bytes tell -0.0 from 0.0, which float equality does not
        assert got.atoms.tobytes() == want.atoms.tobytes()

    def test_empirical_measure_duplicates_and_signed_zeros(self):
        sample = np.array([0.0, -0.0, 2.5, -1.0, 2.5, 0.0, -1.0, 2.5])
        got, want = empirical_measure(sample), reference_empirical_measure(sample)
        assert got.atoms.tobytes() == want.atoms.tobytes()
        assert len(got.atoms) == 3

    def test_empty_points(self):
        for mn in (MixedNormal.standard(), MixedNormal(((0.0, 0.5), (2.0, 0.5)))):
            assert mn.cdf_many(np.array([])).tobytes() == b""
            assert mn.cdf_left_many([]).shape == (0,)


def cdf_points(anchors, extra) -> np.ndarray:
    """The anchors, both neighbouring doubles of each, SPECIAL_TS and ``extra``."""
    anchors = np.asarray(anchors, dtype=float)
    return np.concatenate(
        [anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf),
         SPECIAL_TS, np.asarray(extra, dtype=float)]
    )


def assert_cdfs_match(law, ts: np.ndarray, cdf, cdf_many, cdf_left_many) -> None:
    """``cdf_many`` and ``cdf_left_many`` of ``law`` equal the reference
    routines bit for bit at every point of ``ts``, and ``cdf_many`` equals
    the scalar reference ``cdf`` point by point."""
    assert law.cdf_many(ts).tobytes() == cdf_many(law, ts).tobytes()
    assert law.cdf_left_many(ts).tobytes() == cdf_left_many(law, ts).tobytes()
    want = np.array([cdf(law, t) for t in ts.tolist()])
    assert law.cdf_many(ts).tobytes() == want.tobytes()


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
        sample = np.array([round(6.0 * stream.uniform() - 3.0, 2) for _ in range(2000)])
        extra = [8.0 * stream.uniform() - 4.0 for _ in range(300)]
        for m in (empirical_measure(sample), TENTHS, DiscreteMeasure.point(-0.0),
                  from_pairs([(-0.0, 0.5), (0.0, 0.5)])):
            assert_cdfs_match(
                m, cdf_points(m.positions, extra), reference_discrete_cdf,
                reference_discrete_cdf_many, reference_discrete_cdf_left_many,
            )
