"""Metric layer: transport scan vs independent oracles, couplings, bounds.

The maximal in-range transport (the core of the distance scan) is checked
against an LP solved by scipy on random instances, and against the
union-find greedy fill on dense windows it replaced for exact equality; the
quantile-coupling Wasserstein integral is checked against the LP transport
optimum; the distance itself is checked against the subset-enumeration
oracle, and against the dense candidate scan it replaced
(``_prohorov_dense_reference``) for exact equality.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from permutalab import (
    DiscreteMeasure,
    LabError,
    MixedNormal,
    RandomMeasure,
    empirical_measure,
    ks_distance,
    mixture_bound_check,
    prohorov_distance,
    prohorov_oracle,
    random_measure_bound_check,
    strassen_coupling,
    wasserstein2,
)
from permutalab.measures import MASS_TOL, EmpiricalSample
from permutalab.metrics import MASS_SCALE, _integer_masses, _transport
from permutalab.rng import Stream

from conftest import perturbed_measure, random_discrete_measure

COIN = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
D0 = DiscreteMeasure.point(0.0)


def lp_max_inrange_mass(mu, nu, d):
    """LP oracle: maximal transportable mass using pairs within distance d."""
    x, y = mu.positions, nu.positions
    allowed = np.abs(x[:, None] - y[None, :]) <= d
    nvar = allowed.sum()
    if nvar == 0:
        return 0.0
    rows, cols = np.nonzero(allowed)
    a_ub, b_ub = [], []
    for i in range(len(x)):
        coef = np.zeros(nvar)
        coef[rows == i] = 1.0
        a_ub.append(coef)
        b_ub.append(mu.masses[i])
    for j in range(len(y)):
        coef = np.zeros(nvar)
        coef[cols == j] = 1.0
        a_ub.append(coef)
        b_ub.append(nu.masses[j])
    res = linprog(-np.ones(nvar), A_ub=np.array(a_ub), b_ub=np.array(b_ub), method="highs")
    assert res.success
    return -res.fun


def lp_quadratic_transport(mu, nu):
    """LP oracle: minimal quadratic transport cost between two atomic laws."""
    x, y = mu.positions, nu.positions
    nx, ny = len(x), len(y)
    cost = ((x[:, None] - y[None, :]) ** 2).ravel()
    a_eq, b_eq = [], []
    for i in range(nx):
        coef = np.zeros((nx, ny))
        coef[i, :] = 1.0
        a_eq.append(coef.ravel())
        b_eq.append(mu.masses[i])
    for j in range(ny):
        coef = np.zeros((nx, ny))
        coef[:, j] = 1.0
        a_eq.append(coef.ravel())
        b_eq.append(nu.masses[j])
    res = linprog(cost, A_eq=np.array(a_eq)[:-1], b_eq=np.array(b_eq)[:-1], method="highs")
    assert res.success
    return math.sqrt(max(res.fun, 0.0))


# -- the mass scaling and the transport fill before the one-pass transport,
# copied verbatim: numpy largest-remainder rounding and the leftmost-first
# greedy over a path-compressed union-find of the columns with capacity


def _integer_masses_reference(mass: np.ndarray) -> np.ndarray:
    """Scale masses to integers summing exactly to ``MASS_SCALE`` (largest remainder)."""
    exact = mass * float(MASS_SCALE)
    base = np.floor(exact).astype(np.int64)
    remainder = exact - base
    short = MASS_SCALE - int(base.sum())
    while short > 0:
        order = np.argsort(-remainder, kind="stable")
        k = min(short, len(base))
        base[order[:k]] += 1
        remainder[order[:k]] -= 1.0
        short -= k
    while short < 0:
        eligible = np.flatnonzero(base >= 1)
        order = eligible[np.argsort(remainder[eligible], kind="stable")]
        k = min(-short, len(order))
        base[order[:k]] -= 1
        remainder[order[:k]] += 1.0
        short += k
    return base


def _greedy_transport_reference(ia, ib, lo, hi, collect: bool = False):
    """Maximum in-window integer transport; optionally the assignment triples.

    ``ia`` and ``ib`` are the integer masses of the rows and columns, ``lo``
    and ``hi`` the row windows (``lo[i] > hi[i]`` for an empty row).
    """
    remaining = list(ib)
    ncols = len(remaining)
    # nxt[j]: first column >= j with remaining capacity (path-compressed)
    nxt = list(range(ncols + 1))

    def find(j: int) -> int:
        root = j
        while nxt[root] != root:
            root = nxt[root]
        while nxt[j] != root:
            nxt[j], j = root, nxt[j]
        return root

    flow = 0
    triples: list[tuple[int, int, int]] = [] if collect else None
    for i, (left, j, h) in enumerate(zip(ia, lo, hi)):
        while left > 0 and j <= h:
            j = find(j)
            if j > h:
                break
            cap = remaining[j]
            t = cap if cap < left else left
            remaining[j] = cap - t
            left -= t
            flow += t
            if collect:
                triples.append((i, j, t))
            if remaining[j] == 0:
                nxt[j] = j + 1
    return (flow, triples) if collect else flow


def strassen_coupling_reference(mu, nu, eps: float):
    """``strassen_coupling`` on dense windows, the union-find fill and numpy masses."""
    ia = _integer_masses_reference(mu.masses)
    ib = _integer_masses_reference(nu.masses)
    lo, hi = _dense_windows(np.abs(mu.positions[:, None] - nu.positions[None, :]), eps)
    flow, triples = _greedy_transport_reference(ia.tolist(), ib.tolist(), lo, hi, collect=True)
    deficit = MASS_SCALE - flow
    if deficit / MASS_SCALE > eps:
        return None

    grid = np.zeros((len(ia), len(ib)), dtype=np.int64)
    for i, j, t in triples:
        grid[i, j] += t
    res_row = ia - grid.sum(axis=1)
    res_col = ib - grid.sum(axis=0)
    i = j = 0
    nrows, ncols = grid.shape
    while i < nrows and j < ncols:
        if res_row[i] == 0:
            i += 1
            continue
        if res_col[j] == 0:
            j += 1
            continue
        t = min(int(res_row[i]), int(res_col[j]))
        grid[i, j] += t
        res_row[i] -= t
        res_col[j] -= t
    return grid.astype(float) / MASS_SCALE


def _dense_windows(dist: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row index range [lo, hi] of columns with dist[i, j] <= d (dense mask)."""
    mask = dist <= d
    lo = mask.argmax(axis=1)
    hi = dist.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    empty = ~mask.any(axis=1)
    lo[empty] = 1
    hi[empty] = 0
    return lo, hi


def _dense_prepare(mu: DiscreteMeasure, nu: DiscreteMeasure):
    x = mu.positions
    y = nu.positions
    if x.size * y.size > 2 * 10**8:
        raise LabError("too-large", "atom count product too large for exact scan")
    dist = np.abs(x[:, None] - y[None, :])
    ia = _integer_masses_reference(mu.masses)
    ib = _integer_masses_reference(nu.masses)
    return dist, ia, ib


def _dense_deficit_int(dist, ia, ib, d: float) -> int:
    lo, hi = _dense_windows(dist, d)
    return MASS_SCALE - _greedy_transport_reference(ia, ib, lo, hi)


def _prohorov_dense_reference(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """The dense scan: every pair distance is a candidate, bisected by index.

    Since the deficit is nonincreasing and the candidates increase, the
    minimum of max(d, deficit(d)) sits at the first candidate where
    deficit(d) <= d.  O(n*m) memory.
    """
    dist, ia, ib = _dense_prepare(mu, nu)
    cands = np.unique(np.concatenate(([0.0], dist.ravel())))

    def deficit(d: float) -> float:
        return _dense_deficit_int(dist, ia, ib, d) / MASS_SCALE

    lo_i, hi_i = 0, len(cands) - 1
    # invariant: predicate deficit(c) <= c is False before lo_i, True at hi_i
    if deficit(float(cands[0])) <= float(cands[0]):
        return float(cands[0])
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if deficit(float(cands[mid])) <= float(cands[mid]):
            hi_i = mid
        else:
            lo_i = mid
    return float(min(deficit(float(cands[lo_i])), float(cands[hi_i])))


def _dense_transport(x, y, ia, ib, d: float):
    """``_transport``'s results from dense windows and the union-find fill."""
    dist = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :])
    lo, hi = _dense_windows(dist, d)
    flow, triples = _greedy_transport_reference(ia, ib, lo, hi, collect=True)
    # the candidates on either side of d
    cands = np.unique(np.concatenate(([0.0], dist.ravel())))
    above = cands[cands > d]
    inside = float(cands[cands <= d].max())
    return flow, inside, float(above.min()) if above.size else math.inf, triples


def _fused(x, y, ia, ib, d: float):
    triples = []
    return (*_transport(x, y, ia, ib, d, triples), triples)


def _lists(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Positions and integer masses as the library hands them to ``_transport``."""
    return (
        mu.positions.tolist(),
        nu.positions.tolist(),
        _integer_masses(mu.masses),
        _integer_masses(nu.masses),
    )


def _law(stream: Stream, n: int, position) -> DiscreteMeasure:
    """n distinct positions from position(stream), random positive masses."""
    positions = set()
    while len(positions) < n:
        positions.add(position(stream))
    masses = np.array([stream.uniform() + 1e-3 for _ in range(n)])
    masses /= masses.sum()
    return DiscreteMeasure(tuple(zip(sorted(positions), masses)))


def _tied_law(stream: Stream, n: int) -> DiscreteMeasure:
    """Equal masses on a 1/8 grid: many shared positions and repeated distances."""
    cells = sorted({stream.below(17) for _ in range(n)})
    return DiscreteMeasure(tuple(((c - 8) / 8.0, 1.0 / len(cells)) for c in cells))


def _wide(stream: Stream) -> float:
    return (2.0 * stream.uniform() - 1.0) * 10.0 ** (15.0 * stream.uniform() - 12.0)


def _cluster(stream: Stream) -> float:
    return 1e-7 * stream.uniform()


def _normal_law(seed: int, n: int, shift: float, scale: float) -> DiscreteMeasure:
    """n distinct normal draws of mass 1/n, as the benchmark's Prohorov input."""
    rnd = random.Random(f"normal-law:{seed}:{shift}")
    positions: set[float] = set()
    while len(positions) < n:
        positions.add(shift + scale * rnd.gauss(0.0, 1.0))
    return DiscreteMeasure(tuple((p, 1.0 / n) for p in sorted(positions)))


class TestProhorovAgainstDenseScan:
    """The two-pointer bisection must return exactly the dense scan's double."""

    def _pairs(self, seed, draw, count):
        stream = Stream(seed)
        for _ in range(count):
            yield draw(stream), draw(stream)

    @pytest.mark.parametrize(
        "seed, draw",
        [
            (1, lambda s: _tied_law(s, 1 + s.below(17))),
            (2, lambda s: _law(s, 1 + s.below(29), _wide)),
            (3, lambda s: _law(s, 1 + s.below(29), _cluster)),
            (4, lambda s: random_discrete_measure(s, max_atoms=29)),
        ],
        ids=["ties", "wide-magnitudes", "1e-7-clusters", "uniform"],
    )
    def test_equal_on_random_instances(self, seed, draw):
        for mu, nu in self._pairs(seed, draw, 150):
            assert prohorov_distance(mu, nu) == _prohorov_dense_reference(mu, nu)

    def test_single_atom(self):
        stream = Stream(5)
        for _ in range(40):
            point = DiscreteMeasure.point(2.0 * stream.uniform() - 1.0)
            other = _law(stream, 1 + stream.below(12), lambda t: 2.0 * t.uniform() - 1.0)
            for mu, nu in ((point, other), (other, point), (point, point)):
                assert prohorov_distance(mu, nu) == _prohorov_dense_reference(mu, nu)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_on_benchmark_sized_normal_pair(self, seed):
        mu = _normal_law(seed, 2000, 0.0, 1.0)
        nu = _normal_law(seed, 2000, 0.05, 1.1)
        got = prohorov_distance(mu, nu)
        assert 0.0 < got < 1.0
        assert got == _prohorov_dense_reference(mu, nu)

    @pytest.mark.parametrize("draw", [_wide, _cluster, lambda t: t.below(17) / 8.0])
    def test_windows_equal_dense_mask(self, draw):
        stream = Stream(6)
        for _ in range(100):
            mu = _law(stream, 1 + stream.below(12), draw)
            nu = _law(stream, 1 + stream.below(12), draw)
            dist = np.abs(mu.positions[:, None] - nu.positions[None, :])
            cands = np.unique(np.concatenate(([0.0], dist.ravel())))
            exact = float(cands[stream.below(len(cands))])
            x, y, ia, ib = _lists(mu, nu)
            for d in (exact, float(dist.max()) * stream.uniform()):
                assert _fused(x, y, ia, ib, d) == _dense_transport(x, y, ia, ib, d)

    def test_no_atom_pair_limit(self):
        # 2.25e8 pairs: the dense scan refuses them, the two-pointer scan
        # needs O(n + m) memory
        mu = _normal_law(7, 15_000, 0.0, 1.0)
        nu = _normal_law(7, 15_000, 0.02, 1.05)
        with pytest.raises(LabError) as err:
            _dense_prepare(mu, nu)
        assert err.value.token == "too-large"
        got = prohorov_distance(mu, nu)
        assert 0.0 < got < 1.0
        assert got == prohorov_distance(nu, mu)


class TestGreedyTransportAgainstLP:
    def _check(self, mu, nu, d):
        flow = _transport(*_lists(mu, nu), d)[0] / MASS_SCALE
        want = lp_max_inrange_mass(mu, nu, d)
        assert abs(flow - want) <= 1e-7

    def test_random_instances(self):
        stream = Stream(2024)
        for _ in range(120):
            mu = random_discrete_measure(stream, max_atoms=5)
            nu = random_discrete_measure(stream, max_atoms=5)
            self._check(mu, nu, stream.uniform() * 1.2)

    def test_cluster_scale_instances(self):
        # positions and thresholds at 1e-7 scale: window bounds must agree
        # with the rounded distance matrix at boundary pairs
        stream = Stream(2025)
        for _ in range(80):
            mu = random_discrete_measure(stream, max_atoms=5, lo=0.0, hi=1e-6)
            nu = random_discrete_measure(stream, max_atoms=5, lo=0.0, hi=1e-6)
            dist = np.abs(mu.positions[:, None] - nu.positions[None, :])
            d = float(dist.ravel()[stream.below(dist.size)])  # exact candidate
            self._check(mu, nu, d)


_POSITIONS = {
    "ties": st.integers(0, 16).map(lambda c: (c - 8) / 8.0),
    "wide": st.builds(lambda u, e: u * 10.0**e, st.floats(-1.0, 1.0), st.integers(-12, 3)),
    "1e-7-cluster": st.floats(0.0, 1e-7),
}


@st.composite
def _transport_cases(draw):
    """Rows and columns of one position family, integer masses with zeros,
    and a threshold at a candidate, between two, or anywhere up to twice the
    largest."""
    pos = _POSITIONS[draw(st.sampled_from(sorted(_POSITIONS)))]
    x = sorted(draw(st.lists(pos, min_size=1, max_size=12, unique=True)))
    y = sorted(draw(st.lists(pos, min_size=1, max_size=12, unique=True)))
    ia = draw(st.lists(st.integers(0, 4), min_size=len(x), max_size=len(x)))
    ib = draw(st.lists(st.integers(0, 4), min_size=len(y), max_size=len(y)))
    cands = sorted({0.0} | {abs(a - b) for a in x for b in y})
    k = draw(st.integers(0, len(cands) - 1))
    between = 0.5 * (cands[k] + cands[min(k + 1, len(cands) - 1)])
    d = draw(st.sampled_from([cands[k], between]) | st.floats(0.0, 2.0 * cands[-1]))
    return x, y, ia, ib, d


class TestOnePassTransport:
    """``_transport`` gives the union-find fill's flow and shipments, and the
    candidates next to d, exactly."""

    @given(case=_transport_cases())
    # column 0 has capacity left but lies left of row 1's window: row 0
    # ships nothing, or less than column 0 holds
    @example(case=([0.0, 1.0], [0.0, 1.0], [0, 1], [1, 0], 0.0))
    @example(case=([0.0, 1.0], [0.0, 1.0], [1, 1], [2, 1], 0.5))
    @settings(max_examples=500, deadline=None)
    def test_equal_to_union_find_on_dense_windows(self, case):
        assert _fused(*case) == _dense_transport(*case)

    @pytest.mark.parametrize(
        "seed, draw",
        [
            (11, lambda s: _tied_law(s, 1 + s.below(17))),
            (12, lambda s: _law(s, 1 + s.below(29), _wide)),
            (13, lambda s: _law(s, 1 + s.below(29), _cluster)),
        ],
        ids=["ties", "wide-magnitudes", "1e-7-clusters"],
    )
    def test_coupling_equals_union_find_oracle(self, seed, draw):
        stream = Stream(seed)
        feasible = 0
        for _ in range(60):
            mu, nu = draw(stream), draw(stream)
            dist = np.abs(mu.positions[:, None] - nu.positions[None, :])
            cands = np.unique(np.concatenate(([0.0], dist.ravel())))
            k = stream.below(len(cands))
            between = 0.5 * (cands[k] + cands[min(k + 1, len(cands) - 1)])
            for eps in (float(cands[k]), float(between), prohorov_distance(mu, nu)):
                got = strassen_coupling(mu, nu, eps)
                want = strassen_coupling_reference(mu, nu, eps)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.matrix.tobytes() == want.tobytes()
                    feasible += 1
        assert feasible >= 60


# floors of the scaled masses overshoot 10**12 by one (short < 0) or fall
# short of it (short > 0)
OVERSHOOT = [0.211459841332, 0.788540158669]
UNDERSHOOT = [1 / 3, 1 / 3, 1 / 3]


@st.composite
def _mass_vectors(draw) -> np.ndarray:
    """1 to 64 masses within MASS_TOL of 1, at most two of them below 1e-12.

    Either normalized random weights or a random partition of 10**12 + s
    (s = -1, 0, 1) divided by 10**12: at s = 1 the floors can overshoot, and
    about a third of those partitions do.
    """
    n = draw(st.integers(1, 64))
    tiny = draw(st.lists(st.floats(0.0, 1e-15, exclude_min=True), max_size=min(2, n - 1)))
    k = n - len(tiny)
    if draw(st.booleans()):
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
        big = [r / math.fsum(raw) for r in raw]
    else:
        total = MASS_SCALE + draw(st.sampled_from([-1, 0, 1, 1, 1]))
        cuts = sorted(draw(st.randoms(use_true_random=False)).sample(range(1, total), k - 1))
        big = [(b - a) / MASS_SCALE for a, b in zip([0, *cuts], [*cuts, total])]
    mass = np.array(draw(st.permutations(big + tiny)))
    assume(abs(float(mass.sum()) - 1.0) <= MASS_TOL)
    return mass


class TestIntegerMasses:
    @given(mass=_mass_vectors())
    @example(mass=np.array(OVERSHOOT))
    @example(mass=np.array(OVERSHOOT + [1e-300]))
    @example(mass=np.array(UNDERSHOOT))
    @settings(max_examples=500, deadline=None)
    def test_equal_to_numpy_reference(self, mass):
        got = _integer_masses(mass)
        assert got == _integer_masses_reference(mass).tolist()
        assert all(type(v) is int for v in got)
        assert sum(got) == MASS_SCALE

    def test_examples_reach_both_loops(self):
        def short(mass):
            return MASS_SCALE - sum(math.floor(m * MASS_SCALE) for m in mass)

        assert short(OVERSHOOT) == short(OVERSHOOT + [1e-300]) == -1
        assert short(UNDERSHOOT) == 1
        assert abs(sum(OVERSHOOT) - 1.0) <= MASS_TOL
        assert _integer_masses(np.array(OVERSHOOT + [1e-300])) == [211459841331, 788540158669, 0]


class TestProhorovDistance:
    def test_identity(self):
        stream = Stream(5)
        for _ in range(10):
            m = random_discrete_measure(stream)
            assert prohorov_distance(m, m) == 0.0

    def test_point_masses(self):
        assert prohorov_distance(D0, DiscreteMeasure.point(0.3)) == pytest.approx(0.3, abs=1e-11)
        assert prohorov_distance(D0, DiscreteMeasure.point(5.0)) == pytest.approx(1.0, abs=1e-11)

    def test_coin_vs_point(self):
        assert prohorov_distance(COIN, D0) == pytest.approx(0.5, abs=1e-11)

    def test_oracle_trivials(self):
        assert prohorov_oracle(D0, D0) == 0.0
        assert prohorov_oracle(D0, DiscreteMeasure.point(0.3)) == pytest.approx(0.3, abs=1e-9)

    def test_oracle_equivalence_random(self):
        stream = Stream(31337)
        for _ in range(40):
            mu = random_discrete_measure(stream, max_atoms=6)
            nu = random_discrete_measure(stream, max_atoms=6)
            assert prohorov_distance(mu, nu) == pytest.approx(prohorov_oracle(mu, nu), abs=1e-9)

    def test_oracle_size_guard(self):
        big = DiscreteMeasure(tuple((float(i), 0.1) for i in range(10)))
        with pytest.raises(LabError) as err:
            prohorov_oracle(big, big)
        assert err.value.token == "oracle-size"

    def test_symmetry_exact(self):
        stream = Stream(88)
        for _ in range(30):
            mu = random_discrete_measure(stream, max_atoms=5)
            nu = random_discrete_measure(stream, max_atoms=5)
            assert prohorov_distance(mu, nu) == prohorov_distance(nu, mu)

    def test_triangle_inequality(self):
        stream = Stream(17)
        for _ in range(60):
            a = random_discrete_measure(stream, max_atoms=5)
            b = random_discrete_measure(stream, max_atoms=5)
            c = random_discrete_measure(stream, max_atoms=5)
            assert prohorov_distance(a, c) <= (
                prohorov_distance(a, b) + prohorov_distance(b, c) + 1e-9
            )

    def test_bounded_by_one(self):
        stream = Stream(4)
        for _ in range(20):
            mu = random_discrete_measure(stream, lo=-50, hi=50)
            nu = random_discrete_measure(stream, lo=-50, hi=50)
            assert prohorov_distance(mu, nu) <= 1.0

    def test_zero_iff_wasserstein_zero(self):
        stream = Stream(12)
        for _ in range(30):
            mu = random_discrete_measure(stream)
            nu = random_discrete_measure(stream)
            assert (prohorov_distance(mu, nu) == 0.0) == (wasserstein2(mu, nu) == 0.0)


class TestStrassenCoupling:
    def test_identity_point(self):
        c = strassen_coupling(D0, D0, 0.1)
        assert c.matrix.tolist() == [[1.0]]
        assert c.violation(0.0) == 0.0

    def test_infeasible_points(self):
        assert strassen_coupling(D0, DiscreteMeasure.point(1.0), 0.3) is None

    def test_coin_split(self):
        c = strassen_coupling(COIN, D0, 0.5)
        assert c is not None
        assert c.matrix.tolist() == [[0.5], [0.5]]
        assert c.violation(0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_negative_eps_is_bad_eps(self, eps):
        with pytest.raises(LabError) as err:
            strassen_coupling(COIN, D0, eps)
        assert err.value.token == "bad-eps"

    def test_too_large_for_dense_matrix(self):
        big = DiscreteMeasure(tuple((float(i), 1.0 / 15_000) for i in range(15_000)))
        with pytest.raises(LabError) as err:
            strassen_coupling(big, big, 0.1)
        assert err.value.token == "too-large"

    def test_feasible_at_distance_plus(self):
        stream = Stream(2718)
        infeasible_below = 0
        for _ in range(100):
            mu = random_discrete_measure(stream, max_atoms=5)
            nu = random_discrete_measure(stream, max_atoms=5)
            d = prohorov_distance(mu, nu)
            c = strassen_coupling(mu, nu, d + 1e-9)
            assert c is not None
            assert c.max_marginal_error() <= 1e-12
            assert c.violation(d + 1e-9) <= d + 1e-9 + 1e-12
            if d > 1e-6 and strassen_coupling(mu, nu, d - 1e-6) is None:
                infeasible_below += 1
        assert infeasible_below >= 1  # boundary consistency, recorded not sharp


class TestWasserstein2:
    def test_identity(self):
        assert wasserstein2(COIN, COIN) == 0.0

    def test_unit_shift(self):
        assert wasserstein2(D0, DiscreteMeasure.point(1.0)) == 1.0

    def test_coin_vs_point(self):
        assert wasserstein2(COIN, D0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_lp_oracle(self):
        stream = Stream(314)
        for _ in range(40):
            mu = random_discrete_measure(stream, max_atoms=4)
            nu = random_discrete_measure(stream, max_atoms=4)
            assert wasserstein2(mu, nu) == pytest.approx(lp_quadratic_transport(mu, nu), abs=1e-7)


class TestKsDistance:
    def test_equal(self):
        assert ks_distance(COIN, COIN) == 0.0

    def test_disjoint_points(self):
        assert ks_distance(D0, DiscreteMeasure.point(1.0)) == 1.0

    def test_rademacher_vs_normal_closed_form(self):
        phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        want = phi_1 - 0.5  # 0.34134...
        got = ks_distance(RADEMACHER, MixedNormal.standard())
        assert got == pytest.approx(want, abs=1e-12)
        assert round(want, 5) == 0.34134

    def test_two_mixed_normals_grid(self):
        a = MixedNormal.standard()
        b = MixedNormal.normal(4.0)
        # sup_t |Phi(t) - Phi(t/2)| at t where densities cross: 2 sqrt(ln 2 / 1.5)*... check numerically
        grid = np.linspace(-8, 8, 20001)
        want = np.max(np.abs(a.cdf_many(grid) - b.cdf_many(grid)))
        assert ks_distance(a, b) == pytest.approx(want, abs=1e-6)

    def test_empirical_vs_step(self):
        emp = empirical_measure(EmpiricalSample((0.0, 0.0, 1.0, 2.0)))
        assert ks_distance(emp, D0) == 0.5


class TestMixtureBounds:
    def test_mixture_identity(self):
        pairs = [(0.5, COIN, COIN), (0.5, RADEMACHER, RADEMACHER)]
        lhs, holds = mixture_bound_check(pairs, 0.2)
        assert lhs == 0.0 and holds

    def test_mixture_single_pair(self):
        nu = DiscreteMeasure(((0.2, 0.5), (1.2, 0.5)))
        rho = prohorov_distance(COIN, nu)
        assert rho == pytest.approx(0.2, abs=1e-11)
        lhs, holds = mixture_bound_check([(1.0, COIN, nu)], 0.2001)
        assert holds and lhs <= 0.4002

    def test_mixture_precondition_error(self):
        far = DiscreteMeasure.point(9.0)
        with pytest.raises(LabError) as err:
            mixture_bound_check([(1.0, D0, far)], 0.05)
        assert err.value.token == "mixture-bound-precondition"

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_mixture_bad_eps(self, eps):
        # NaN fails every comparison, so unchecked it passes the precondition
        with pytest.raises(LabError) as err:
            mixture_bound_check([(1.0, D0, DiscreteMeasure.point(0.01))], eps)
        assert err.value.token == "bad-eps"

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_random_measure_bad_eps(self, eps):
        rm1 = RandomMeasure(((1.0, D0),))
        rm2 = RandomMeasure(((1.0, DiscreteMeasure.point(0.01)),))
        with pytest.raises(LabError) as err:
            random_measure_bound_check(rm1, rm2, eps)
        assert err.value.token == "bad-eps"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_non_finite_weight(self, bad):
        # a NaN weight used to pass both weight tests and drop its pair
        for pairs in ([(bad, D0, DiscreteMeasure.point(9.0)), (1.0, D0, D0)],
                      [(bad, D0, D0), (0.5, D0, D0)]):
            with pytest.raises(LabError) as err:
                mixture_bound_check(pairs, 0.1)
            assert err.value.token == "bad-weights"

    def test_mixture_random_instances(self):
        stream = Stream(5150)
        for _ in range(80):
            eps = 0.05 + 0.3 * stream.uniform()
            n_pairs = 1 + stream.below(5)
            weights = np.array([stream.uniform() + 0.05 for _ in range(n_pairs)])
            weights /= weights.sum()
            pairs = []
            wild_budget = eps
            for w in weights:
                mu = random_discrete_measure(stream, max_atoms=4)
                if w <= wild_budget and stream.uniform() < 0.3:
                    nu = random_discrete_measure(stream, max_atoms=4, lo=3.0, hi=4.0)
                    wild_budget -= w
                else:
                    nu = perturbed_measure(stream, mu, eps / 2)
                pairs.append((float(w), mu, nu))
            lhs, holds = mixture_bound_check(pairs, eps)
            assert holds, (lhs, eps)

    def test_random_measure_identity(self):
        rm = RandomMeasure(((0.5, COIN), (0.5, RADEMACHER)))
        lhs, holds = random_measure_bound_check(rm, rm, 0.1)
        assert lhs == 0.0 and holds

    def test_random_measure_one_far_component(self):
        rm1 = RandomMeasure(((0.08, D0), (0.92, COIN)))
        rm2 = RandomMeasure(((0.08, DiscreteMeasure.point(7.0)), (0.92, COIN)))
        lhs, holds = random_measure_bound_check(rm1, rm2, 0.1)
        assert holds and lhs <= 0.2 + 1e-9

    def test_random_measure_mismatch(self):
        rm1 = RandomMeasure(((1.0, COIN),))
        rm2 = RandomMeasure(((0.5, COIN), (0.5, COIN)))
        with pytest.raises(LabError) as err:
            random_measure_bound_check(rm1, rm2, 0.1)
        assert err.value.token == "atom-mismatch"

    def test_random_measure_precondition(self):
        rm1 = RandomMeasure(((1.0, D0),))
        rm2 = RandomMeasure(((1.0, DiscreteMeasure.point(5.0)),))
        with pytest.raises(LabError) as err:
            random_measure_bound_check(rm1, rm2, 0.05)
        assert err.value.token == "random-measure-bound-precondition"

    def test_random_measure_random_instances(self):
        stream = Stream(606)
        for _ in range(80):
            eps = 0.05 + 0.3 * stream.uniform()
            k = 1 + stream.below(4)
            weights = np.array([stream.uniform() + 0.05 for _ in range(k)])
            weights /= weights.sum()
            comps1, comps2 = [], []
            wild_budget = eps
            for w in weights:
                base = random_discrete_measure(stream, max_atoms=4)
                if w <= wild_budget and stream.uniform() < 0.3:
                    other = random_discrete_measure(stream, max_atoms=4, lo=3.0, hi=4.0)
                    wild_budget -= w
                else:
                    other = perturbed_measure(stream, base, eps / 2)
                comps1.append((float(w), base))
                comps2.append((float(w), other))
            lhs, holds = random_measure_bound_check(
                RandomMeasure(tuple(comps1)), RandomMeasure(tuple(comps2)), eps
            )
            assert holds, (lhs, eps)


# -- stability-bound oracles: the two checks and ``RandomMeasure.flatten`` as
# they were before both checks shared ``_stability_bound`` and
# ``DiscreteMeasure.mixture``, copied verbatim (``rm.flatten()`` reads as
# ``flatten_reference(rm)``), plus the ``bad-eps`` check on an eps that is
# not >= 0, made after the weight checks as in the library


def flatten_reference(self) -> DiscreteMeasure:
    """The mean measure: atoms merged across components, re-sorted."""
    pairs = []
    for w, comp in self.components:
        for p, m in comp.atoms:
            pairs.append((p, w * m))
    return DiscreteMeasure.from_pairs(pairs)


def mixture_bound_check_reference(
    pairs: list[tuple[float, DiscreteMeasure, DiscreteMeasure]], eps: float
) -> tuple[float, bool]:
    cs = np.array([c for c, _, _ in pairs], dtype=float)
    if np.any(cs < 0) or abs(cs.sum() - 1.0) > 1e-9:
        raise LabError("bad-weights", "weights must be >= 0 and sum to 1")
    if not eps >= 0:
        raise LabError("bad-eps", "eps must be >= 0")
    heavy = sum(
        c for c, m, n in pairs if c > 0 and prohorov_distance(m, n) >= eps
    )
    if heavy > eps + 1e-12:
        raise LabError(
            "mixture-bound-precondition",
            f"weight {heavy!r} of far pairs exceeds eps={eps!r}",
        )
    mix_mu = [(p, c * m) for c, a, _ in pairs if c > 0 for p, m in a.atoms]
    mix_nu = [(p, c * m) for c, _, b in pairs if c > 0 for p, m in b.atoms]
    lhs = prohorov_distance(
        DiscreteMeasure.from_pairs(mix_mu), DiscreteMeasure.from_pairs(mix_nu)
    )
    return lhs, lhs <= 2.0 * eps + 1e-9


def random_measure_bound_check_reference(rm1, rm2, eps: float) -> tuple[float, bool]:
    if len(rm1.components) != len(rm2.components):
        raise LabError("atom-mismatch", "component counts differ")
    w1 = np.array([w for w, _ in rm1.components])
    w2 = np.array([w for w, _ in rm2.components])
    if np.max(np.abs(w1 - w2)) > 1e-12:
        raise LabError("atom-mismatch", "component weights differ")
    if not eps >= 0:
        raise LabError("bad-eps", "eps must be >= 0")
    heavy = sum(
        w
        for (w, a), (_, b) in zip(rm1.components, rm2.components)
        if prohorov_distance(a, b) >= eps
    )
    if heavy > eps + 1e-12:
        raise LabError(
            "random-measure-bound-precondition",
            f"weight {heavy!r} of far atoms exceeds eps={eps!r}",
        )
    lhs = prohorov_distance(flatten_reference(rm1), flatten_reference(rm2))
    return lhs, lhs <= 2.0 * eps + 1e-9


def _outcome(check, *args):
    """``(repr(lhs), holds)`` of a bound check, or the token it raises."""
    try:
        lhs, holds = check(*args)
    except LabError as exc:
        return exc.token
    return repr(lhs), holds


@st.composite
def _small_laws(draw) -> DiscreteMeasure:
    n = draw(st.integers(1, 4))
    positions = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return DiscreteMeasure(tuple(zip(sorted(positions), (r / sum(raw) for r in raw))))


@st.composite
def _component_pairs(draw, eps: float) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """A law and a partner that is equal, within about eps, unrelated or far."""
    a = draw(_small_laws())
    kind = draw(st.sampled_from(["equal", "near", "unrelated", "far"]))
    if kind == "equal":
        return a, a
    if kind == "unrelated":
        return a, draw(_small_laws())
    shift = 10.0 if kind == "far" else eps * draw(st.floats(-1.2, 1.2))
    return a, DiscreteMeasure.from_pairs((p + shift, m) for p, m in a.atoms)


@st.composite
def _mixture_cases(draw):
    """(pairs, eps) with zero weights, far pairs and, rarely, bad weight sums."""
    eps = draw(st.floats(0.01, 0.6))
    k = draw(st.integers(1, 5))
    raw = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] += 1
    scale = draw(st.sampled_from([1.0] * 8 + [1.01, -1.0]))
    weights = [scale * r / sum(raw) for r in raw]
    pairs = [(w, *draw(_component_pairs(eps))) for w in weights]
    return pairs, eps


@st.composite
def _random_measure_cases(draw):
    """(rm1, rm2, eps) with far components, count and weight mismatches."""
    eps = draw(st.floats(0.01, 0.6))
    k = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    ws = [r / sum(raw) for r in raw]
    comps = [draw(_component_pairs(eps)) for _ in range(k)]
    side1 = [(w, a) for w, (a, _) in zip(ws, comps)]
    side2 = [(w, b) for w, (_, b) in zip(ws, comps)]
    change = draw(st.sampled_from(["none", "none", "weights", "count"]))
    if change == "weights" and k > 1:
        # by more than 1e-12 (atom-mismatch) or less (each side keeps its own)
        d = draw(st.sampled_from([1e-11, 9e-13]))
        side2[0] = (ws[0] + d, side2[0][1])
        side2[-1] = (ws[-1] - d, side2[-1][1])
    elif change == "count":
        w, b = side2.pop()
        side2 += [(w / 2, b), (w / 2, b)]
    return RandomMeasure(tuple(side1)), RandomMeasure(tuple(side2)), eps


FAR = DiscreteMeasure.point(9.0)
# explicit instances of each case the strategies draw at random
ZERO_WEIGHT = ([(0.0, D0, FAR), (1.0, COIN, RADEMACHER)], 0.5)
FAR_PAIR = ([(0.3, D0, FAR), (0.7, COIN, COIN)], 0.1)
COUNT_MISMATCH = (RandomMeasure(((1.0, COIN),)), RandomMeasure(((0.5, COIN), (0.5, COIN))), 0.1)
WEIGHT_MISMATCH = (
    RandomMeasure(((0.5, COIN), (0.5, D0))),
    RandomMeasure(((0.5 + 1e-11, COIN), (0.5 - 1e-11, D0))),
    0.1,
)
FAR_COMPONENT = (
    RandomMeasure(((0.3, D0), (0.7, COIN))), RandomMeasure(((0.3, FAR), (0.7, COIN))), 0.1
)
# NaN fails every comparison, so unchecked it passes the precondition
NAN_EPS_PAIR = ([(1.0, D0, DiscreteMeasure.point(0.01))], math.nan)
# weights 9e-13 apart pass; mixed with the first side's weights the second
# mixture would equal the first and the distance would read 0.0
OWN_WEIGHTS = (
    RandomMeasure(((0.5, D0), (0.5, DiscreteMeasure.point(1.0)))),
    RandomMeasure(((0.5 + 9e-13, D0), (0.5 - 9e-13, DiscreteMeasure.point(1.0)))),
    0.5,
)


class TestStabilityBoundOracle:
    """Both bound checks give the old ``repr(lhs)`` and verdict, or its token."""

    @given(case=_mixture_cases())
    @example(case=ZERO_WEIGHT)
    @example(case=FAR_PAIR)
    @example(case=NAN_EPS_PAIR)
    @example(case=(FAR_PAIR[0], -0.1))
    @settings(max_examples=300, deadline=None)
    def test_mixture_bound_check(self, case):
        pairs, eps = case
        want = _outcome(mixture_bound_check_reference, pairs, eps)
        assert _outcome(mixture_bound_check, pairs, eps) == want

    @given(case=_random_measure_cases())
    @example(case=COUNT_MISMATCH)
    @example(case=WEIGHT_MISMATCH)
    @example(case=FAR_COMPONENT)
    @example(case=OWN_WEIGHTS)
    @example(case=(*FAR_COMPONENT[:2], math.nan))
    @example(case=(*COUNT_MISMATCH[:2], math.nan))
    @settings(max_examples=300, deadline=None)
    def test_random_measure_bound_check(self, case):
        want = _outcome(random_measure_bound_check_reference, *case)
        assert _outcome(random_measure_bound_check, *case) == want

    def test_examples_reach_their_cases(self):
        assert _outcome(mixture_bound_check, *ZERO_WEIGHT)[1]
        assert _outcome(mixture_bound_check, *FAR_PAIR) == "mixture-bound-precondition"
        assert _outcome(mixture_bound_check, *NAN_EPS_PAIR) == "bad-eps"
        assert _outcome(random_measure_bound_check, *WEIGHT_MISMATCH) == "atom-mismatch"
        assert _outcome(random_measure_bound_check, *OWN_WEIGHTS) == ("1e-12", True)
