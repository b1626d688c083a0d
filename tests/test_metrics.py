"""Metric layer: transport scan vs independent oracles, couplings, bounds.

The maximal in-range transport (the core of the distance scan) is checked
against an LP solved by scipy on random instances, and against the
union-find greedy fill on dense windows it replaced for exact equality; the
quantile-coupling Wasserstein integral (``thinning.wasserstein2``, a test
oracle) is checked against the LP transport optimum; the distance itself
is checked against the subset-enumeration oracle, and against the dense
candidate scan it replaced (``_prohorov_dense_reference``) for exact
equality.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from permutalab import (
    DiscreteMeasure,
    LabError,
    MixedNormal,
    empirical_measure,
    ks_distance,
    mixture_bound_check,
    prohorov_distance,
    prohorov_oracle,
    strassen_coupling,
)
from permutalab import metrics
from permutalab.measures import MASS_TOL
from permutalab.metrics import (
    MASS_SCALE,
    _array_transport,
    _at_least,
    _integer_masses,
    _transport,
)

from conftest import (
    flatten_reference,
    from_pairs,
    mixed_normals,
    perturbed_measure,
    point_mass,
    random_discrete_measure,
    sample_values,
)
from stream import Stream
from thinning import wasserstein2

COIN = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
D0 = point_mass(0.0)


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
    with np.errstate(over="ignore"):  # distances past the double range are inf
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
    with np.errstate(over="ignore"):
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


def _near_max(stream: Stream) -> float:
    """About +-1.7e308: pairs of opposite signs are farther apart than the
    largest double, so their rounded distance is inf."""
    return (2.0 * stream.below(2) - 1.0) * (1.6e308 + 1e307 * stream.uniform())


def _far_law(stream: Stream) -> DiscreteMeasure:
    """Atoms in [0, 1) or, half the time, in [2, 3): two laws drawn apart are
    farther apart than their spread, and most of their coupling is residual."""
    shift = 2.0 * stream.below(2)
    return _law(stream, 1 + stream.below(29), lambda s: shift + s.uniform())


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
            (8, lambda s: _law(s, 1 + s.below(29), _near_max)),
        ],
        ids=["ties", "wide-magnitudes", "1e-7-clusters", "uniform", "near-max"],
    )
    def test_equal_on_random_instances(self, seed, draw, monkeypatch):
        for mu, nu in self._pairs(seed, draw, 150):
            want = _prohorov_dense_reference(mu, nu)
            for size in (0, 10**9):  # probes on arrays, then by the loop
                monkeypatch.setattr(metrics, "_ARRAY_MIN_ATOMS", size)
                assert prohorov_distance(mu, nu) == want

    def test_single_atom(self):
        stream = Stream(5)
        for _ in range(40):
            point = point_mass(2.0 * stream.uniform() - 1.0)
            other = _law(stream, 1 + stream.below(12), lambda t: 2.0 * t.uniform() - 1.0)
            for mu, nu in ((point, other), (other, point), (point, point)):
                assert prohorov_distance(mu, nu) == _prohorov_dense_reference(mu, nu)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_on_benchmark_sized_normal_pair(self, seed, monkeypatch):
        mu = _normal_law(seed, 2000, 0.0, 1.0)
        nu = _normal_law(seed, 2000, 0.05, 1.1)
        want = _prohorov_dense_reference(mu, nu)
        assert 0.0 < want < 1.0
        for size in (0, 10**9):  # probes on arrays, then by the loop
            monkeypatch.setattr(metrics, "_ARRAY_MIN_ATOMS", size)
            assert prohorov_distance(mu, nu) == want

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

    def test_no_atom_pair_limit(self, monkeypatch):
        # 2.25e8 pairs: the dense scan refuses them, either probe needs
        # O(n + m) memory
        mu = _normal_law(7, 15_000, 0.0, 1.0)
        nu = _normal_law(7, 15_000, 0.02, 1.05)
        with pytest.raises(LabError) as err:
            _dense_prepare(mu, nu)
        assert err.value.token == "too-large"
        got = prohorov_distance(mu, nu)
        assert 0.0 < got < 1.0
        for size in (0, 10**9):  # probes on arrays, then by the loop
            monkeypatch.setattr(metrics, "_ARRAY_MIN_ATOMS", size)
            assert prohorov_distance(mu, nu) == prohorov_distance(nu, mu) == got


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
    # opposite signs are farther apart than the largest double
    "near-max": st.builds(
        lambda sign, u: sign * u, st.sampled_from([-1.0, 1.0]), st.floats(1.6e308, 1.7e308)
    ),
}

# the searchsorted windows of these are one column off at each end in turn:
# lo too far right, end too far right, end too far left, lo too far left
FIX_UPS = [
    ([0.5, 2.7], [0.2], [1, 1], [1], 2.5),
    ([0.3], [0.1, 0.5], [1], [1, 1], 0.3 - 0.1),
    ([0.8], [3.4], [1], [1], 3.4 - 0.8),
    ([1.7, 3.9], [2.8], [1, 1], [1], 2.8 - 1.7),
]


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
    candidates next to d, exactly; so does the array probe, but for the
    shipments."""

    @given(case=_transport_cases())
    # column 0 has capacity left but lies left of row 1's window: row 0
    # ships nothing, or less than column 0 holds
    @example(case=([0.0, 1.0], [0.0, 1.0], [0, 1], [1, 0], 0.0))
    @example(case=([0.0, 1.0], [0.0, 1.0], [1, 1], [2, 1], 0.5))
    @example(case=FIX_UPS[0])
    @example(case=FIX_UPS[1])
    @example(case=FIX_UPS[2])
    @example(case=FIX_UPS[3])
    @settings(max_examples=500, deadline=None)
    def test_equal_to_union_find_on_dense_windows(self, case):
        want = _dense_transport(*case)
        assert _fused(*case) == want
        x, y, ia, ib, d = case
        assert _array_transport(np.array(x), np.array(y), ia, ib)(d) == want[:3]

    @pytest.mark.parametrize("case", FIX_UPS)
    def test_array_windows_need_the_fix_up(self, case, monkeypatch):
        x, y, ia, ib, d = case
        want = _transport(x, y, ia, ib, d)
        assert _array_transport(np.array(x), np.array(y), ia, ib)(d) == want
        monkeypatch.setattr(metrics, "_settle", lambda idx, back, ahead: None)
        assert _array_transport(np.array(x), np.array(y), ia, ib)(d) != want

    @pytest.mark.parametrize(
        "seed, draw",
        [
            (11, lambda s: _tied_law(s, 1 + s.below(17))),
            (12, lambda s: _law(s, 1 + s.below(29), _wide)),
            (13, lambda s: _law(s, 1 + s.below(29), _cluster)),
            (14, _far_law),
        ],
        ids=["ties", "wide-magnitudes", "1e-7-clusters", "far-apart"],
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
                    assert got.tobytes() == want.tobytes()
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
        assert prohorov_distance(D0, point_mass(0.3)) == pytest.approx(0.3, abs=1e-11)
        assert prohorov_distance(D0, point_mass(5.0)) == pytest.approx(1.0, abs=1e-11)

    def test_coin_vs_point(self):
        assert prohorov_distance(COIN, D0) == pytest.approx(0.5, abs=1e-11)

    def test_oracle_trivials(self):
        assert prohorov_oracle(D0, D0) == 0.0
        assert prohorov_oracle(D0, point_mass(0.3)) == pytest.approx(0.3, abs=1e-9)

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


def violation(coupling: np.ndarray, mu, nu, eps: float) -> float:
    """Total mass of the pairs of a coupling (rows mu) further apart than eps.

    An eps that is not >= 0, NaN included, raises ``bad-eps``, as in
    ``strassen_coupling``: no distance compares greater than NaN.
    """
    if not eps >= 0:
        raise LabError("bad-eps", f"eps={eps!r} must be >= 0")
    far = np.abs(mu.positions[:, None] - nu.positions[None, :]) > eps
    return float(coupling[far].sum())


def max_marginal_error(coupling: np.ndarray, mu, nu) -> float:
    """Largest gap between a coupling's row and column sums and its marginals."""
    row_err = np.abs(coupling.sum(axis=1) - mu.masses).max()
    col_err = np.abs(coupling.sum(axis=0) - nu.masses).max()
    return float(max(row_err, col_err))


class TestStrassenCoupling:
    def test_identity_point(self):
        c = strassen_coupling(D0, D0, 0.1)
        assert c.tolist() == [[1.0]]
        assert violation(c, D0, D0, 0.0) == 0.0

    def test_read_only_float_matrix(self):
        c = strassen_coupling(COIN, RADEMACHER, 1.0)
        assert c.dtype == np.float64 and c.shape == (2, 2)
        assert not c.flags.writeable

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_violation_bad_eps(self, eps):
        c = strassen_coupling(COIN, D0, 0.5)
        with pytest.raises(LabError) as err:
            violation(c, COIN, D0, eps)
        assert err.value.token == "bad-eps"

    def test_infeasible_points(self):
        assert strassen_coupling(D0, point_mass(1.0), 0.3) is None

    def test_coin_split(self):
        c = strassen_coupling(COIN, D0, 0.5)
        assert c is not None
        assert c.tolist() == [[0.5], [0.5]]
        assert violation(c, COIN, D0, 0.5) == pytest.approx(0.5, abs=1e-12)

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
            assert max_marginal_error(c, mu, nu) <= 1e-12
            assert violation(c, mu, nu, d + 1e-9) <= d + 1e-9 + 1e-12
            if d > 1e-6 and strassen_coupling(mu, nu, d - 1e-6) is None:
                infeasible_below += 1
        assert infeasible_below >= 1  # boundary consistency, recorded not sharp

    @staticmethod
    def _grid_measure(stream: Stream, max_atoms: int) -> DiscreteMeasure:
        """1..max_atoms atoms on the 1/8 grid of [-1, 1], small integer weights."""
        n = 1 + stream.below(max_atoms)
        positions = sorted({stream.below(17) / 8.0 - 1.0 for _ in range(n)})
        weights = [1 + stream.below(4) for _ in positions]
        return DiscreteMeasure(tuple((p, w / sum(weights)) for p, w in zip(positions, weights)))

    @pytest.mark.parametrize("kind", ["uniform", "grid"])
    def test_distance_is_the_smallest_feasible_double(self, kind):
        # the distance is the smallest double t >= 0 with deficit(t) <= t, and
        # the coupling tests that same predicate: feasible at d, not one ulp below
        stream = Stream(1618 if kind == "uniform" else 1619)
        for _ in range(300):
            if kind == "uniform":
                mu, nu = (random_discrete_measure(stream, max_atoms=12) for _ in range(2))
            else:
                mu, nu = (self._grid_measure(stream, 12) for _ in range(2))
            d = prohorov_distance(mu, nu)
            assert strassen_coupling(mu, nu, d) is not None
            if d > 0:
                assert strassen_coupling(mu, nu, math.nextafter(d, 0.0)) is None


class TestWasserstein2:
    def test_identity(self):
        assert wasserstein2(COIN, COIN) == 0.0

    def test_unit_shift(self):
        assert wasserstein2(D0, point_mass(1.0)) == 1.0

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
        assert ks_distance(D0, point_mass(1.0)) == 1.0

    def test_rademacher_vs_normal_closed_form(self):
        phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        want = phi_1 - 0.5  # 0.34134...
        got = ks_distance(RADEMACHER, MixedNormal.standard())
        assert got == pytest.approx(want, abs=1e-12)
        assert round(want, 5) == 0.34134

    @pytest.mark.parametrize(
        "g", [MixedNormal.normal(4.0), COIN], ids=["mixed-normal", "discrete"]
    )
    def test_first_law_not_discrete(self, g):
        # the supremum is exact only at the jumps of a discrete first law
        with pytest.raises(LabError) as err:
            ks_distance(MixedNormal.standard(), g)
        assert err.value.token == "ks-not-discrete"

    def test_empirical_vs_step(self):
        emp = empirical_measure(np.array([0.0, 0.0, 1.0, 2.0]))
        assert ks_distance(emp, D0) == 0.5

    def test_zero_variance_atom_keeps_its_left_limit(self):
        # a zero-variance atom is a jump of g at 0, where F(0-) = G(0-) = 0:
        # taking G(0) = 1 as its left limit would give 1
        assert ks_distance(D0, MixedNormal.normal(0.0)) == 0.0
        assert ks_distance(D0, MixedNormal(((0.0, 0.5), (1.0, 0.5)))) == 0.25


def reference_ks_distance(f, g) -> float:
    """The two-sided evaluation, verbatim but for the type check: both CDFs
    and both left limits of each law at every jump point of either law."""
    ts = np.union1d(f.jump_points(), g.jump_points())
    d_right = np.abs(f.cdf_many(ts) - g.cdf_many(ts))
    d_left = np.abs(f.cdf_left_many(ts) - g.cdf_left_many(ts))
    return float(max(d_right.max(), d_left.max()))


@st.composite
def _second_laws(draw):
    """A mixed normal with or without a zero-variance atom, or an empirical law."""
    kind = draw(st.sampled_from(["normal", "zero-atom", "empirical"]))
    if kind == "empirical":
        return empirical_measure(np.array(draw(sample_values(2_000))))
    return draw(mixed_normals(kind == "zero-atom"))


class TestKsDistanceOracle:
    @given(values=sample_values(), g=_second_laws())
    @settings(max_examples=80, deadline=None)
    def test_matches_two_sided_evaluation(self, values, g):
        f = empirical_measure(np.array(values))
        assert repr(ks_distance(f, g)) == repr(reference_ks_distance(f, g))


@st.composite
def _threshold_cases(draw):
    """Two small laws and the thresholds next to their distance: the distance,
    its neighbouring doubles, 0 and a pair distance."""
    a, b = draw(_small_laws()), draw(_small_laws())
    dist = prohorov_distance(a, b)
    x, y = draw(st.sampled_from(a.positions.tolist())), draw(st.sampled_from(b.positions.tolist()))
    pair = abs(x - y)
    return a, b, [dist, math.nextafter(dist, 0.0), math.nextafter(dist, math.inf), 0.0, pair]


class TestMixtureBounds:
    @given(case=_threshold_cases())
    @settings(max_examples=200, deadline=None)
    def test_one_probe_decides_a_threshold(self, case):
        a, b, thresholds = case
        for size in (0, 10**9):  # probes on arrays, then by the loop
            with mock.patch.object(metrics, "_ARRAY_MIN_ATOMS", size):
                for eps in thresholds:
                    assert _at_least(a, b, eps) == (prohorov_distance(a, b) >= eps)

    def test_precondition_computes_no_distance(self, monkeypatch):
        calls = []

        def counted(mu, nu):
            calls.append(1)
            return prohorov_distance(mu, nu)

        monkeypatch.setattr(metrics, "prohorov_distance", counted)
        near = DiscreteMeasure(((0.05, 0.5), (1.05, 0.5)))
        pairs = [(0.25, COIN, near), (0.25, COIN, COIN), (0.5, RADEMACHER, RADEMACHER)]
        assert mixture_bound_check(pairs, 0.1)[1]
        assert len(calls) == 1  # the mixtures' distance only

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
        far = point_mass(9.0)
        with pytest.raises(LabError) as err:
            mixture_bound_check([(1.0, D0, far)], 0.05)
        assert err.value.token == "mixture-bound-precondition"

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_mixture_bad_eps(self, eps):
        # NaN fails every comparison, so unchecked it passes the precondition
        with pytest.raises(LabError) as err:
            mixture_bound_check([(1.0, D0, point_mass(0.01))], eps)
        assert err.value.token == "bad-eps"

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan])
    def test_random_measure_bad_eps(self, eps):
        # a random measure on atoms A_i is checked as (P(A_i), law, law') triples
        triples = [(0.3, D0, point_mass(0.01)), (0.7, COIN, COIN)]
        with pytest.raises(LabError) as err:
            mixture_bound_check(triples, eps)
        assert err.value.token == "bad-eps"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_non_finite_weight(self, bad):
        # a NaN weight used to pass both weight tests and drop its pair
        for pairs in ([(bad, D0, point_mass(9.0)), (1.0, D0, D0)],
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

    @pytest.mark.parametrize("weights", [
        (), (-0.5, 1.5), (0.5, 0.4), (math.nan,), (math.inf,), (0.5, math.nan),
        (0.5 + 4e-10, 0.5),  # within 1e-9 of 1, not within MASS_TOL: was bad-measure
    ])
    def test_random_measure_bad_weights(self, weights):
        # the P(A_i) of a random measure must be finite, >= 0 and sum to 1
        triples = [(w, COIN, COIN) for w in weights]
        with pytest.raises(LabError) as err:
            mixture_bound_check(triples, 0.1)
        assert err.value.token == "bad-weights"

    def test_random_measure_null_atom(self):
        # an atom A_i with P(A_i) = 0 is dropped, however far its laws are
        triples = [(0.0, D0, point_mass(9.0)), (1.0, COIN, COIN)]
        assert mixture_bound_check(triples, 0.1) == (0.0, True)

    def test_random_measure_identity(self):
        triples = [(0.5, COIN, COIN), (0.5, RADEMACHER, RADEMACHER)]
        lhs, holds = mixture_bound_check(triples, 0.1)
        assert lhs == 0.0 and holds
        # weights and a law each within MASS_TOL of 1 mix to a total of
        # 1 + 1.8e-12, which the mixture rescales to 1
        a = DiscreteMeasure(((0.0, 0.5 + 9e-13), (1.0, 0.5)))
        assert mixture_bound_check([(0.5 + 9e-13, a, a), (0.5, a, a)], 0.1) == (0.0, True)

    def test_random_measure_one_far_component(self):
        triples = [(0.08, D0, point_mass(7.0)), (0.92, COIN, COIN)]
        lhs, holds = mixture_bound_check(triples, 0.1)
        assert holds and lhs <= 0.2 + 1e-9

    def test_random_measure_precondition(self):
        with pytest.raises(LabError) as err:
            mixture_bound_check([(1.0, D0, point_mass(5.0))], 0.05)
        assert err.value.token == "mixture-bound-precondition"

    def test_random_measure_random_instances(self):
        stream = Stream(606)
        for _ in range(80):
            eps = 0.05 + 0.3 * stream.uniform()
            k = 1 + stream.below(4)
            weights = np.array([stream.uniform() + 0.05 for _ in range(k)])
            weights /= weights.sum()
            triples = []
            wild_budget = eps
            for w in weights:
                base = random_discrete_measure(stream, max_atoms=4)
                if w <= wild_budget and stream.uniform() < 0.3:
                    other = random_discrete_measure(stream, max_atoms=4, lo=3.0, hi=4.0)
                    wild_budget -= w
                else:
                    other = perturbed_measure(stream, base, eps / 2)
                triples.append((float(w), base, other))
            lhs, holds = mixture_bound_check(triples, eps)
            assert holds, (lhs, eps)


# -- stability-bound oracles: the mixture check and the random-measure check
# as they were before the checks shared one path, copied verbatim
# (``rm.components`` reads as the component list ``rm``, ``rm.flatten()``
# as ``flatten_reference(rm)`` and ``DiscreteMeasure.from_pairs`` as
# ``from_pairs``, both from conftest), plus the
# ``bad-eps`` check on an eps that is not >= 0, made after the weight
# checks as in the library.  A random measure on atoms A_i is now checked
# as the ``(P(A_i), law_i, law'_i)`` triples of ``mixture_bound_check``.


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
        from_pairs(mix_mu), from_pairs(mix_nu)
    )
    return lhs, lhs <= 2.0 * eps + 1e-9


def random_measure_bound_check_reference(rm1, rm2, eps: float) -> tuple[float, bool]:
    if len(rm1) != len(rm2):
        raise LabError("atom-mismatch", "component counts differ")
    w1 = np.array([w for w, _ in rm1])
    w2 = np.array([w for w, _ in rm2])
    if np.max(np.abs(w1 - w2)) > 1e-12:
        raise LabError("atom-mismatch", "component weights differ")
    if not eps >= 0:
        raise LabError("bad-eps", "eps must be >= 0")
    heavy = sum(
        w
        for (w, a), (_, b) in zip(rm1, rm2)
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
    return a, from_pairs((p + shift, m) for p, m in a.atoms)


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
    """(triples, eps): positive weights, laws near, unrelated or far."""
    eps = draw(st.floats(0.01, 0.6))
    k = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    return [(r / sum(raw), *draw(_component_pairs(eps))) for r in raw], eps


FAR = point_mass(9.0)
# explicit instances of each case the strategies draw at random
ZERO_WEIGHT = ([(0.0, D0, FAR), (1.0, COIN, RADEMACHER)], 0.5)
FAR_PAIR = ([(0.3, D0, FAR), (0.7, COIN, COIN)], 0.1)
# NaN fails every comparison, so unchecked it passes the precondition
NAN_EPS_PAIR = ([(1.0, D0, point_mass(0.01))], math.nan)


class TestStabilityBoundOracle:
    """The bound check gives the old ``repr(lhs)`` and verdict, or its token."""

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
    @example(case=FAR_PAIR)
    @example(case=NAN_EPS_PAIR)
    @example(case=(FAR_PAIR[0], 0.5))
    @settings(max_examples=300, deadline=None)
    def test_random_measure_bound_check(self, case):
        triples, eps = case
        rm1 = [(w, a) for w, a, _ in triples]
        rm2 = [(w, b) for w, _, b in triples]
        want = _outcome(random_measure_bound_check_reference, rm1, rm2, eps)
        if want == "random-measure-bound-precondition":
            want = "mixture-bound-precondition"
        assert _outcome(mixture_bound_check, triples, eps) == want

    def test_examples_reach_their_cases(self):
        assert _outcome(mixture_bound_check, *ZERO_WEIGHT)[1]
        assert _outcome(mixture_bound_check, *FAR_PAIR) == "mixture-bound-precondition"
        assert _outcome(mixture_bound_check, *NAN_EPS_PAIR) == "bad-eps"
        assert _outcome(mixture_bound_check, FAR_PAIR[0], 0.5)[1]
