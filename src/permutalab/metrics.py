"""Exact probability metrics on atomic measures.

Prohorov distance is computed through its coupling characterization: for a
threshold ``d``, let ``deficit(d)`` be the probability mass that cannot be
transported between the two measures using only atom pairs within distance
``d``.  The distance is the infimum over ``d >= 0`` of
``max(d, deficit(d))``.  Two conventions make this exact and finite:

* closed balls everywhere (the infimum is the same as with the open-ball
  definition, and the deficit becomes a step function of ``d``);
* masses are scaled by 10**12 and rounded to integers summing exactly to
  the scale (largest-remainder rounding), so transport feasibility is
  decided in integer arithmetic.  The induced distortion of any reported
  mass or distance is below 1e-11.

A pair ``(x_i, y_j)`` is within distance ``d`` when its rounded distance
``|fl(x_i - y_j)|`` is at most ``d``.  The candidates are 0 and these
rounded distances.  The deficit is nonincreasing in ``d`` and constant from
one candidate up to the next, so the predicate ``deficit(t) <= t`` is false
below some double and true from it on.  The distance is **the smallest
double t >= 0 with deficit(t) <= t**: if the predicate is false at a
candidate ``c_lo`` and true at the next one ``c_hi``, the deficit on
``[c_lo, c_hi)`` is ``deficit(c_lo) > c_lo``, so that double is
``min(deficit(c_lo), c_hi)``, which is the infimum of ``max(d, deficit(d))``.
``prohorov_distance`` finds it without listing the candidates: it bisects on
the IEEE bit pattern (for nonnegative doubles the int64 order is the float
order, so at most 63 halvings are needed, and the integer midpoint never
rounds onto an end as ``0.5 * (a + b)`` can), and snaps each probe to the
candidates on either side of it.

Because atoms are sorted, the pairs within distance ``d`` form contiguous
column windows ``[lo_i, hi_i]`` whose endpoints are nondecreasing in the
row index: ``fl(x_i - y_j)`` is nondecreasing in ``x_i`` and nonincreasing
in ``y_j``.  ``_windows`` finds them in one two-pointer pass in O(n + m)
time and memory, testing the very predicate the candidates come from:
``fl(x_i - y_j) <= d`` left of ``x_i`` and ``fl(y_j - x_i) <= d`` right of
it (``fl(y_j - x_i)`` is exactly ``-fl(x_i - y_j)``).  It never compares
``y_j`` with a re-rounded ``x_i +- d``, which misclassifies boundary pairs.
The same pass returns the largest distance inside the windows and the
smallest outside them: the candidates next to ``d``.  On such a staircase
bipartite graph the leftmost-first greedy assignment attains the maximum
flow (exchange argument: a later row can always take over a right column
from an earlier row, never the converse), which is what
``_greedy_transport`` implements in O(rows + cols) after the window scan.

``prohorov_oracle`` is the independent verification path: it enumerates
subsets of the supports and bisects on the defining inequalities directly.

The stability bound (component laws within eps outside a weight of at most
eps give mixtures within 2 eps) is checked once, in ``_stability_bound``;
both public checks validate their inputs and pass them on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import LabError
from .measures import DiscreteMeasure, MixedNormal

MASS_SCALE = 10**12
ORACLE_MAX_ATOMS = 14

_KS_GRID_LO = -10.0
_KS_GRID_HI = 10.0
_KS_GRID_STEP = 1e-4


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix with the two atomic marginals it couples (rows mu)."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.flags.writeable = False

    def violation(self, eps: float) -> float:
        """Total mass of pairs further apart than eps."""
        x = self.mu.positions[:, None]
        y = self.nu.positions[None, :]
        return float(self.matrix[np.abs(x - y) > eps].sum())

    def max_marginal_error(self) -> float:
        row_err = np.abs(self.matrix.sum(axis=1) - self.mu.masses).max()
        col_err = np.abs(self.matrix.sum(axis=0) - self.nu.masses).max()
        return float(max(row_err, col_err))


def _integer_masses(mass: np.ndarray) -> np.ndarray:
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


def _windows(
    x: list[float], y: list[float], d: float
) -> tuple[list[int], list[int], float, float]:
    """Per-row column windows ``[lo, hi]`` of the pairs with ``|fl(x_i - y_j)| <= d``.

    ``x`` and ``y`` are the sorted positions as Python floats.  Returns the
    lists ``lo`` and ``hi`` (``lo[i] > hi[i]`` for an empty row), the largest
    pair distance ``<= d`` (0.0 if there is none) and the smallest pair
    distance ``> d`` (inf if there is none).
    """
    m = len(y)
    los: list[int] = []
    his: list[int] = []
    inside, outside = 0.0, math.inf
    lo = end = 0
    for xi in x:
        while lo < m and xi - y[lo] > d:
            lo += 1
        while end < m and y[end] - xi <= d:
            end += 1
        # the row's window is [lo, end - 1]; its distances peak at the two
        # ends, and lo - 1 and end are the nearest columns outside it
        # (compared inline: max/min calls double the cost of the pass)
        if lo < end:
            v = xi - y[lo]
            if v > inside:
                inside = v
            v = y[end - 1] - xi
            if v > inside:
                inside = v
        if lo > 0:
            v = xi - y[lo - 1]
            if v < outside:
                outside = v
        if end < m:
            v = y[end] - xi
            if v < outside:
                outside = v
        los.append(lo)
        his.append(end - 1)
    return los, his, inside, outside


def _greedy_transport(
    ia: list[int],
    ib: list[int],
    lo: list[int],
    hi: list[int],
    collect: bool = False,
):
    """Maximum in-window integer transport; optionally the assignment triples.

    ``ia`` and ``ib`` are the integer masses of the rows and columns, ``lo``
    and ``hi`` the row windows of :func:`_windows`.
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


def _prepare(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Positions as Python floats and integer masses as Python ints, as lists."""
    return (
        mu.positions.tolist(),
        nu.positions.tolist(),
        _integer_masses(mu.masses).tolist(),
        _integer_masses(nu.masses).tolist(),
    )


def _bits(t: float) -> int:
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _from_bits(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def prohorov_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Prohorov distance between two atomic measures, exact up to 1e-11.

    Returns the smallest double ``t >= 0`` with ``deficit(t) <= t`` (see the
    module docstring), found by bisection on the bit pattern between the
    next candidate above the last failing probe and a candidate where the
    predicate holds.  Time O((n + m) * 64), memory O(n + m).
    """
    x, y, ia, ib = _prepare(mu, nu)

    def probe(t: float) -> tuple[float, float, float]:
        lo, hi, inside, outside = _windows(x, y, t)
        return (MASS_SCALE - _greedy_transport(ia, ib, lo, hi)) / MASS_SCALE, inside, outside

    deficit, _, nxt = probe(0.0)
    if deficit <= 0.0:
        return 0.0
    # Invariant: the predicate failed at the last failing probe, and the
    # deficit stays ``deficit`` from there up to the next candidate nxt; so
    # it fails everywhere below nxt, unless deficit < nxt, which is then the
    # answer.  It holds at the candidate b: at the largest pair distance
    # every pair is inside its window and the deficit is 0.
    b = max(x[-1] - y[0], y[-1] - x[0])
    while nxt < b and deficit >= nxt:
        mid = _from_bits((_bits(nxt) + _bits(b)) // 2)
        d_mid, inside, outside = probe(mid)
        if d_mid <= mid:
            if d_mid > inside:
                # false at the candidate below mid, true at mid: the
                # deficit between them is d_mid
                return d_mid
            b = inside
        else:
            deficit, nxt = d_mid, outside
    return min(deficit, b)


def prohorov_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Independent Prohorov evaluation by subset enumeration and bisection.

    Checks both one-sided inequalities (closed neighborhoods) for every
    subset of each support and bisects on eps to 1e-10.  Only for small
    instances; raises ``oracle-size`` beyond 14 combined atoms.
    """
    n_total = len(mu.atoms) + len(nu.atoms)
    if n_total > ORACLE_MAX_ATOMS:
        raise LabError("oracle-size", f"{n_total} atoms exceeds oracle limit")

    def side_tables(a: DiscreteMeasure, b: DiscreteMeasure):
        # all subsets A of supp(a): masses a(A), and distances of b-atoms to A
        na = len(a.atoms)
        masks = (np.arange(1 << na)[:, None] >> np.arange(na)[None, :]) & 1
        masks = masks.astype(bool)
        mass_a = masks @ a.masses
        d = np.abs(a.positions[:, None] - b.positions[None, :])
        dist = np.where(masks[:, :, None], d[None, :, :], np.inf).min(axis=1)
        return mass_a, dist, b.masses

    side1 = side_tables(mu, nu)
    side2 = side_tables(nu, mu)

    def feasible(eps: float) -> bool:
        for mass_a, dist, mass_b in (side1, side2):
            covered = (dist <= eps) @ mass_b
            if np.any(mass_a > covered + eps + 1e-15):
                return False
        return True

    lo, hi = 0.0, 1.0
    if feasible(0.0):
        return 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def strassen_coupling(
    mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float
) -> Coupling | None:
    """A coupling whose mass outside distance eps is at most eps, or None.

    When feasible, the returned coupling ships the maximal in-range mass;
    the residual is matched northwest-style so the marginals are exact to
    the integer scale (error < 1e-12 per atom).
    """
    if eps < 0:
        raise LabError("bad-eps", "eps must be >= 0")
    if mu.positions.size * nu.positions.size > 2 * 10**8:
        raise LabError("too-large", "atom count product too large for a dense coupling matrix")
    x, y, ia, ib = _prepare(mu, nu)
    lo, hi, _, _ = _windows(x, y, float(eps))
    flow, triples = _greedy_transport(ia, ib, lo, hi, collect=True)
    deficit = MASS_SCALE - flow
    if deficit / MASS_SCALE > eps:
        return None

    grid = np.zeros((len(x), len(y)), dtype=np.int64)
    for i, j, t in triples:
        grid[i, j] += t
    res_row = np.array(ia) - grid.sum(axis=1)
    res_col = np.array(ib) - grid.sum(axis=0)
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
    return Coupling(mu, nu, grid.astype(float) / MASS_SCALE)


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Quadratic transport distance via the quantile coupling on (0, 1).

    Both quantile functions are step functions; the integral is evaluated
    exactly on the merged breakpoint partition.
    """
    cum_mu = np.cumsum(mu.masses)[:-1]
    cum_nu = np.cumsum(nu.masses)[:-1]
    bk = np.unique(np.concatenate((cum_mu, cum_nu, [0.0, 1.0])))
    bk = bk[(bk >= 0.0) & (bk <= 1.0)]
    widths = np.diff(bk)
    mids = 0.5 * (bk[:-1] + bk[1:])
    keep = widths > 0
    q_mu = mu.quantile_many(mids[keep])
    q_nu = nu.quantile_many(mids[keep])
    return float(math.sqrt(np.dot(widths[keep], (q_mu - q_nu) ** 2)))


CdfEvaluable = DiscreteMeasure | MixedNormal


def _is_continuous(f: CdfEvaluable) -> bool:
    return isinstance(f, MixedNormal) and f.has_continuous_part


def ks_distance(f: CdfEvaluable, g: CdfEvaluable) -> float:
    """Sup-distance of two CDFs over jump points (plus a grid when needed).

    Exact when at most one side has a continuous part: between jumps a step
    CDF is constant and the other CDF is monotone, so the supremum is
    attained at a jump point or its left limit.  When both sides are
    continuous the sup is refined on a fixed grid of step 1e-4 over
    [-10, 10]; this under-approximates by at most the local CDF modulus
    over one grid step.
    """
    anchors = [np.asarray(f.jump_points(), dtype=float), np.asarray(g.jump_points(), dtype=float)]
    if _is_continuous(f) and _is_continuous(g):
        n_steps = int(round((_KS_GRID_HI - _KS_GRID_LO) / _KS_GRID_STEP)) + 1
        anchors.append(np.linspace(_KS_GRID_LO, _KS_GRID_HI, n_steps))
    ts = np.unique(np.concatenate([a for a in anchors if a.size]))
    if ts.size == 0:
        return 0.0
    d_right = np.abs(f.cdf_many(ts) - g.cdf_many(ts))
    d_left = np.abs(f.cdf_left_many(ts) - g.cdf_left_many(ts))
    return float(max(d_right.max(), d_left.max()))


def _stability_bound(left, right, eps: float, token: str) -> tuple[float, bool]:
    """The stability bound on two aligned ``(w, law)`` lists of mixture components.

    The weight of the pairs with prohorov(a_i, b_i) >= eps, summed from
    ``left``, must be at most eps (else ``token``).  Returns the Prohorov
    distance of the two mixtures and whether it is <= 2*eps (+1e-9 slack).
    """
    heavy = sum(w for (w, a), (_, b) in zip(left, right) if prohorov_distance(a, b) >= eps)
    if heavy > eps + 1e-12:
        raise LabError(token, f"weight {heavy!r} of far components exceeds eps={eps!r}")
    lhs = prohorov_distance(DiscreteMeasure.mixture(left), DiscreteMeasure.mixture(right))
    return lhs, lhs <= 2.0 * eps + 1e-9


def mixture_bound_check(
    pairs: list[tuple[float, DiscreteMeasure, DiscreteMeasure]], eps: float
) -> tuple[float, bool]:
    """Check the mixture stability bound: close components give 2*eps mixtures.

    ``pairs`` are (weight, mu_i, nu_i); requires finite weights >= 0
    summing to 1 and the total weight of pairs with prohorov(mu_i, nu_i)
    >= eps to be at most eps; pairs of weight 0 are dropped.  Returns the
    Prohorov distance between the two mixtures and whether it is <= 2*eps
    (+1e-9 slack).
    """
    cs = np.array([c for c, _, _ in pairs], dtype=float)
    if not all(0 <= c < math.inf for c in cs) or abs(cs.sum() - 1.0) > 1e-9:
        raise LabError("bad-weights", "weights must be finite, >= 0 and sum to 1")
    left = [(c, a) for c, a, _ in pairs if c > 0]
    right = [(c, b) for c, _, b in pairs if c > 0]
    return _stability_bound(left, right, eps, "mixture-bound-precondition")


def random_measure_bound_check(rm1, rm2, eps: float) -> tuple[float, bool]:
    """Check the random-measure stability bound on two coupled mixtures.

    The components must live on the same atom index set with the same
    weights; requires the total weight of atoms where the component laws
    are >= eps apart to be at most eps.  Returns the Prohorov distance of
    the two mean measures (each mixed with its own weights) and whether it
    is <= 2*eps (+1e-9 slack).
    """
    if len(rm1.components) != len(rm2.components):
        raise LabError("atom-mismatch", "component counts differ")
    w1 = np.array([w for w, _ in rm1.components])
    w2 = np.array([w for w, _ in rm2.components])
    if np.max(np.abs(w1 - w2)) > 1e-12:
        raise LabError("atom-mismatch", "component weights differ")
    return _stability_bound(
        rm1.components, rm2.components, eps, "random-measure-bound-precondition"
    )
