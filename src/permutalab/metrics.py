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
column windows ``[lo_i, end_i)`` whose ends are nondecreasing in the row
index: ``fl(x_i - y_j)`` is nondecreasing in ``x_i`` and nonincreasing in
``y_j``.  The ends are found by two pointers testing the very predicate the
candidates come from: ``fl(x_i - y_j) <= d`` left of ``x_i`` and
``fl(y_j - x_i) <= d`` right of it (``fl(y_j - x_i)`` is exactly
``-fl(x_i - y_j)``).  Nothing is compared with a re-rounded ``x_i +- d``,
which misclassifies boundary pairs.  On such a staircase bipartite graph
filling the rows in turn, each from the leftmost column with capacity left
in its window, attains the maximum flow: the windows only move right, so
the leftmost columns are those later rows can least use.  The fill needs
no search for that column.  Let ``p`` be the column where the fill
stopped: the columns in ``[lo_{i-1}, p)`` are used up, and those left of
``lo_{i-1} <= lo_i`` lie outside every later window; so row ``i`` starts
at ``max(p, lo_i)``.  ``_transport`` advances ``lo``, ``end`` and ``p`` row
by row in one pass, O(n + m) time and memory per probe, and returns the
flow with the largest distance inside the windows and the smallest outside
them: the candidates next to ``d``.

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


def _integer_masses(mass: np.ndarray) -> list[int]:
    """Scale masses to integers summing exactly to ``MASS_SCALE`` (largest remainder).

    The remainders are ranked by a stable sort, so ties go to the lower index.
    """
    exact = [m * MASS_SCALE for m in mass.tolist()]
    base = [math.floor(e) for e in exact]
    remainder = [e - b for e, b in zip(exact, base)]
    short = MASS_SCALE - sum(base)
    while short > 0:
        order = sorted(range(len(base)), key=remainder.__getitem__, reverse=True)
        for i in order[:short]:
            base[i] += 1
            remainder[i] -= 1.0
        short -= min(short, len(base))
    while short < 0:
        eligible = [i for i, b in enumerate(base) if b >= 1]
        for i in sorted(eligible, key=remainder.__getitem__)[:-short]:
            base[i] -= 1
            remainder[i] += 1.0
        short += min(-short, len(eligible))
    return base


def _transport(x, y, ia, ib, d: float, triples: list | None = None):
    """Maximum integer transport over the pairs with ``|fl(x_i - y_j)| <= d``.

    ``x`` and ``y`` are the sorted positions as Python floats, ``ia`` and
    ``ib`` the integer masses of the rows and columns.  One pass advances the
    window ends ``lo`` and ``end`` and the fill pointer ``p`` row by row (see
    the module docstring).  Returns the flow, the largest pair distance
    ``<= d`` (0.0 if there is none) and the smallest pair distance ``> d``
    (inf if there is none); appends the ``(i, j, t)`` shipments to
    ``triples`` when it is given.
    """
    m = len(y)
    rem = list(ib)
    inside, outside = 0.0, math.inf
    lo = end = p = 0
    for i, xi in enumerate(x):
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
        # fill leftmost-first from the first column not used up
        if p < lo:
            p = lo
        left = ia[i]
        while left and p < end:
            cap = rem[p]
            if cap > left:
                rem[p] = cap - left
                if triples is not None:
                    triples.append((i, p, left))
                break
            rem[p] = 0
            left -= cap
            if triples is not None:
                triples.append((i, p, cap))
            p += 1
    return sum(ib) - sum(rem), inside, outside


def _bits(t: float) -> int:
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _from_bits(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def prohorov_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Prohorov distance between two atomic measures, exact up to 1e-11.

    Returns the smallest double ``t >= 0`` with ``deficit(t) <= t`` (see the
    module docstring), found by bisection on the bit pattern between the
    next candidate above the last failing probe and a candidate where the
    predicate holds: one O(n + m) pass of ``_transport`` per probe, at most
    64 probes.  Memory O(n + m).
    """
    x, y = mu.positions.tolist(), nu.positions.tolist()
    ia, ib = _integer_masses(mu.masses), _integer_masses(nu.masses)

    def probe(t: float) -> tuple[float, float, float]:
        flow, inside, outside = _transport(x, y, ia, ib, t)
        return (MASS_SCALE - flow) / MASS_SCALE, inside, outside

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
    the integer scale (error < 1e-12 per atom).  An eps that is not >= 0,
    NaN included, raises ``bad-eps``.
    """
    if not eps >= 0:
        raise LabError("bad-eps", f"eps={eps!r} must be >= 0")
    if mu.positions.size * nu.positions.size > 2 * 10**8:
        raise LabError("too-large", "atom count product too large for a dense coupling matrix")
    x, y = mu.positions.tolist(), nu.positions.tolist()
    ia, ib = _integer_masses(mu.masses), _integer_masses(nu.masses)
    triples: list[tuple[int, int, int]] = []
    flow, _, _ = _transport(x, y, ia, ib, float(eps), triples)
    if (MASS_SCALE - flow) / MASS_SCALE > eps:
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
    An eps that is not >= 0, NaN included, raises ``bad-eps``.
    """
    if not eps >= 0:
        raise LabError("bad-eps", f"eps={eps!r} must be >= 0")
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
