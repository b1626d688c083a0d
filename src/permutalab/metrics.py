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
them: the candidates next to ``d``.  At ``d = inf`` every pair is in range
and the fill is the northwest corner rule, which ships a coupling's residual.

From ``_ARRAY_MIN_ATOMS`` atoms together, ``prohorov_distance`` probes on
numpy arrays instead (``_array_transport``), with the loop's ``(flow,
inside, outside)`` bit for bit.  Each window starts from ``np.searchsorted``
of ``fl(x_i - d)`` and ``fl(x_i + d)``, which can be a column off where that
rounding disagrees with ``fl(x_i - y_j)``; so each end then moves by one
column until the loop's own predicates hold: ``fl(x_i - y_j) > d`` just left
of ``lo_i`` and not at it, ``fl(y_j - x_i) <= d`` just left of ``end_i`` and
not at it.  The flow comes from a scan.  Let ``C[j]`` be the mass of the
columns left of ``j``, ``S_i`` that of rows ``0..i`` and ``a_i`` that of row
``i``.  As a mass position, the fill pointer after row ``i`` is ``pos_i =
min(max(pos_{i-1}, C[lo_i]) + a_i, C[end_i])``, so ``Q_i = pos_i - S_i`` is
``min(max(Q_{i-1}, l_i), u_i)`` with ``l_i = C[lo_i] - S_{i-1}``, ``u_i =
C[end_i] - S_i`` and ``Q_{-1} = 0``.  The clamp ``(l1, u1)`` followed by
``(l2, u2)`` is the clamp ``(max(l1, l2), min(max(u1, l2), u2))``, also when
``l > u`` (a constant); so log2(n) numpy passes compose every prefix (a
Hillis-Steele scan), and the flow is the sum of ``pos_i - max(pos_{i-1},
C[lo_i])``.  Every value, these terms and their sum (the flow) included,
is an integer of magnitude at most ``MASS_SCALE`` = 10**12 < 2**63, as the
masses on either side sum to it, so int64 holds all of them exactly.  A
probe costs O(n log n + n log m) on arrays.  Measured on 2-vCPU x86-64 with
numpy 2.4, a whole ``prohorov_distance`` of two normal laws with the same
number of atoms a side took 1.07 ms by the loop against 1.18 ms on arrays
at 200 atoms a side, 1.40 against 1.28 ms at 250, and 16.7 against 5.1 ms
at 2,000; so the arrays take over at 500 atoms together.  Smaller laws,
``strassen_coupling``'s shipments and the tests' oracles keep the loop.

``prohorov_oracle`` is the independent verification path: it enumerates
subsets of the supports and bisects on the defining inequalities directly.

The stability bound (component laws within eps outside a weight of at most
eps give mixtures within 2 eps) is checked in one place,
``mixture_bound_check``.  A finite random measure on atoms A_1..A_r is such
a mixture with weights P(A_i), so a coupled pair of random measures is
checked as the triples ``(P(A_i), law_i, law'_i)``.  Whether a pair is
within eps needs no distance: ``_at_least`` decides it by one probe.

``ks_distance`` is exact and has one path: its first law is discrete, so
the supremum lies at a jump point of either law or at its left limit, and a
continuous second law is evaluated once.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import LabError
from .measures import MASS_TOL, DiscreteMeasure, MixedNormal

MASS_SCALE = 10**12
ORACLE_MAX_ATOMS = 14
# the most atom pairs of a coupling: prohorov --coupling peaks near 31 MB plus
# 54-58 B per pair (85 MB at 10**6, 246-265 MB at 4 * 10**6), so about 1.2 GB
COUPLING_MAX_PAIRS = 2 * 10**7
# Laws with at least this many atoms together are probed on arrays, smaller
# ones by the loop; see the module docstring for the measurement.
_ARRAY_MIN_ATOMS = 500


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


def _settle(idx: np.ndarray, back, ahead) -> None:
    """Move each index down by one while ``back()`` holds for it, then up by
    one while ``ahead()`` does; both are re-evaluated after every step."""
    for test, move in ((back, np.subtract), (ahead, np.add)):
        step = test()
        while step.any():
            move(idx, step, out=idx)
            step = test()


def _array_transport(x: np.ndarray, y: np.ndarray, ia: list[int], ib: list[int]):
    """``_transport``'s ``(flow, inside, outside)`` on numpy arrays, bit for bit.

    Returns ``probe(d)``; the cumulative masses and the padded columns are
    built once.  Each probe finds the windows by ``np.searchsorted`` and
    settles their ends on the loop's own predicates, then gets the flow of
    the leftmost-first fill from a scan of clamps (see the module
    docstring).  Memory O(n + m) per probe.
    """
    n = len(x)
    rows = np.array(ia, dtype=np.int64)
    after = np.cumsum(rows)
    before = after - rows
    cols = np.zeros(len(y) + 1, dtype=np.int64)
    np.cumsum(np.array(ib, dtype=np.int64), out=cols[1:])
    # yp[j + 1] is y[j]; a comparison with a NaN pad is false, and the
    # fmax/fmin reductions skip it
    yp = np.concatenate(([math.nan], y, [math.nan]))

    def probe(d: float) -> tuple[int, float, float]:
        with np.errstate(over="ignore"):  # distances past the double range are inf
            lo = np.searchsorted(y, x - d, "left")
            _settle(lo, lambda: x - yp[lo] <= d, lambda: x - yp[lo + 1] > d)
            end = np.searchsorted(y, x + d, "right")
            _settle(end, lambda: yp[end] - x > d, lambda: yp[end + 1] - x <= d)
            # a row with an empty window gives two negative distances here
            inside = np.fmax(np.fmax.reduce(x - yp[lo + 1]), np.fmax.reduce(yp[end] - x))
            outside = np.fmin(np.fmin.reduce(x - yp[lo]), np.fmin.reduce(yp[end + 1] - x))
        low = cols[lo] - before
        high = cols[end] - after
        s = 1
        while s < n:  # compose the clamps of rows i - s and i (Hillis-Steele)
            np.minimum(np.maximum(high[:-s], low[s:]), high[s:], out=high[s:])
            np.maximum(low[:-s], low[s:], out=low[s:])
            s += s
        pos = np.minimum(np.maximum(low, 0), high) + after
        start = cols[lo]
        np.maximum(start[1:], pos[:-1], out=start[1:])
        # as in the loop: NaN (no such pair) reads 0.0 and inf, -0.0 reads 0.0
        return int((pos - start).sum()), max(0.0, float(inside)), min(math.inf, float(outside))

    return probe


def _prober(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """``probe(t) -> (deficit(t), inside, outside)`` for the pair: on arrays
    from ``_ARRAY_MIN_ATOMS`` atoms together, else by the ``_transport`` loop."""
    ia, ib = _integer_masses(mu.masses), _integer_masses(nu.masses)
    if len(ia) + len(ib) >= _ARRAY_MIN_ATOMS:
        transport = _array_transport(mu.positions, nu.positions, ia, ib)
    else:
        x, y = mu.positions.tolist(), nu.positions.tolist()

        def transport(t: float):
            return _transport(x, y, ia, ib, t)

    def probe(t: float) -> tuple[float, float, float]:
        flow, inside, outside = transport(t)
        return (MASS_SCALE - flow) / MASS_SCALE, inside, outside

    return probe


def _bits(t: float) -> int:
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _from_bits(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def prohorov_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Prohorov distance between two atomic measures, exact up to 1e-11.

    Returns the smallest double ``t >= 0`` with ``deficit(t) <= t`` (see the
    module docstring), found by bisection on the bit pattern between the
    next candidate above the last failing probe and a candidate where the
    predicate holds: one O(n + m) transport per probe, at most 64 probes.
    Memory O(n + m).
    """
    probe = _prober(mu, nu)
    deficit, _, nxt = probe(0.0)
    if deficit <= 0.0:
        return 0.0
    # Invariant: the predicate failed at the last failing probe, and the
    # deficit stays ``deficit`` from there up to the next candidate nxt; so
    # it fails everywhere below nxt, unless deficit < nxt, which is then the
    # answer.  It holds at the candidate b: at the largest pair distance
    # every pair is inside its window and the deficit is 0.
    x, y = mu.positions, nu.positions
    b = max(float(x[-1]) - float(y[0]), float(y[-1]) - float(x[0]))
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


def _at_least(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float) -> bool:
    """Whether ``prohorov_distance(mu, nu) >= eps``, by one probe.

    The predicate ``deficit(t) <= t`` is false below the distance and true
    from it on, so the distance is at least ``eps > 0`` exactly when the
    predicate fails at the largest double below ``eps``.
    """
    if eps == 0:
        return True
    t = math.nextafter(eps, 0.0)
    return _prober(mu, nu)(t)[0] > t


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
) -> np.ndarray | None:
    """A coupling whose mass outside distance eps is at most eps, or None.

    The coupling is a read-only float matrix of joint masses, rows the
    atoms of ``mu`` and columns those of ``nu``.  When feasible, it ships the
    maximal in-range mass, then the residual by the same fill with every pair
    in range: the marginals are exact to the integer scale (< 1e-12 per atom).
    An eps that is not >= 0, NaN included, raises ``bad-eps``, and more than
    COUPLING_MAX_PAIRS atom pairs ``too-large``.
    """
    if not eps >= 0:
        raise LabError("bad-eps", f"eps={eps!r} must be >= 0")
    if mu.positions.size * nu.positions.size > COUPLING_MAX_PAIRS:
        raise LabError("too-large", "atom count product too large for a dense coupling matrix")
    x, y = mu.positions.tolist(), nu.positions.tolist()
    ia, ib = _integer_masses(mu.masses), _integer_masses(nu.masses)
    triples: list[tuple[int, int, int]] = []
    flow, _, _ = _transport(x, y, ia, ib, float(eps), triples)
    if (MASS_SCALE - flow) / MASS_SCALE > eps:
        return None
    for i, j, t in triples:  # ia and ib become the residual masses
        ia[i] -= t
        ib[j] -= t
    _transport(x, y, ia, ib, math.inf, triples)
    grid = np.zeros((len(x), len(y)), dtype=np.int64)
    rows, cols, ts = zip(*triples)
    np.add.at(grid, (rows, cols), ts)
    coupling = grid.astype(float) / MASS_SCALE
    coupling.flags.writeable = False
    return coupling


def ks_distance(f: DiscreteMeasure, g: DiscreteMeasure | MixedNormal) -> float:
    """Exact sup-distance of the CDFs of a discrete law ``f`` and a law ``g``.

    Between consecutive jump points of either law the step CDF of ``f`` is
    constant and that of ``g`` is monotone, so the supremum is attained at
    a jump point or its left limit; both are evaluated there.  A ``g``
    without jump points (a mixed normal with no zero-variance atom) is
    continuous: the points are the jumps of ``f``, and the left limits of
    ``g`` are its values, so ``g`` is evaluated once.  An ``f`` that is not
    a ``DiscreteMeasure`` raises ``ks-not-discrete``.
    """
    if not isinstance(f, DiscreteMeasure):
        raise LabError("ks-not-discrete", "the first law of ks_distance must be discrete")
    g_jumps = g.jump_points()
    if len(g_jumps):
        ts = np.union1d(f.jump_points(), g_jumps)
        g_right, g_left = g.cdf_many(ts), g.cdf_left_many(ts)
    else:
        ts = f.jump_points()
        g_right = g_left = g.cdf_many(ts)
    d_right = np.abs(f.cdf_many(ts) - g_right)
    d_left = np.abs(f.cdf_left_many(ts) - g_left)
    return float(max(d_right.max(), d_left.max()))


def mixture_bound_check(
    pairs: list[tuple[float, DiscreteMeasure, DiscreteMeasure]], eps: float
) -> tuple[float, bool]:
    """Check the mixture stability bound: close components give 2*eps mixtures.

    ``pairs`` are (weight, mu_i, nu_i); requires finite weights >= 0
    summing to 1 within ``MASS_TOL``, as a ``DiscreteMeasure``'s masses
    must (else ``bad-weights``), an eps >= 0 (else ``bad-eps``,
    NaN included) and the total weight of pairs with prohorov(mu_i, nu_i)
    >= eps to be at most eps (else ``mixture-bound-precondition``); pairs
    of weight 0 are dropped.  Returns the Prohorov distance between the
    two mixtures and whether it is <= 2*eps (+1e-9 slack).
    """
    cs = np.array([c for c, _, _ in pairs], dtype=float)
    if not all(0 <= c < math.inf for c in cs) or abs(cs.sum() - 1.0) > MASS_TOL:
        raise LabError("bad-weights", "weights must be finite, >= 0 and sum to 1")
    if not eps >= 0:
        raise LabError("bad-eps", f"eps={eps!r} must be >= 0")
    pairs = [(c, a, b) for c, a, b in pairs if c > 0]
    heavy = sum(c for c, a, b in pairs if _at_least(a, b, eps))
    if heavy > eps + MASS_TOL:
        raise LabError(
            "mixture-bound-precondition",
            f"weight {heavy!r} of far components exceeds eps={eps!r}",
        )
    lhs = prohorov_distance(
        DiscreteMeasure.mixture((c, a) for c, a, _ in pairs),
        DiscreteMeasure.mixture((c, b) for c, _, b in pairs),
    )
    return lhs, lhs <= 2.0 * eps + 1e-9
