"""The thinning layer: a block-rank planner and the bound checks around it.

Oracle of acceptance criteria 7(A) and 9.  Its bound cannot fail at any
size the lab runs: the plan needs r_k <= omega_k^(1/4) = k^(1/8) and the
mixture-approximation bound is at least 1/r_k, so it exceeds 1 for
k <= 255 and 0.5 for k < 6,561, while a Prohorov distance never exceeds 1.
So none of it is package code; the tests import it like the ``conftest``
helpers.  The subsequence principle behind it is Berkes & Peter,
"Exchangeable random variables and the subsequence principle", PTRF 73
(1986).

The Lipschitz modulus of both ``RegularLimitTheorem`` instances is
omega_k = sqrt(k): |f_k(x) - f_k(y)| <= (1/omega_k) sum |x_i - y_i|.

``mc_tolerance(M) = 3 sqrt(ln M / M)`` is the fixed slack added to every
Monte Carlo bound comparison here (a DKW-style envelope, conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from permutalab import (
    DiscreteMeasure,
    ExchangeableModel,
    LabError,
    RegularLimitTheorem,
    empirical_measure,
    mixture_bound_check,
    permuted_statistic,
    prohorov_distance,
    random_permutation,
    simulate_fk,
)
from permutalab.exchangeable import _BAD_ATOM_SHIFT
from permutalab.rng import derive_seed

from stream import Stream


def mc_tolerance(m: int) -> float:
    """Slack for empirical-law comparisons at sample size m."""
    return 3.0 * math.sqrt(math.log(m) / m)


def tail_prob(measure: DiscreteMeasure, t: float) -> float:
    """P(|X| >= t)."""
    return float(measure.masses[np.abs(measure.positions) >= t].sum())


def tail_bound(model: ExchangeableModel) -> Callable[[float], float]:
    """The upper bound t -> sup_j P(|X_j| >= t) under ``model``."""
    margin = model.grid / 2.0
    if model.perturb is not None:
        margin += model.perturb.outlier_size
    if model.n_bad > 0:
        margin += _BAD_ATOM_SHIFT
    law = DiscreteMeasure.mixture(model.atoms)
    return lambda t: tail_prob(law, t - margin)


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


def lipschitz_probe(T: RegularLimitTheorem, k: int, trials: int, seed: int) -> float:
    """Max observed |delta f| / ((1/omega_k) sum |delta x_i|) over random pairs."""
    if trials < 1:
        raise LabError("bad-count", "need trials >= 1")
    width = T.window_width(k)
    omega = math.sqrt(k)
    mu = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    stream = Stream(derive_seed(seed, "lipschitz", k))
    # inputs live on a dyadic grid so window sums carry no rounding error
    # and the probed ratio reflects the evaluator, not float cancellation
    grid = 2.0**-12
    worst = 0.0
    for _ in range(trials):
        base = np.round((6.0 * stream.uniform_block(width) - 3.0) / grid) * grid
        scale = 2.0 ** (2 * int(stream.below(4)) - 4)  # magnitudes 1/16 .. 4
        mask = stream.uniform_block(width) < 0.5
        delta = np.round((2.0 * stream.uniform_block(width) - 1.0) * scale * mask / grid) * grid
        denom = float(np.sum(np.abs(delta))) / omega
        if denom <= 0.0:
            continue
        pair = np.vstack([base, base + delta])
        f0, f1 = T.evaluate(pair, mu, k)
        ratio = abs(float(f1) - float(f0)) / denom
        worst = max(worst, ratio)
    return worst


def statistic_stability_check(
    T: RegularLimitTheorem,
    k: int,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    m: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float, bool]:
    """Empirical check that close input laws give close statistic laws.

    lhs is the Prohorov distance of the two empirical f_k laws; rhs is
    ``eps * q_k + W2(mu, nu)`` with eps the exact Prohorov distance
    of the inputs.  holds allows the fixed Monte Carlo slack.
    """
    eps = prohorov_distance(mu, nu)
    _, q = T.window(k)
    rhs = eps * q + wasserstein2(mu, nu)
    emp_mu = empirical_measure(simulate_fk(T, k, mu, m, derive_seed(seed, "A-mu"), threads))
    emp_nu = empirical_measure(simulate_fk(T, k, nu, m, derive_seed(seed, "A-nu"), threads))
    lhs = prohorov_distance(emp_mu, emp_nu)
    return lhs, rhs, lhs <= rhs + mc_tolerance(m)


@dataclass(frozen=True)
class ThinningPlan:
    """Slow-growing block ranks r_k and fast-decaying levels eps_m.

    Covers k = k_min..k_max; guarantees, re-verified after construction:
    r_k nondecreasing, r_k <= min(p_k - 1, omega_k^(1/4)),
    tail(omega_k^(1/4) / 2) <= r_k^(-2) / 2, and
    eps_{r_k} * q_k <= 1/k with eps decreasing.

    k_min is the first index where a positive integer rank exists at all;
    for windowed statistics whose window start grows like k^(1/4) that is
    k = 16, and requesting a rank below k_min raises ``plan-infeasible``.
    """

    k_min: int
    r: tuple[int, ...]
    eps: tuple[float, ...]

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.r) - 1

    def r_at(self, k: int) -> int:
        if not self.k_min <= k <= self.k_max:
            raise LabError("plan-infeasible", f"k={k} outside plan range")
        return self.r[k - self.k_min]

    def eps_at(self, m: int) -> float:
        return self.eps[m - 1]


def _int_below_pow(bound: float, power: int) -> int:
    """Largest r >= 0 with r**power <= bound (exact integer comparison)."""
    if bound < 0:
        return -1
    r = int(bound ** (1.0 / power)) + 1
    while r**power > bound:
        r -= 1
    return r


def plan_thinning(
    T: RegularLimitTheorem,
    tail_bound: Callable[[float], float],
    k_max: int,
) -> ThinningPlan:
    """Maximal nondecreasing r and maximal decreasing eps meeting the caps.

    The plan starts at the first k whose rank cap admits a positive
    integer (for the plain normalized sum the window start is always 1,
    so no k qualifies and ``plan-infeasible`` is raised with the offending
    index).  eps values are shaved by a factor (1 - 2**-40) so the
    post-hoc inequality checks hold exactly in floating point.
    """
    if k_max < 1:
        raise LabError("bad-count", "need K >= 1")

    def cap_at(k: int) -> int:
        p, _ = T.window(k)
        omega = math.sqrt(k)
        cap = min(p - 1, _int_below_pow(omega, 4))
        tb = tail_bound(omega**0.25 / 2.0)
        if tb > 0.0:
            cap = min(cap, _int_below_pow(1.0 / (2.0 * tb), 2))
        return cap

    caps = [cap_at(k) for k in range(1, k_max + 1)]
    k_min = next((k for k in range(1, k_max + 1) if caps[k - 1] >= 1), None)
    if k_min is None or any(c < 1 for c in caps[k_min - 1 :]):
        offending = k_max if k_min is None else k_min + caps[k_min - 1 :].index(0)
        raise LabError("plan-infeasible", f"k={offending}")
    # maximal nondecreasing sequence below the caps: suffix minima
    r = caps[k_min - 1 :]
    for i in range(len(r) - 2, -1, -1):
        r[i] = min(r[i], r[i + 1])

    shave = 1.0 - 2.0**-40
    max_m = r[-1]
    constraint = [math.inf] * (max_m + 1)
    for k in range(k_min, k_max + 1):
        _, q = T.window(k)
        c = 1.0 / (k * q) * shave
        m = r[k - k_min]
        constraint[m] = min(constraint[m], c)
    eps = []
    running = math.inf
    for m in range(1, max_m + 1):
        running = min(running, constraint[m], 1.0 / m)
        eps.append(running)

    plan = ThinningPlan(k_min, tuple(r), tuple(eps))
    _verify_plan(T, tail_bound, plan)
    return plan


def _verify_plan(T, tail_bound, plan: ThinningPlan) -> None:
    prev = 0
    for k in range(plan.k_min, plan.k_max + 1):
        rk = plan.r_at(k)
        p, q = T.window(k)
        omega = math.sqrt(k)
        if rk < max(1, prev):
            raise LabError("plan-infeasible", f"r not nondecreasing at k={k}")
        if rk > p - 1 or rk**4 > omega:
            raise LabError("plan-infeasible", f"rank cap violated at k={k}")
        if tail_bound(omega**0.25 / 2.0) > 0.5 / rk**2:
            raise LabError("plan-infeasible", f"tail cap violated at k={k}")
        if plan.eps_at(rk) * q > 1.0 / k:
            raise LabError("plan-infeasible", f"eps cap violated at k={k}")
        prev = rk
    for e0, e1 in zip(plan.eps, plan.eps[1:]):
        if e1 > e0:
            raise LabError("plan-infeasible", "eps not decreasing")


def mixture_approximation_check(
    model: ExchangeableModel,
    T: RegularLimitTheorem,
    k: int,
    plan: ThinningPlan,
    m: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float, bool]:
    """Distance of a permuted statistic law to the atomwise mixture law.

    lhs: Prohorov distance between the empirical law of f_k on the drawn
    window under a seeded random permutation of 1..q_k and the P(A)-weighted
    mixture of per-atom simulated f_k laws.  rhs: ``3 eps_{r_k} q_k + 1/r_k``
    evaluated exactly from the plan.  holds allows the fixed Monte Carlo slack.
    """
    r_k = plan.r_at(k)
    eps_rk = plan.eps_at(r_k)
    _, q = T.window(k)
    rhs = float(3 * Fraction(eps_rk) * q + Fraction(1, r_k))
    perm = random_permutation(q, derive_seed(seed, "prop-perm"))
    emp = empirical_measure(
        permuted_statistic(model, T, k, perm, m, derive_seed(seed, "prop-x"), threads)
    )
    comps = []
    for a, (p_a, law) in enumerate(model.atoms):
        sample = simulate_fk(T, k, law, m, derive_seed(seed, "prop-mix", a), threads)
        comps.append((p_a, empirical_measure(sample)))
    lhs = prohorov_distance(emp, DiscreteMeasure.mixture(comps))
    return lhs, rhs, lhs <= rhs + mc_tolerance(m)


def conditional_noise_check(
    model: ExchangeableModel, eps_n: float, seed: int
) -> tuple[float, bool]:
    """Exercise the noisy-conditional-law variant of the stability bound.

    A model's atoms form a finite random measure, the mixture with weights
    P(A_i).  Builds a coupled random measure whose component laws differ
    from the model's by less than eps_n except on atoms of total weight
    <= eps_n, then passes the ``(p, law, noisy_law)`` triples to
    :func:`mixture_bound_check`.  An eps_n that is not finite and > 0, NaN
    included, raises ``bad-eps`` before any shifted law is built.
    """
    if not 0 < eps_n < math.inf:
        raise LabError("bad-eps", f"eps_n={eps_n!r} must be finite and > 0")
    stream = Stream(derive_seed(seed, "cond-noise"))
    pairs = []
    budget = eps_n
    for p, law in model.atoms:
        if p <= budget:
            budget -= p
            shift = 3.0 * eps_n  # a genuinely far component, allowed by its weight
        else:
            shift = eps_n * 0.4 * stream.uniform()
        pairs.append((p, law, DiscreteMeasure(tuple((x + shift, w) for x, w in law.atoms))))
    return mixture_bound_check(pairs, eps_n)
