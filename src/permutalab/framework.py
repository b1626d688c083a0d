"""Windowed limit-theorem objects, their CLT instances, and checks.

A :class:`RegularLimitTheorem` is a named type whose methods give the
statistic family f_k: ``window(k)`` (bounds p_k <= q_k), ``modulus(k)``
(the Lipschitz modulus omega_k), ``evaluate(x, mu, k)`` (vectorized over
rows) and ``limit(mu)`` (the limit law G(mu)); every law with finitely
many atoms is an admissible input.  Its one field, ``name``, picks one of
two instances: the plain normalized-sum CLT ``clt`` (window (1, k)) and its
trimmed variant ``trimmed-clt`` (window (floor(k^(1/4)), k)), both with
modulus sqrt(k): |f_k(x) - f_k(y)| <= (1/omega_k) sum |x_i - y_i|.
``RegularLimitTheorem(name)`` is the only constructor; an unknown name
raises ``bad-theorem``.  The limits are kept symbolic as centered normals
so distribution distances against them use the erfc-based CDF rather
than a discretization.

``mc_tolerance(M) = 3 sqrt(ln M / M)`` is the fixed slack added to every
Monte Carlo bound comparison (a DKW-style envelope, conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LabError
from .measures import DiscreteMeasure, EmpiricalSample, MixedNormal, empirical_measure
from .metrics import ks_distance, prohorov_distance, wasserstein2
from .parallel import map_chunks, row_blocks
from .rng import Stream, derive_seed, derive_seed_vec, uniform_columns


def mc_tolerance(m: int) -> float:
    """Slack for empirical-law comparisons at sample size m."""
    return 3.0 * math.sqrt(math.log(m) / m)


# window start p_k of each theorem; the window end is q_k = k
_WINDOW_START = {
    "clt": lambda k: 1,
    "trimmed-clt": lambda k: max(1, math.isqrt(math.isqrt(k))),
}
THEOREMS = tuple(_WINDOW_START)


@dataclass(frozen=True)
class RegularLimitTheorem:
    """The normalized centered sum over the window (p_k, k), modulus sqrt(k).

    ``name`` is one of :data:`THEOREMS`: ``clt`` takes the full window,
    p_k = 1; ``trimmed-clt`` drops the first floor(k^(1/4)) - 1 coordinates.
    The window rejects k < 1.
    """

    name: str

    def __post_init__(self):
        if self.name not in _WINDOW_START:
            raise LabError("bad-theorem", f"unknown theorem {self.name!r}")

    def window(self, k: int) -> tuple[int, int]:
        if k < 1:
            raise LabError("bad-count", f"need k >= 1, got {k}")
        return _WINDOW_START[self.name](k), k

    def window_width(self, k: int) -> int:
        p, q = self.window(k)
        return q - p + 1

    def modulus(self, k: int) -> float:
        return math.sqrt(k)

    def evaluate(self, x: np.ndarray, mu: DiscreteMeasure, k: int) -> np.ndarray:
        """f_k on an (m, window width) array of window coordinates, per row."""
        # centering always uses k * E mu, also for windows shorter than k
        mean, _ = mu.mean_var()
        return (x.sum(axis=1) - k * mean) / math.sqrt(k)

    def limit(self, mu: DiscreteMeasure) -> MixedNormal:
        return MixedNormal.normal(mu.mean_var()[1])


def simulate_fk(
    T: RegularLimitTheorem,
    k: int,
    mu: DiscreteMeasure,
    m: int,
    seed: int,
    threads: int = 1,
) -> EmpiricalSample:
    """m independent evaluations of f_k on i.i.d. window draws from mu.

    Runs are drawn in row blocks sized by the window width
    (``parallel.row_blocks``); each run's values depend only on its index.
    """
    width = T.window_width(k)

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "fk")
        us = uniform_columns(seeds, np.arange(width))
        draws = mu.quantile_many(us)
        return T.evaluate(draws, mu, k)

    return EmpiricalSample(map_chunks(m, row_blocks(run, width), threads))


def limit_convergence_check(
    T: RegularLimitTheorem,
    mu: DiscreteMeasure,
    k_list: list[int],
    m: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[int, float]]:
    """Rows (k, KS distance of the empirical f_k law to G(mu))."""
    rows = []
    for k in k_list:
        sample = simulate_fk(T, k, mu, m, derive_seed(seed, "conv", k), threads)
        rows.append((k, ks_distance(empirical_measure(sample), T.limit(mu))))
    return rows


def lipschitz_probe(T: RegularLimitTheorem, k: int, trials: int, seed: int) -> float:
    """Max observed |delta f| / ((1/omega_k) sum |delta x_i|) over random pairs."""
    if trials < 1:
        raise LabError("bad-count", "need trials >= 1")
    width = T.window_width(k)
    omega = T.modulus(k)
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
        omega = T.modulus(k)
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
        omega = T.modulus(k)
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
