"""Windowed limit-theorem objects, their CLT instances, and checks.

A :class:`RegularLimitTheorem` is a named type whose methods give the
statistic family f_k: ``window(k)`` (bounds p_k <= q_k), ``evaluate(x, mu,
k)`` (vectorized over rows) and ``limit(mu)`` (the limit law G(mu)); every
law with finitely many atoms is an admissible input.  Its one field,
``name``, picks one of two instances: the plain normalized-sum CLT ``clt``
(window (1, k)) and its trimmed variant ``trimmed-clt`` (window
(floor(k^(1/4)), k)).  ``RegularLimitTheorem(name)`` is the only
constructor; an unknown name raises ``bad-theorem``.  A window wider than
``sequences.PERM_MAX_TERMS`` (2**20, the most terms a permutation of it
may have) raises ``too-large`` before any draw.  The limits are kept
symbolic as centered normals so distribution distances against them use
the erfc-based CDF rather than a discretization.

The thinning planner and the stability checks built on the Lipschitz
modulus sqrt(k) of f_k live in ``tests/thinning.py``, as the oracle of
acceptance criteria 7 and 9: their bound cannot fail at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabError
from .measures import DiscreteMeasure, MixedNormal, empirical_measure
from .metrics import ks_distance
from .parallel import map_chunks, row_blocks
from .rng import derive_seed, derive_seed_vec, uniform_columns
from .sequences import PERM_MAX_TERMS


# window start p_k of each theorem; the window end is q_k = k
_WINDOW_START = {
    "clt": lambda k: 1,
    "trimmed-clt": lambda k: max(1, math.isqrt(math.isqrt(k))),
}
THEOREMS = tuple(_WINDOW_START)


@dataclass(frozen=True)
class RegularLimitTheorem:
    """The normalized centered sum over the window (p_k, k), divided by sqrt(k).

    ``name`` is one of :data:`THEOREMS`: ``clt`` takes the full window,
    p_k = 1; ``trimmed-clt`` drops the first floor(k^(1/4)) - 1 coordinates.
    The window rejects k < 1 with ``bad-count`` and a window wider than
    ``PERM_MAX_TERMS`` with ``too-large``.
    """

    name: str

    def __post_init__(self):
        if self.name not in _WINDOW_START:
            raise LabError("bad-theorem", f"unknown theorem {self.name!r}")

    def window(self, k: int) -> tuple[int, int]:
        if k < 1:
            raise LabError("bad-count", f"need k >= 1, got {k}")
        p = _WINDOW_START[self.name](k)
        if k - p + 1 > PERM_MAX_TERMS:
            raise LabError("too-large", f"window of k = {k} is wider than {PERM_MAX_TERMS} terms")
        return p, k

    def window_width(self, k: int) -> int:
        p, q = self.window(k)
        return q - p + 1

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
) -> np.ndarray:
    """m independent evaluations of f_k on i.i.d. window draws from mu, as an array.

    Runs are drawn in row blocks sized by the window width
    (``parallel.row_blocks``); each run's values depend only on its index.
    """
    width = T.window_width(k)

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "fk")
        us = uniform_columns(seeds, np.arange(width))
        draws = mu.quantile_many(us)
        return T.evaluate(draws, mu, k)

    return map_chunks(m, row_blocks(run, width), threads)


def limit_convergence_check(
    T: RegularLimitTheorem,
    mu: DiscreteMeasure,
    k_list: list[int],
    m: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[int, float]]:
    """Rows (k, KS distance of the empirical f_k law to G(mu)).

    Every k's window is checked before the first draw.
    """
    for k in k_list:
        T.window(k)
    rows = []
    for k in k_list:
        sample = simulate_fk(T, k, mu, m, derive_seed(seed, "conv", k), threads)
        rows.append((k, ks_distance(empirical_measure(sample), T.limit(mu))))
    return rows
