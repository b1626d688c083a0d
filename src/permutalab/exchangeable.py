"""Conditionally-i.i.d. mixture models and permuted-statistic experiments.

An :class:`ExchangeableModel` is a finite family of atoms (probability,
law); a drawn sequence first picks an atom, then draws i.i.d. values Z
from its law, perturbs each value with a two-valued noise (0, or plus or
minus ``outlier_size`` with probability ``outlier_prob``) and snaps the
result to a quantization grid.  By construction the perturbed values take
finitely many values and stay within any level eps of Z except with
probability at most ``outlier_prob <= eps``.  The levels eps_m only bound
``outlier_prob`` and ``bad_mass``; a draw does not depend on them.

``bad_mass`` designates a prefix of atoms (by cumulative probability) as
the exceptional class: on those atoms the drawn values are shifted by a
unit offset, so the i.i.d. approximation deliberately fails there.  All
distribution-level checks absorb that class through its small total mass.

Atom choice, values, noise flags and noise signs are separate columns of
one counter-based stream per run, so runs are reproducible per (seed, run
index) and results never depend on chunking.  The column layout is defined
once, in ``_draw``, which both :func:`draw_sequence` and
:func:`permuted_statistic` use.  The flag and sign columns are drawn only
when the noise can read them, that is when some good atom has
``outlier_prob > 0``; the atom and value columns keep their indices either
way, so the values do not depend on whether the noise is drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LabError
from .framework import RegularLimitTheorem, ThinningPlan, mc_tolerance, simulate_fk
from .measures import (
    DiscreteMeasure,
    EmpiricalSample,
    MixedNormal,
    RandomMeasure,
    empirical_measure,
    inverse_index,
    measure_from_csv,
    measure_to_csv,
)
from .metrics import ks_distance, prohorov_distance, random_measure_bound_check
from .parallel import map_chunks
from .rng import Stream, derive_seed, derive_seed_vec, uniform_columns
from .sequences import Permutation, random_permutation

DEFAULT_GRID = 2.0**-20

_BAD_ATOM_SHIFT = 1.0


@dataclass(frozen=True)
class PerturbSpec:
    """Two-valued noise with decreasing target levels eps_m."""

    eps_levels: tuple[float, ...]
    outlier_prob: float
    outlier_size: float

    def __post_init__(self):
        if len(self.eps_levels) < 1:
            raise LabError("bad-perturb", "need at least one eps level")
        if not all(0 < e < math.inf for e in self.eps_levels):
            raise LabError("bad-perturb", "eps levels must be finite and positive")
        if any(e1 > e0 for e0, e1 in zip(self.eps_levels, self.eps_levels[1:])):
            raise LabError("bad-perturb", "eps levels must be decreasing")
        if not 0.0 <= self.outlier_prob <= min(self.eps_levels):
            raise LabError("bad-perturb", "outlier probability must be <= every eps level")
        if not 0 <= self.outlier_size < math.inf:
            raise LabError("bad-perturb", "outlier size must be finite and >= 0")


@dataclass(frozen=True)
class ExchangeableModel:
    """Finite mixture of conditionally-i.i.d. laws with optional noise."""

    atoms: tuple[tuple[float, DiscreteMeasure], ...]
    bad_mass: float = 0.0
    perturb: PerturbSpec | None = None
    grid: float = DEFAULT_GRID

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise LabError("bad-model", "need at least one atom")
        probs = [p for p, _ in self.atoms]
        if not all(0 < p < math.inf for p in probs):
            raise LabError("bad-model", "atom probabilities must be finite and positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise LabError("bad-model", "atom probabilities must sum to 1")
        if not 0 <= self.bad_mass < math.inf:
            raise LabError("bad-model", "bad mass must be finite and >= 0")
        if self.perturb is not None and self.bad_mass > min(self.perturb.eps_levels):
            raise LabError("bad-model", "bad mass must be <= every eps level")
        if not 0 <= self.grid < math.inf:
            raise LabError("bad-model", "grid must be finite and >= 0")

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms])

    @property
    def n_bad(self) -> int:
        """Number of leading atoms in the exceptional class."""
        cum = 0.0
        n = 0
        for p, _ in self.atoms:
            if cum + p <= self.bad_mass + 1e-12:
                cum += p
                n += 1
            else:
                break
        return n

    def tail_bound(self, t: float) -> float:
        """Upper bound for sup_j P(|X_j| >= t) under this model."""
        margin = self.grid / 2.0
        if self.perturb is not None:
            margin += self.perturb.outlier_size
        if self.n_bad > 0:
            margin += _BAD_ATOM_SHIFT
        return DiscreteMeasure.mixture(self.atoms).tail_prob(t - margin)

    def limit_mixed_normal(self) -> MixedNormal:
        """The mixture of centered normals with the atom variances."""
        acc: dict[float, float] = {}
        for p, law in self.atoms:
            v = law.mean_var()[1]
            acc[v] = acc.get(v, 0.0) + p
        return MixedNormal(tuple(sorted(acc.items())))


@dataclass(frozen=True)
class DrawnSequence:
    """One realized run: the atom, the i.i.d. values, the observed values."""

    atom_index: int
    z: np.ndarray
    x: np.ndarray


def _quantize(values: np.ndarray, grid: float) -> np.ndarray:
    if grid <= 0.0:
        return values
    return np.round(values / grid) * grid


def _noise_is_read(model: ExchangeableModel) -> bool:
    """Whether some good atom draws two-valued noise, so flags and signs are read."""
    perturb = model.perturb
    return perturb is not None and perturb.outlier_prob > 0.0 and model.n_bad < len(model.atoms)


def _draw(model: ExchangeableModel, seeds: np.ndarray, length: int, window_idx: np.ndarray):
    """Draw one run per seed, grouped by atom: yields ``(atom, rows, law, z, x)``.

    ``rows`` is the boolean mask of the runs that drew ``atom``; ``z`` holds
    their values at the 0-based positions ``window_idx`` of a sequence of
    ``length``, and ``x`` the observed values.  This is the one place that
    knows the per-run column layout: 0 atom, ``1 + i`` value i, and, only
    when :func:`_noise_is_read`, ``1 + length + i`` flag i and
    ``1 + 2 * length + i`` sign i.
    """
    noisy = _noise_is_read(model)
    blocks = [[0], 1 + window_idx]
    if noisy:
        blocks += [1 + length + window_idx, 1 + 2 * length + window_idx]
    u = uniform_columns(seeds, np.concatenate(blocks))
    width = len(window_idx)
    atom = inverse_index(np.cumsum(model.probs), u[:, 0])
    n_bad = model.n_bad
    for a, (_, law) in enumerate(model.atoms):
        rows = atom == a
        if not rows.any():
            continue
        z = law.quantile_many(u[rows, 1 : 1 + width])
        # a scalar eta adds the same IEEE sums as a constant array (so
        # z = -0.0 still gives x = +0.0) without allocating one
        if a < n_bad:
            eta = _BAD_ATOM_SHIFT
        elif noisy:
            flags, signs = u[rows, 1 + width : 1 + 2 * width], u[rows, 1 + 2 * width :]
            hit = flags < model.perturb.outlier_prob
            eta = hit * np.where(signs < 0.5, -1.0, 1.0) * model.perturb.outlier_size
        else:
            eta = 0.0
        yield a, rows, law, z, _quantize(z + eta, model.grid)


def draw_sequence(model: ExchangeableModel, m: int, seed: int) -> DrawnSequence:
    """Sample an atom, then m conditionally-i.i.d. perturbed values."""
    if m < 1:
        raise LabError("bad-count", "need m >= 1")
    seeds = np.array([derive_seed(seed, "draw")], dtype=np.uint64)
    ((atom, _, _, z, x),) = _draw(model, seeds, m, np.arange(m))
    return DrawnSequence(atom, z[0], x[0])


def permuted_statistic(
    model: ExchangeableModel,
    T: RegularLimitTheorem,
    k: int,
    perm: Permutation,
    m: int,
    seed: int,
    threads: int = 1,
) -> EmpiricalSample:
    """Law of f_k over the window of the permuted drawn sequence.

    Each of the m runs draws its own atom and sequence; f_k is evaluated on
    coordinates p_k..q_k of the permuted sequence with the drawn atom's law
    as the measure argument.
    """
    if m < 1:
        raise LabError("bad-count", "need M >= 1")
    p, q = T.window(k)
    if len(perm) < q:
        raise LabError("perm-size", "permutation shorter than the window end")
    window_idx = np.array([perm.image[i - 1] - 1 for i in range(p, q + 1)])

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "perm-stat")
        out = np.empty(count)
        for _, rows, law, _, x in _draw(model, seeds, len(perm), window_idx):
            out[rows] = T.evaluate(x, law, k)
        return out

    return EmpiricalSample(map_chunks(m, run, threads))


@dataclass(frozen=True)
class PermutationInvarianceReport:
    """Permutation-invariance check: distances to the limit and to each other."""

    ks_to_limit: tuple[float, ...]
    max_pairwise_ks: float
    tol_limit: float
    tol_pairwise: float
    holds: bool


def permutation_invariance_check(
    model: ExchangeableModel,
    T: RegularLimitTheorem,
    k: int,
    perms: list[Permutation],
    m: int,
    seed: int,
    tol_limit: float = 0.05,
    tol_pairwise: float = 0.05,
    threads: int = 1,
) -> PermutationInvarianceReport:
    """Check that every permuted law matches the mixed-normal limit and peers."""
    if len(perms) < 2:
        raise LabError("bad-count", "need at least two permutations")
    limit = model.limit_mixed_normal()
    samples = [
        permuted_statistic(model, T, k, perm, m, derive_seed(seed, "perm-invariance", i), threads)
        for i, perm in enumerate(perms)
    ]
    empirics = [empirical_measure(s) for s in samples]
    ks_lim = tuple(ks_distance(e, limit) for e in empirics)
    pairwise = 0.0
    for i in range(len(empirics)):
        for j in range(i + 1, len(empirics)):
            pairwise = max(pairwise, ks_distance(empirics[i], empirics[j]))
    holds = all(v <= tol_limit for v in ks_lim) and pairwise <= tol_pairwise
    return PermutationInvarianceReport(ks_lim, pairwise, tol_limit, tol_pairwise, holds)


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

    Builds a coupled random measure whose component laws differ from the
    model's by less than eps_n except on atoms of total weight <= eps_n,
    then delegates to :func:`random_measure_bound_check`.
    """
    if eps_n <= 0:
        raise LabError("bad-eps", "eps_n must be positive")
    stream = Stream(derive_seed(seed, "cond-noise"))
    noisy = []
    budget = eps_n
    for p, law in model.atoms:
        if p <= budget:
            budget -= p
            shift = 3.0 * eps_n  # a genuinely far component, allowed by its weight
        else:
            shift = eps_n * 0.4 * stream.uniform()
        noisy.append((p, DiscreteMeasure(tuple((x + shift, w) for x, w in law.atoms))))
    return random_measure_bound_check(
        RandomMeasure(model.atoms), RandomMeasure(tuple(noisy)), eps_n
    )


def strong_law_trajectory(
    model: ExchangeableModel, p: float, n: int, seed: int
) -> tuple[tuple[int, float], ...]:
    """Running strong-law statistic along one drawn sequence.

    p = 1: running means n^-1 sum X_k (approaches the drawn atom's mean);
    p in (0, 2) otherwise: n^(-1/p) sum (X_k - mean).  p = 2 is accepted
    as the out-of-theorem boundary; no assertion is attached to it.
    """
    if not 0.0 < p <= 2.0:
        raise LabError("bad-p", "need 0 < p <= 2")
    if n < 1:
        raise LabError("bad-count", "need N >= 1")
    drawn = draw_sequence(model, n, seed)
    mean = model.atoms[drawn.atom_index][1].mean_var()[0]
    idx = np.arange(1, n + 1, dtype=float)
    sums = np.cumsum(drawn.x)
    if p == 1.0:
        vals = sums / idx
    else:
        vals = (sums - idx * mean) / idx ** (1.0 / p)
    return tuple(zip(range(1, n + 1), vals.tolist()))


# -- model (de)serialization -------------------------------------------


def model_to_json(model: ExchangeableModel) -> str:
    obj = {
        "atoms": [
            {"prob": p, "law_csv": measure_to_csv(law)} for p, law in model.atoms
        ],
        "bad_mass": model.bad_mass,
        "perturb": None
        if model.perturb is None
        else {
            "eps": list(model.perturb.eps_levels),
            "outlier_prob": model.perturb.outlier_prob,
            "outlier_size": model.perturb.outlier_size,
        },
        "grid": model.grid,
    }
    return json.dumps(obj, indent=2)


def model_from_json(text: str) -> ExchangeableModel:
    """Parse a model; JSON of the wrong shape raises ``malformed-input``."""
    try:
        obj = json.loads(text)
        atoms = tuple(
            (float(a["prob"]), measure_from_csv(a["law_csv"])) for a in obj["atoms"]
        )
        perturb = None
        if obj.get("perturb"):
            perturb = PerturbSpec(
                tuple(float(e) for e in obj["perturb"]["eps"]),
                float(obj["perturb"]["outlier_prob"]),
                float(obj["perturb"]["outlier_size"]),
            )
        bad_mass = float(obj.get("bad_mass", 0.0))
        grid = float(obj.get("grid", DEFAULT_GRID))
    except KeyError as exc:
        raise LabError("malformed-input", f"model JSON: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise LabError("malformed-input", f"model JSON: {exc}") from None
    return ExchangeableModel(atoms, bad_mass, perturb, grid)
