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
:func:`permuted_statistic` use.  It draws the atom column of every run
first, then each atom's value, flag and sign columns for that atom's runs
only, so no block of every run's columns is drawn and then copied per
atom; :func:`permuted_statistic` draws in row blocks sized by the columns
a run draws (``parallel.row_blocks``).  The flag and sign columns are drawn
only when the noise can read them, that is when some good atom has
``outlier_prob > 0``; the atom and value columns keep their indices either
way, so the values do not depend on whether the noise is drawn.

The mixture-approximation and conditional-noise checks of the thinning
layer, and the model's tail bound they read, live in ``tests/thinning.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabError, json_text
from .framework import RegularLimitTheorem
from .measures import (
    MASS_TOL,
    DiscreteMeasure,
    MixedNormal,
    empirical_measure,
    inverse_index,
    measure_from_csv,
    measure_to_csv,
)
from .metrics import ks_distance
from .parallel import map_chunks, row_blocks
from .rng import derive_seed, derive_seed_vec, uniform_columns
from .sequences import PERM_MAX_TERMS, Permutation

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
        if abs(sum(probs) - 1.0) > MASS_TOL:
            raise LabError("bad-model", "atom probabilities must sum to 1")
        if not 0 <= self.bad_mass < math.inf:
            raise LabError("bad-model", "bad mass must be finite and >= 0")
        if self.perturb is not None and self.bad_mass > min(self.perturb.eps_levels):
            raise LabError("bad-model", "bad mass must be <= every eps level")
        if not 0 <= self.grid < math.inf:
            raise LabError("bad-model", "grid must be finite and >= 0")
        if self.grid > 0.0:
            # a bound on |z + eta| of every drawn value, in Python floats so
            # that an overflow gives inf without a RuntimeWarning
            reach = max(abs(float(law.positions[i])) for _, law in self.atoms for i in (0, -1))
            noise = self.perturb.outlier_size if self.perturb is not None else 0.0
            reach += max(noise, _BAD_ATOM_SHIFT if self.n_bad > 0 else 0.0)
            if not math.isfinite(reach / self.grid):
                raise LabError("bad-model", "grid too fine: value / grid overflows")

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms])

    @property
    def n_bad(self) -> int:
        """Number of leading atoms in the exceptional class."""
        cum = 0.0
        n = 0
        for p, _ in self.atoms:
            if cum + p <= self.bad_mass + MASS_TOL:
                cum += p
                n += 1
            else:
                break
        return n

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
    """``round(values / grid) * grid``, in place; ``values`` must be a temporary."""
    if grid <= 0.0:
        return values
    values /= grid
    np.round(values, out=values)
    values *= grid
    return values


def _noise_is_read(model: ExchangeableModel) -> bool:
    """Whether some good atom draws two-valued noise, so flags and signs are read."""
    perturb = model.perturb
    return perturb is not None and perturb.outlier_prob > 0.0 and model.n_bad < len(model.atoms)


def _value_columns(model: ExchangeableModel, length: int, window_idx: np.ndarray) -> np.ndarray:
    """The columns a run draws after its atom column 0, in the order ``_draw`` reads them.

    ``1 + i`` is value i at the 0-based position i of a sequence of
    ``length``, and, only when :func:`_noise_is_read`, ``1 + length + i`` is
    flag i and ``1 + 2 * length + i`` sign i.
    """
    blocks = [1 + window_idx]
    if _noise_is_read(model):
        blocks += [1 + length + window_idx, 1 + 2 * length + window_idx]
    return np.concatenate(blocks)


def _draw(model: ExchangeableModel, seeds: np.ndarray, length: int, window_idx: np.ndarray):
    """Draw one run per seed, grouped by atom: yields ``(atom, rows, law, z, x)``.

    ``rows`` is the boolean mask of the runs that drew ``atom``; ``z`` holds
    their values at the 0-based positions ``window_idx`` of a sequence of
    ``length``, and ``x`` the observed values.  With :func:`_value_columns`
    this is the one place that knows the per-run column layout.

    The atom column 0 is drawn first, for every run; then each atom draws
    its value (and flag and sign) columns for its own runs only, from
    ``seeds[rows]``.  A column is a pure function of (seed, column), so the
    values are those of one block drawn for every run, without the block.
    """
    noisy = _noise_is_read(model)
    cols = _value_columns(model, length, window_idx)
    width = len(window_idx)
    atom = inverse_index(np.cumsum(model.probs), uniform_columns(seeds, np.array([0]))[:, 0])
    n_bad = model.n_bad
    for a, (_, law) in enumerate(model.atoms):
        rows = atom == a
        if not rows.any():
            continue
        u = uniform_columns(seeds[rows], cols)
        z = law.quantile_many(u[:, :width])
        # a scalar eta adds the same IEEE sums as a constant array (so
        # z = -0.0 still gives x = +0.0) without allocating one
        if a < n_bad:
            eta = _BAD_ATOM_SHIFT
        elif noisy:
            flags, signs = u[:, width : 2 * width], u[:, 2 * width :]
            hit = flags < model.perturb.outlier_prob
            eta = hit * np.where(signs < 0.5, -1.0, 1.0) * model.perturb.outlier_size
        else:
            eta = 0.0
        yield a, rows, law, z, _quantize(z + eta, model.grid)


def draw_sequence(model: ExchangeableModel, m: int, seed: int) -> DrawnSequence:
    """Sample an atom, then m <= ``PERM_MAX_TERMS`` conditionally-i.i.d. perturbed values."""
    if m < 1:
        raise LabError("bad-count", "need m >= 1")
    if m > PERM_MAX_TERMS:
        raise LabError("too-large", f"a sequence of {m} terms is longer than {PERM_MAX_TERMS}")
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
) -> np.ndarray:
    """Law of f_k over the window of the permuted drawn sequence, one value per run.

    Each of the m runs draws its own atom and sequence; f_k is evaluated on
    coordinates p_k..q_k of the permuted sequence with the drawn atom's law
    as the measure argument.
    """
    p, q = T.window(k)
    window_idx = perm.window(p - 1, q)

    def run(start: int, count: int) -> np.ndarray:
        seeds = derive_seed_vec(seed, np.arange(start, start + count), "perm-stat")
        out = np.empty(count)
        for _, rows, law, _, x in _draw(model, seeds, len(perm), window_idx):
            out[rows] = T.evaluate(x, law, k)
        return out

    width = 1 + len(_value_columns(model, len(perm), window_idx))
    return map_chunks(m, row_blocks(run, width), threads)


_INVARIANCE_TOL = 0.05  # both KS comparisons of permutation_invariance_check


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
    threads: int = 1,
) -> PermutationInvarianceReport:
    """Check that every permuted law matches the mixed-normal limit and peers.

    Both comparisons hold within KS distance 0.05; the report has the distances.
    """
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
    holds = all(v <= _INVARIANCE_TOL for v in ks_lim) and pairwise <= _INVARIANCE_TOL
    return PermutationInvarianceReport(ks_lim, pairwise, _INVARIANCE_TOL, _INVARIANCE_TOL, holds)


def strong_law_trajectory(
    model: ExchangeableModel, p: float, n: int, seed: int
) -> np.ndarray:
    """Running strong-law statistic along one drawn sequence, as a float64 array.

    Entry N - 1 holds the statistic of the first N terms.  p = 1: running
    means n^-1 sum X_k (approaches the drawn atom's mean); p in (0, 2)
    otherwise: n^(-1/p) sum (X_k - mean).  p = 2 is accepted as the
    out-of-theorem boundary; no assertion is attached to it.
    """
    if not 0.0 < p <= 2.0:
        raise LabError("bad-p", "need 0 < p <= 2")
    drawn = draw_sequence(model, n, seed)  # N below 1 or above PERM_MAX_TERMS is refused
    mean = model.atoms[drawn.atom_index][1].mean_var()[0]
    idx = np.arange(1, n + 1, dtype=float)
    sums = np.cumsum(drawn.x)
    if p == 1.0:
        return sums / idx
    return (sums - idx * mean) / idx ** (1.0 / p)


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
    return json_text(obj)


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
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise LabError("malformed-input", f"model JSON: {exc}") from None
    return ExchangeableModel(atoms, bad_mass, perturb, grid)
