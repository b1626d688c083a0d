"""Finite atomic probability measures, mixed normals, and random measures.

A :class:`DiscreteMeasure` is an ordered list of ``(position, mass)`` atoms
and is the concrete representative of a probability law on the reals used
throughout the package.  A :class:`RandomMeasure` is a finite mixture of
discrete measures (the desk-scale model of a random limit law), and a
:class:`MixedNormal` is a variance mixture of centered normals, the
canonical limit object for thin subsequences.

Conventions fixed here and relied on by the metric and simulation modules:

* atom positions merge only when bit-identical (no fuzzy dedup), so the
  exact transport oracles see exactly what the constructor saw;
* normal CDFs go through ``math.erfc``; the absolute error of each mixture
  component is below 1e-12;
* a variance atom ``y = 0`` contributes a unit step at 0 to the mixed
  normal CDF.

All types are immutable after construction and safe to share across
threads; sampling takes an explicit seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LabError
from .rng import Stream, derive_seed

MASS_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


def _phi(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """Raw simulation output: a read-only 1-D float64 array of values.

    ``values`` is a read-only view of the given array (no copy when it is
    already float64), so the sample cannot be changed through it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).view()
        if values.ndim != 1 or values.size == 0:
            raise LabError("empty-sample", "empirical sample needs a nonempty 1-D array")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic probability measure with strictly increasing positions."""

    atoms: tuple[tuple[float, float], ...]
    _pos: np.ndarray = field(init=False, repr=False, compare=False)
    _mass: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise LabError("bad-measure", "measure needs at least one atom")
        pos = np.array([p for p, _ in self.atoms], dtype=float)
        mass = np.array([m for _, m in self.atoms], dtype=float)
        if np.any(~np.isfinite(pos)) or np.any(~np.isfinite(mass)):
            raise LabError("bad-measure", "non-finite atom")
        if np.any(np.diff(pos) <= 0):
            raise LabError("bad-measure", "positions must be strictly increasing")
        if np.any(mass <= 0):
            raise LabError("bad-measure", "masses must be positive")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise LabError("bad-measure", f"masses sum to {total!r}, not 1")
        for name, arr in (("_pos", pos), ("_mass", mass), ("_cum", np.cumsum(mass))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        """Build from unsorted (position, mass) pairs, merging equal positions."""
        merged: dict[float, float] = {}
        for p, m in pairs:
            p = float(p)
            merged[p] = merged.get(p, 0.0) + float(m)
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def point(cls, c: float) -> "DiscreteMeasure":
        return cls(((float(c), 1.0),))

    # -- queries ------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self._pos

    @property
    def masses(self) -> np.ndarray:
        return self._mass

    def cdf(self, t: float) -> float:
        """Right-continuous distribution function."""
        i = int(np.searchsorted(self._pos, t, side="right"))
        return 0.0 if i == 0 else float(self._cum[i - 1])

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._pos, ts, side="right")
        cum = np.concatenate(([0.0], self._cum))
        return cum[idx]

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        """Left limits F(t-)."""
        idx = np.searchsorted(self._pos, ts, side="left")
        cum = np.concatenate(([0.0], self._cum))
        return cum[idx]

    def quantile(self, u: float) -> float:
        """Generalized inverse inf{t : F(t) >= u} for u in (0, 1)."""
        if not (0.0 < u < 1.0):
            raise LabError("quantile-domain", f"u={u!r} outside (0,1)")
        i = int(np.searchsorted(self._cum, u, side="left"))
        return float(self._pos[min(i, len(self._pos) - 1)])

    def quantile_many(self, us: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cum, us, side="left")
        return self._pos[np.minimum(idx, len(self._pos) - 1)]

    def sample(self, m: int, seed: int) -> EmpiricalSample:
        """m i.i.d. draws; deterministic for a fixed seed."""
        if m < 1:
            raise LabError("bad-count", "need m >= 1")
        stream = Stream(derive_seed(seed, "measure-sample"))
        us = stream.uniform_block(m)
        return EmpiricalSample(self.quantile_many(us))

    def mean_var(self) -> tuple[float, float]:
        """Exact first moment and central second moment."""
        mean = float(np.dot(self._pos, self._mass))
        var = float(np.dot((self._pos - mean) ** 2, self._mass))
        return mean, var

    def jump_points(self) -> np.ndarray:
        return self._pos

    def tail_prob(self, t: float) -> float:
        """P(|X| >= t)."""
        return float(self._mass[np.abs(self._pos) >= t].sum())


def empirical_measure(sample: EmpiricalSample) -> DiscreteMeasure:
    """Counting measure of a sample; duplicate values merged, mass 1/M each."""
    vals = sample.values
    uniq, counts = np.unique(vals, return_counts=True)
    m = len(vals)
    return DiscreteMeasure(tuple((float(v), float(c) / m) for v, c in zip(uniq, counts)))


@dataclass(frozen=True)
class MixedNormal:
    """Variance mixture of centered normals: CDF(t) = sum_i w_i Phi(t / sqrt(y_i)).

    A zero-variance atom stands for the degenerate law at 0 and adds a unit
    step there.
    """

    variance_atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.variance_atoms) < 1:
            raise LabError("bad-mixed-normal", "needs at least one variance atom")
        ys = [y for y, _ in self.variance_atoms]
        ws = [w for _, w in self.variance_atoms]
        if any(y < 0 for y in ys):
            raise LabError("bad-mixed-normal", "variances must be >= 0")
        if any(w <= 0 for w in ws):
            raise LabError("bad-mixed-normal", "weights must be positive")
        if abs(sum(ws) - 1.0) > MASS_TOL:
            raise LabError("bad-mixed-normal", "weights must sum to 1")

    @classmethod
    def standard(cls) -> "MixedNormal":
        return cls(((1.0, 1.0),))

    @classmethod
    def normal(cls, variance: float) -> "MixedNormal":
        return cls(((float(variance), 1.0),))

    def cdf(self, t: float) -> float:
        acc = 0.0
        for y, w in self.variance_atoms:
            if y == 0.0:
                acc += w if t >= 0.0 else 0.0
            else:
                acc += w * _phi(t / math.sqrt(y))
        return acc

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.cdf(float(t)) for t in ts])

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ts))
        for y, w in self.variance_atoms:
            if y == 0.0:
                out += np.where(np.asarray(ts) > 0.0, w, 0.0)
            else:
                s = math.sqrt(y)
                out += np.array([w * _phi(float(t) / s) for t in ts])
        return out

    def jump_points(self) -> np.ndarray:
        if any(y == 0.0 for y, _ in self.variance_atoms):
            return np.array([0.0])
        return np.array([])

    @property
    def has_continuous_part(self) -> bool:
        return any(y > 0.0 for y, _ in self.variance_atoms)


@dataclass(frozen=True)
class RandomMeasure:
    """Finite mixture {(weight, DiscreteMeasure)} over atoms A_1..A_r."""

    components: tuple[tuple[float, DiscreteMeasure], ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise LabError("bad-random-measure", "needs at least one component")
        ws = [w for w, _ in self.components]
        if any(w <= 0 for w in ws):
            raise LabError("bad-random-measure", "weights must be positive")
        if abs(sum(ws) - 1.0) > MASS_TOL:
            raise LabError("bad-random-measure", "weights must sum to 1")

    def flatten(self) -> DiscreteMeasure:
        """The mean measure: atoms merged across components, re-sorted."""
        pairs = []
        for w, comp in self.components:
            for p, m in comp.atoms:
                pairs.append((p, w * m))
        return DiscreteMeasure.from_pairs(pairs)


# -- serialization ----------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def measure_to_csv(measure: DiscreteMeasure) -> str:
    """One ``position,mass`` pair per line."""
    return "\n".join(f"{_fmt(p)},{_fmt(m)}" for p, m in measure.atoms) + "\n"


def measure_from_csv(text: str) -> DiscreteMeasure:
    """Parse ``position,mass`` lines; a malformed line raises ``malformed-input``."""
    atoms = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            p, m = line.split(",")
            atoms.append((float(p), float(m)))
        except ValueError:
            raise LabError(
                "malformed-input",
                f"measure CSV line {number}: expected 'position,mass', got {line!r}",
            ) from None
    return DiscreteMeasure(tuple(atoms))


def random_measure_to_json(rm: RandomMeasure) -> str:
    obj = {
        "weights": [w for w, _ in rm.components],
        "measures": [[[p, m] for p, m in comp.atoms] for _, comp in rm.components],
    }
    return json.dumps(obj)


def random_measure_from_json(text: str) -> RandomMeasure:
    obj = json.loads(text)
    comps = tuple(
        (float(w), DiscreteMeasure(tuple((float(p), float(m)) for p, m in atoms)))
        for w, atoms in zip(obj["weights"], obj["measures"])
    )
    return RandomMeasure(comps)
