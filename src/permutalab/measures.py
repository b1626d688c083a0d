"""Finite atomic probability measures, mixed normals, and random measures.

A :class:`DiscreteMeasure` is an ordered list of ``(position, mass)`` atoms
and is the concrete representative of a probability law on the reals used
throughout the package.  A :class:`RandomMeasure` is a finite mixture of
discrete measures (the desk-scale model of a random limit law), and a
:class:`MixedNormal` is a variance mixture of centered normals, the
canonical limit object for thin subsequences.

Conventions fixed here and relied on by the metric and simulation modules:

* atom positions merge when they are equal as doubles (so ``-0.0`` and
  ``0.0`` merge; ``from_pairs`` keeps the first one seen,
  ``empirical_measure`` the one ``np.unique`` sorts first), with no fuzzy
  dedup, so the exact transport oracles see exactly what the constructor
  saw;
* normal CDFs go through ``math.erfc``; the absolute error of each mixture
  component is below 1e-12;
* a variance atom ``y = 0`` contributes a unit step at 0 to the mixed
  normal CDF;
* a discrete law is inverted at ``u`` to the first atom ``i`` with
  ``u <= cum_i`` (so a tie ``u == cum_i`` goes to atom ``i``), and to the
  last atom when there is none, NaN included (:func:`inverse_index`).

All types are immutable after construction and safe to share across
threads; sampling takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LabError
from .rng import Stream, derive_seed

MASS_TOL = 1e-12

# Laws with at most this many atoms are inverted by counting thresholds,
# larger ones by binary search; see inverse_index for the measurement.
_COUNT_MAX_ATOMS = 64

_SQRT2 = math.sqrt(2.0)


def _phi(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def inverse_index(cum: np.ndarray, us) -> np.ndarray:
    """Index of the atom each u inverts to, for cumulative masses ``cum``.

    The index is the first ``i`` with ``u <= cum[i]``, or the last index when
    there is none (``u`` above ``cum[-1]``, which may round below 1, or NaN).
    It is what ``np.minimum(np.searchsorted(cum, us, "left"), n - 1)`` gives,
    bit for bit.

    Up to ``_COUNT_MAX_ATOMS`` (64) atoms the index is counted down from
    ``n - 1``, one ``u <= cum[i]`` per threshold ``i < n - 1``, in a uint8
    array (sequential search, Devroye 1986, III.2): a comparison that is
    false for NaN leaves it on the last atom, as ``searchsorted`` sorts NaN
    last.  The count costs O(n) per draw, ``searchsorted`` O(log n).
    Measured on 2-vCPU x86-64 with numpy 2.4, on a (2048, 398) block of
    uniforms: 2 atoms 5 ms against 20 ms, 64 atoms 33 against 63 ms, and the
    two meet near 128 atoms; so larger laws (large empirical laws in
    ``wasserstein2`` or a model's ``law_csv``) keep ``searchsorted``.
    """
    n = len(cum)
    if n > _COUNT_MAX_ATOMS:
        return np.minimum(np.searchsorted(cum, us, side="left"), n - 1)
    us = np.asarray(us)
    idx = np.full(us.shape, n - 1, dtype=np.uint8)
    for c in cum[:-1]:
        idx -= us <= c
    return idx


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
    # cumulative masses after a leading 0.0: _cum0[i] = F(t) with i atoms <= t
    _cum0: np.ndarray = field(init=False, repr=False, compare=False)

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
        cum0 = np.concatenate(([0.0], np.cumsum(mass)))
        for name, arr in (("_pos", pos), ("_mass", mass), ("_cum0", cum0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        """Build from unsorted (position, mass) pairs, merging equal positions.

        Positions merge when they are equal as doubles; the merged atom keeps
        the first position seen, so ``(-0.0, a), (0.0, b)`` gives ``-0.0``.
        """
        merged: dict[float, float] = {}
        for p, m in pairs:
            p = float(p)
            merged[p] = merged.get(p, 0.0) + float(m)
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def mixture(cls, components) -> "DiscreteMeasure":
        """The mixture sum_i w_i law_i of ``(w, law)`` pairs, via :meth:`from_pairs`."""
        return cls.from_pairs((p, w * m) for w, law in components for p, m in law.atoms)

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
        return float(self._cum0[np.searchsorted(self._pos, t, side="right")])

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        return self._cum0[np.searchsorted(self._pos, ts, side="right")]

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        """Left limits F(t-)."""
        return self._cum0[np.searchsorted(self._pos, ts, side="left")]

    def quantile(self, u: float) -> float:
        """Generalized inverse inf{t : F(t) >= u} for u in (0, 1)."""
        if not (0.0 < u < 1.0):
            raise LabError("quantile-domain", f"u={u!r} outside (0,1)")
        return float(self._pos[inverse_index(self._cum0[1:], u)])

    def quantile_many(self, us: np.ndarray) -> np.ndarray:
        """Positions of the atoms the uniforms ``us`` invert to, in their shape.

        ``u`` goes to the first atom ``i`` whose cumulative mass
        ``cum_i >= u``; a tie ``u == cum_i`` goes to atom ``i``; a ``u`` above
        every ``cum_i``, NaN included, goes to the last atom.  Laws of up to
        64 atoms count thresholds, larger ones use binary search; both give
        the same atoms (:func:`inverse_index`).
        """
        return self._pos.take(inverse_index(self._cum0[1:], us))

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
        if not all(0 <= y < math.inf for y in ys):
            raise LabError("bad-mixed-normal", "variances must be finite and >= 0")
        if not all(0 < w < math.inf for w in ws):
            raise LabError("bad-mixed-normal", "weights must be finite and positive")
        if abs(sum(ws) - 1.0) > MASS_TOL:
            raise LabError("bad-mixed-normal", "weights must sum to 1")

    @classmethod
    def standard(cls) -> "MixedNormal":
        return cls(((1.0, 1.0),))

    @classmethod
    def normal(cls, variance: float) -> "MixedNormal":
        return cls(((float(variance), 1.0),))

    def _cdf(self, ts, left: bool) -> np.ndarray:
        """F(t), or the left limit F(t-) when ``left``, at every t in ``ts``.

        Each point's value is summed over the variance atoms in order,
        starting from 0.0, one IEEE addition per atom.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(len(ts))
        for y, w in self.variance_atoms:
            if y == 0.0:
                out += np.where(ts > 0.0 if left else ts >= 0.0, w, 0.0)
            else:
                s = math.sqrt(y)
                out += np.array([w * _phi(t / s) for t in ts.tolist()])
        return out

    def cdf(self, t: float) -> float:
        return float(self._cdf([t], False)[0])

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        return self._cdf(ts, False)

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        return self._cdf(ts, True)

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
        if not all(0 < w < math.inf for w in ws):
            raise LabError("bad-random-measure", "weights must be finite and positive")
        if abs(sum(ws) - 1.0) > MASS_TOL:
            raise LabError("bad-random-measure", "weights must sum to 1")

    def flatten(self) -> DiscreteMeasure:
        """The mean measure: atoms merged across components, re-sorted."""
        return DiscreteMeasure.mixture(self.components)


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

