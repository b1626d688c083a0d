"""Finite atomic probability measures and mixed normals.

A :class:`DiscreteMeasure`, one read-only ``(n, 2)`` array of ``(position,
mass)`` atoms, represents every law on the reals; equality is identity.  A
Monte Carlo sample is a plain 1-D array (:func:`empirical_measure`).  A finite
random measure on atoms A_1..A_r (the desk-scale model of a random limit
law) is a list of ``(P(A_i), law_i)`` components; :meth:`DiscreteMeasure.mixture`
gives its mean measure.  A :class:`MixedNormal` is a variance mixture of
centered normals, the canonical limit object for thin subsequences.

Conventions fixed here and relied on by the metric and simulation modules:

* atom positions merge when they are equal as doubles (so ``-0.0`` and
  ``0.0`` merge; ``from_pairs`` keeps the first one seen,
  ``empirical_measure`` the one ``np.unique`` sorts first), with no fuzzy
  dedup, so the exact transport oracles see exactly what the constructor
  saw;
* normal CDFs go through ``math.erfc``, mapped over the points while the
  rest of the arithmetic runs on arrays; the absolute error of each mixture
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

from .errors import LabError, table_text, table_values
from .rng import derive_seed, uniform_columns

MASS_TOL = 1e-12

# Laws with at most this many atoms are inverted by counting thresholds,
# larger ones by binary search; see inverse_index for the measurement.
_COUNT_MAX_ATOMS = 64

_SQRT2 = math.sqrt(2.0)


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
    two meet near 128 atoms; so larger laws (a large empirical law or a
    model's ``law_csv``) keep ``searchsorted``.
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
class DiscreteMeasure:
    """Finite atomic probability measure with strictly increasing positions.

    ``atoms`` takes any ``(n, 2)`` array-like, n >= 1, else ``bad-measure``; it is
    copied column-major, so ``positions`` and ``masses`` are contiguous views.
    """

    atoms: np.ndarray
    positions: np.ndarray = field(init=False, repr=False)
    masses: np.ndarray = field(init=False, repr=False)
    # cumulative masses after a leading 0.0: _cum0[i] = F(t) with i atoms <= t
    _cum0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            atoms = np.array(self.atoms, dtype=np.float64, order="F")
        except (TypeError, ValueError, OverflowError):
            raise LabError("bad-measure", "atoms must be (position, mass) pairs") from None
        if atoms.ndim != 2 or atoms.shape[1] != 2 or len(atoms) < 1:
            raise LabError("bad-measure", f"atoms must have shape (n >= 1, 2), not {atoms.shape}")
        pos, mass = atoms.T
        if not np.isfinite(atoms).all():
            raise LabError("bad-measure", "non-finite atom")
        if np.any(pos[1:] <= pos[:-1]):
            raise LabError("bad-measure", "positions must be strictly increasing")
        if np.any(mass <= 0):
            raise LabError("bad-measure", "masses must be positive")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise LabError("bad-measure", f"masses sum to {total!r}, not 1")
        cum0 = np.concatenate(([0.0], np.cumsum(mass)))
        for name, arr in (("atoms", atoms), ("positions", pos), ("masses", mass), ("_cum0", cum0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        """Build from unsorted (position, mass) pairs, merging equal positions.

        Positions merge when they are equal as doubles; the merged atom keeps
        the first position seen, so ``(-0.0, a), (0.0, b)`` gives ``-0.0``.
        """
        return cls(_merged(pairs))

    @classmethod
    def mixture(cls, components) -> "DiscreteMeasure":
        """The mixture sum_i w_i law_i of ``(w, law)`` pairs, merged as in :meth:`from_pairs`.

        A total off 1 by more than ``MASS_TOL`` but at most ``(1 + MASS_TOL)**2 - 1`` is rescaled.
        """
        atoms = _merged((p, w * m) for w, law in components for p, m in law.atoms.tolist())
        total = float(np.sum([m for _, m in atoms]))
        if MASS_TOL < abs(total - 1.0) <= (1.0 + MASS_TOL) ** 2 - 1.0:
            atoms = tuple((p, m / total) for p, m in atoms)
        return cls(atoms)

    @classmethod
    def point(cls, c: float) -> "DiscreteMeasure":
        return cls(((float(c), 1.0),))

    # -- queries ------------------------------------------------------

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        """Right-continuous distribution function F(t)."""
        return self._cum0[np.searchsorted(self.positions, ts, side="right")]

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        """Left limits F(t-)."""
        return self._cum0[np.searchsorted(self.positions, ts, side="left")]

    def quantile_many(self, us: np.ndarray) -> np.ndarray:
        """Positions of the atoms the uniforms ``us`` invert to, in their shape.

        ``u`` goes to the first atom ``i`` whose cumulative mass
        ``cum_i >= u``; a tie ``u == cum_i`` goes to atom ``i``; a ``u`` above
        every ``cum_i``, NaN included, goes to the last atom.  Laws of up to
        64 atoms count thresholds, larger ones use binary search; both give
        the same atoms (:func:`inverse_index`).
        """
        return self.positions.take(inverse_index(self._cum0[1:], us))

    def sample(self, m: int, seed: int) -> np.ndarray:
        """m i.i.d. draws; deterministic for a fixed seed."""
        if m < 1:
            raise LabError("bad-count", "need m >= 1")
        seeds = np.array([derive_seed(seed, "measure-sample")], dtype=np.uint64)
        return self.quantile_many(uniform_columns(seeds, np.arange(m))[0])

    def mean_var(self) -> tuple[float, float]:
        """Exact first moment and central second moment.

        Atoms near the ends of the double range can give a second moment
        that overflows; that raises ``bad-measure``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.dot(self.positions, self.masses))
            var = float(np.dot((self.positions - mean) ** 2, self.masses))
        if not math.isfinite(var):
            raise LabError("bad-measure", "second moment overflows the double range")
        return mean, var

    def jump_points(self) -> np.ndarray:
        return self.positions


def _merged(pairs) -> tuple[tuple[float, float], ...]:
    merged: dict[float, float] = {}
    for p, m in pairs:
        merged[float(p)] = merged.get(float(p), 0.0) + float(m)
    return tuple(sorted(merged.items()))


def empirical_measure(values: np.ndarray) -> DiscreteMeasure:
    """Counting measure of a nonempty 1-D sample (else ``bad-measure``), mass count/M each.

    The atoms are ``np.unique``'s values and ``counts / M`` on arrays, one
    IEEE division each, as ``float(c) / M`` per value gives.
    """
    if values.ndim != 1 or values.size == 0:
        raise LabError("bad-measure", "empirical law needs a nonempty 1-D sample")
    uniq, counts = np.unique(values, return_counts=True)
    return DiscreteMeasure(np.column_stack((uniq, counts / len(values))))


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
        starting from 0.0, one IEEE addition per atom.  A normal atom adds
        ``w * (0.5 * erfc(-(t / s) / sqrt(2)))`` with ``s = sqrt(y)``: the
        arithmetic runs on arrays and ``math.erfc`` is mapped over the
        points, so every value is the scalar formula's, bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(len(ts))
        for y, w in self.variance_atoms:
            if y == 0.0:
                out += np.where(ts > 0.0 if left else ts >= 0.0, w, 0.0)
            else:
                z = -(ts / math.sqrt(y)) / _SQRT2
                e = np.fromiter(map(math.erfc, z.tolist()), dtype=float, count=len(z))
                out += w * (0.5 * e)
        return out

    def cdf_many(self, ts: np.ndarray) -> np.ndarray:
        return self._cdf(ts, False)

    def cdf_left_many(self, ts: np.ndarray) -> np.ndarray:
        return self._cdf(ts, True)

    def jump_points(self) -> np.ndarray:
        return np.array([0.0] if any(y == 0.0 for y, _ in self.variance_atoms) else [])


# -- serialization ----------------------------------------------------


def measure_to_csv(measure: DiscreteMeasure) -> str:
    """One ``position,mass`` pair per line (:func:`~permutalab.errors.table_text`)."""
    return table_text(measure.positions, measure.masses)


def measure_from_csv(text: str) -> DiscreteMeasure:
    """Parse ``position,mass`` lines (:func:`~permutalab.errors.table_values`)."""
    values, _ = table_values(text, "measure CSV", "'position,mass'", fields=(2, 2))
    return DiscreteMeasure(values.reshape(-1, 2))
