"""Shared test helpers: seeded random measure generators, a mixture oracle."""

from __future__ import annotations

import numpy as np

from permutalab import DiscreteMeasure
from permutalab.rng import Stream


def random_discrete_measure(
    stream: Stream,
    max_atoms: int = 4,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DiscreteMeasure:
    """Measure with 1..max_atoms distinct uniform positions and random masses."""
    n = 1 + stream.below(max_atoms)
    positions = set()
    while len(positions) < n:
        positions.add(lo + (hi - lo) * stream.uniform())
    masses = np.array([stream.uniform() + 1e-3 for _ in range(n)])
    masses /= masses.sum()
    return DiscreteMeasure(tuple(zip(sorted(positions), masses)))


def perturbed_measure(stream: Stream, base: DiscreteMeasure, shift: float) -> DiscreteMeasure:
    """Copy of base with every position moved by less than shift."""
    delta = shift * (2.0 * stream.uniform() - 1.0)
    return DiscreteMeasure(tuple((p + delta, m) for p, m in base.atoms))


def flatten_reference(components) -> DiscreteMeasure:
    """The mean measure of ``(w, law)`` components: atoms merged across
    components, re-sorted.  The body of the former ``RandomMeasure.flatten``,
    verbatim but for its argument; oracle for ``DiscreteMeasure.mixture``."""
    pairs = []
    for w, comp in components:
        for p, m in comp.atoms:
            pairs.append((p, w * m))
    return DiscreteMeasure.from_pairs(pairs)
