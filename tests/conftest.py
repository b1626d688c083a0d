"""Shared test helpers: seeded random measure generators, a mixture oracle,
and hypothesis strategies for samples and mixed normals."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from permutalab import DiscreteMeasure, MixedNormal

from stream import Stream


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


def point_mass(c: float) -> DiscreteMeasure:
    """The law with all its mass at ``c``: the former ``DiscreteMeasure.point``,
    which no package code called."""
    return DiscreteMeasure(((float(c), 1.0),))


def from_pairs(pairs) -> DiscreteMeasure:
    """The law of unsorted ``(position, mass)`` pairs, equal positions merged.

    Positions merge when they are equal as doubles; the merged atom keeps
    the first position seen, so ``(-0.0, a), (0.0, b)`` gives ``-0.0``.  Its
    own dict merge, so that ``flatten_reference`` shares no code with
    ``DiscreteMeasure.mixture``, which it checks.
    """
    merged: dict[float, float] = {}
    for p, m in pairs:
        merged[float(p)] = merged.get(float(p), 0.0) + float(m)
    return DiscreteMeasure(tuple(sorted(merged.items())))


def flatten_reference(components) -> DiscreteMeasure:
    """The mean measure of ``(w, law)`` components: atoms merged across
    components, re-sorted.  The body of the former ``RandomMeasure.flatten``,
    verbatim but for its argument and :func:`from_pairs` in place of
    ``DiscreteMeasure.from_pairs``; oracle for ``DiscreteMeasure.mixture``."""
    pairs = []
    for w, comp in components:
        for p, m in comp.atoms:
            pairs.append((p, w * m))
    return from_pairs(pairs)


@st.composite
def sample_values(draw, max_size: int = 20_000) -> list[float]:
    """1 to ``max_size`` finite values, as a sample or a plotted table gives them.

    Small lists come from hypothesis itself; longer ones from a seeded normal
    draw at a scale inside or far beyond the plots' [-3.5, 3.5], rounded to
    make ties or not.  Either may get ``-0.0`` next to ``0.0``.
    """
    if draw(st.booleans()):
        edges = st.sampled_from([-3.5, 3.5, -0.0, 0.0, 1.0])
        values = draw(st.lists(st.floats(-1e6, 1e6) | edges, min_size=1, max_size=40))
    else:
        n = draw(st.integers(1, max_size))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-9, 0.5, 1.0, 3.0, 50.0, 1e300]))
        decimals = draw(st.sampled_from([None, 0, 1, 2]))
        arr = rng.standard_normal(n) * scale
        values = (arr if decimals is None else np.round(arr, decimals)).tolist()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(values)))
        values[at:at] = draw(st.sampled_from([[-0.0, 0.0], [0.0, -0.0]]))
    return values


@st.composite
def mixed_normals(draw, zero_atom: bool) -> MixedNormal:
    """1 to 4 variance atoms in [1e-6, 100]; one of them 0 when ``zero_atom``."""
    n = draw(st.integers(min_value=1, max_value=4))
    ys = draw(st.lists(st.floats(1e-6, 100.0), min_size=n, max_size=n))
    if zero_atom:
        ys[draw(st.integers(0, n - 1))] = 0.0
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    ws = (np.array(raw) / sum(raw)).tolist()
    return MixedNormal(tuple(zip(ys, ws)))
