"""The table writer: column input, 4,096-row blocks, bytes and peak memory."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutalab import DiscreteMeasure, IndexSequence
from permutalab.errors import table_text
from permutalab.metrics import prohorov_distance, strassen_coupling


def row_text(rows) -> str:
    """The former row writer, verbatim: one ``%r`` format per row tuple.

    Byte oracle for :func:`table_text`.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return "\n"
    fmt = ",".join(["%r"] * len(first)) + "\n"
    return fmt % first + "".join([fmt % row for row in rows])


def oracle(*columns) -> str:
    """The row writer on the rows of ``columns``, numpy columns via ``tolist()``."""
    return row_text(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


LENGTHS = st.sampled_from([0, 1, 4095, 4096, 4097, 8193]) | st.integers(0, 40)
SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1.7976931348623157e308, 0.1]
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
INT64 = st.integers(-(2**63), 2**63 - 1)
BIG_INTS = st.integers() | st.integers(2**64, 2**400) | st.integers(-(2**400), -(2**64))


@st.composite
def column(draw, n: int):
    """A column of n values drawn from a small pool, in one of five types."""
    kind = draw(st.sampled_from(["float64", "int64", "floats", "ints", "range"]))
    if kind == "range":
        start = draw(st.integers(-10, 10**12))
        return range(start, start + n)
    values = {"float64": FLOATS, "floats": FLOATS, "int64": INT64, "ints": BIG_INTS}[kind]
    pool = draw(st.lists(values, min_size=1, max_size=12))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    if kind in ("float64", "int64"):
        return np.array(pool, dtype=kind)[picks]
    col = [pool[i] for i in picks.tolist()]
    return col if draw(st.booleans()) else tuple(col)


@st.composite
def tables(draw):
    n = draw(LENGTHS)
    return [draw(column(n)) for _ in range(draw(st.integers(1, 3)))]


class TestSameBytesAsTheRowWriter:
    @settings(max_examples=150, deadline=None)
    @given(columns=tables())
    def test_columns(self, columns):
        assert table_text(*columns) == oracle(*columns)

    @settings(max_examples=40, deadline=None)
    @given(n=LENGTHS, k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_columns_of_a_matrix(self, n, k, seed):
        # strided views, as the prohorov coupling's columns are
        mat = np.random.default_rng(seed).standard_normal((n, k))
        assert table_text(*mat.T) == row_text(map(tuple, mat.tolist()))

    @pytest.mark.parametrize("atoms", [1, 3, 4097])
    def test_columns_of_a_coupling(self, atoms):
        mu = DiscreteMeasure(tuple((float(i), 1.0 / atoms) for i in range(atoms)))
        nu = DiscreteMeasure(((0.25, 0.5), (atoms - 0.5, 0.5)))
        coupling = strassen_coupling(mu, nu, prohorov_distance(mu, nu) + 1e-9)
        assert table_text(*coupling.T) == row_text(map(tuple, coupling.tolist()))

    @settings(max_examples=40, deadline=None)
    @given(values=st.sets(st.integers(1, 2**62), min_size=1, max_size=4098))
    def test_sequence_of_numpy_integers(self, values):
        arr = np.array(sorted(values), dtype=np.int64)
        seq = IndexSequence(tuple(arr))  # a tuple of numpy integers
        assert seq.to_csv() == row_text((int(v),) for v in arr)


class TestShape:
    def test_no_rows_is_one_newline(self):
        assert table_text(np.empty(0), []) == "\n"

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            table_text(range(3), [1.0, 2.0])


def test_peak_memory_is_near_twice_the_text():
    n = 200_000
    traj = np.cumsum(np.random.default_rng(0).standard_normal(n)) / np.arange(1, n + 1)
    tracemalloc.start()
    try:
        text = table_text(range(1, n + 1), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row writer peaked at 5.25 times the text: every row's tuple and line at once
    assert peak <= 2.5 * len(text)
