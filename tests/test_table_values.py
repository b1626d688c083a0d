"""The one table reader against the line reader it replaced.

``table_rows`` and the three per-line parsers are the former reader,
verbatim: the plot table's (``plot_parse``), the measure CSV's (``atom``)
and the sequence CSV's (``index_parse``).  On every text, ``table_values``
must accept what they accepted, with the same values bit for bit, and
reject what they rejected, with the same token and message.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutalab import errors
from permutalab.errors import LabError, table_values


def table_rows(text: str, what: str, expected: str, parse: Callable[[str], object]) -> list:
    """``parse`` of each nonblank stripped line of ``text``, in order.

    A line that ``parse`` rejects with ``ValueError`` raises
    ``malformed-input`` with ``what``, the line number, ``expected`` and the
    line's ``repr``; a text without a nonblank line raises ``empty-table``.
    """
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(parse(line))
        except ValueError:
            raise LabError(
                "malformed-input", f"{what} line {number}: expected {expected}, got {line!r}"
            ) from None
    if not rows:
        raise LabError("empty-table", f"empty {what}")
    return rows


def plot_parse(trajectory: bool):
    need = 2 if trajectory else 1

    def parse(line: str) -> float | list[float]:
        row = [float(t) for t in line.split(",")]
        if len(row) < need or not all(map(math.isfinite, row)):
            raise ValueError(line)
        return row[-2:] if trajectory else row[0]

    return parse


def atom(line: str) -> tuple[float, float]:
    p, m = line.split(",")
    return float(p), float(m)


def index_parse(line: str) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # int() counts the digits without the sign and the underscores
    if limit and len(line) > limit and len(line.lstrip("+-").replace("_", "")) > limit:
        raise LabError("too-large", f"an index has more than {limit} digits")
    return int(line)


def outcome(read):
    """``("ok", value)`` of ``read()``, or ``(token, message)`` of its ``LabError``."""
    try:
        return "ok", read()
    except LabError as exc:
        return exc.token, str(exc)


def plot_expected(trajectory: bool) -> str:
    return f"comma-separated finite numbers (at least {2 if trajectory else 1})"


# each reading: the oracle, and the same reading through table_values, both
# returning bytes (floats) or a list (ints) to compare exactly
READS = {
    "cdf-overlay": (
        lambda text: np.array(
            table_rows(text, "table", plot_expected(False), plot_parse(False)), dtype=np.float64
        ).tobytes(),
        lambda text: (lambda v, e: v[np.concatenate(([0], e[:-1]))].tobytes())(
            *table_values(text, "table", plot_expected(False), fields=(1, math.inf), finite=True)
        ),
    ),
    "trajectory": (
        lambda text: np.array(
            table_rows(text, "table", plot_expected(True), plot_parse(True)), dtype=np.float64
        ).tobytes(),
        lambda text: (lambda v, e: np.column_stack((v[e - 2], v[e - 1])).tobytes())(
            *table_values(text, "table", plot_expected(True), fields=(2, math.inf), finite=True)
        ),
    ),
    "measure": (
        lambda text: np.array(
            table_rows(text, "measure CSV", "'position,mass'", atom), dtype=np.float64
        ).tobytes(),
        lambda text: table_values(text, "measure CSV", "'position,mass'", fields=(2, 2))[0]
        .reshape(-1, 2)
        .tobytes(),
    ),
    "sequence": (
        lambda text: table_rows(text, "sequence CSV", "an integer", index_parse),
        lambda text: table_values(text, "sequence CSV", "an integer", number=int)[0],
    ),
}

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300

FIELDS = [
    "0", "-0", "+7", "-0.0", "1.5", "+1.5", "-2.25", ".5", "5.", "1e3", "-2E-5", "1e400",
    "-1e400", "1e-400", "4.9e-324", "1.7976931348623157e308", "1_000", "1_0.5", "1__0", "_1",
    "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "infinity", "0x10", "abc", "", " 3 ",
    "\t-4\t", "\xa01\xa0", "1 2", "\u0661\u0662", "9" * LIMIT, "9" * (LIMIT + 1),
    "+" + "9" * LIMIT, "-" + "9" * (LIMIT + 1), "1_" * (LIMIT // 2) + "1",
    "1_" * LIMIT + "1", "+-" + "9" * (LIMIT + 1),
]
FIELD = (
    st.sampled_from(FIELDS)
    | st.integers(-(10**30), 10**30).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
)
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029", " "]
PADS = ["", " ", "\t", "  \xa0"]


@st.composite
def row(draw) -> str:
    fields = draw(st.lists(FIELD, min_size=1, max_size=4))
    text = ",".join(fields) + ("," if draw(st.integers(0, 9)) == 0 else "")
    return draw(st.sampled_from(PADS)) + text + draw(st.sampled_from(PADS))


@st.composite
def table(draw) -> str:
    """A text of rows, blank lines and mixed line breaks; mostly of one width."""
    width = draw(st.integers(1, 3))
    pool = st.sampled_from(["0.5", "-1", "2", "1e-3", "7", " 3 ", "+4"])
    clean = st.lists(pool, min_size=width, max_size=width).map(",".join)
    line = st.sampled_from(PADS) | clean | clean | clean | row()
    lines = draw(st.lists(line, max_size=12))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, breaks)) + draw(st.sampled_from(["", "\n", " "]))


@pytest.mark.parametrize("block", [2, 3, errors.BLOCK_ROWS])
@pytest.mark.parametrize("read", list(READS))
@settings(max_examples=300, deadline=None)
@given(text=table())
def test_reader_matches_the_line_reader(read, block, text):
    oracle, reader = READS[read]
    with mock.patch.object(errors, "BLOCK_ROWS", block):
        assert outcome(lambda: reader(text)) == outcome(lambda: oracle(text))


@pytest.mark.parametrize("read", list(READS))
@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n \n\t\n",
        "1,2\n",
        "1,2,\n",
        "1\r\n2\r\n",
        "1\x0b2\x1c3\u20284\n",
        "  5  \n\n6\n",
        "nan\n",
        "1,inf\n",
        "1," + "9" * (LIMIT + 1) + "\n",
        "9" * (LIMIT + 1) + "\n",
        "1_" * LIMIT + "1\n",
        "1\n2\n" * 3000 + "x\n",
        "1,2\n" * 5000,
        "1\n" * 5000 + "2," + "9" * (LIMIT + 1) + "\n",
    ],
    ids=range(15),
)
def test_reader_matches_the_line_reader_on_edge_texts(read, text):
    oracle, reader = READS[read]
    assert outcome(lambda: reader(text)) == outcome(lambda: oracle(text))


def test_values_and_row_ends():
    values, ends = table_values("1,2,3\n\n4\n 5 , 6 \n", "t", "x", fields=(1, 3))
    assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert ends.tolist() == [3, 4, 6]
    assert values.dtype == np.float64 and ends.dtype == np.int64


def test_int_values_are_python_ints_past_64_bits():
    values, ends = table_values("1\n" + str(2**200) + "\n", "t", "x", number=int)
    assert values == [1, 2**200] and all(type(v) is int for v in values)
    assert ends.tolist() == [1, 2]


@pytest.mark.skipif(LIMIT == 0, reason="no int digit limit")
def test_an_underscored_index_within_the_digit_limit_is_read():
    # longer than the limit as a string, not in digits: the line walk reads it
    text = "1\n" + "1_" * (LIMIT // 2) + "1\n"
    values, _ = table_values(text, "t", "x", number=int)
    assert values == [1, int("1" * (LIMIT // 2 + 1))]


def test_peak_memory_is_at_most_two_and_a_half_times_the_text():
    # 100,000 (int, float) rows, as a strong-law trajectory table is written
    traj = np.cumsum(np.random.default_rng(0).standard_normal(100_000))
    text = errors.table_text(range(1, len(traj) + 1), traj)
    tracemalloc.start()
    try:
        values, ends = table_values(text, "table", "x", fields=(2, 2), finite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[1::2].tolist() == traj.tolist() and ends[-1] == 2 * len(traj)
    # splitting the whole text into lines first peaked at 5.1 times the text
    assert peak <= 2.5 * len(text)
