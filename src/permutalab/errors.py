"""Error type shared by all modules, and the one reader and writer of text.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``) that the CLI prints on stderr.  Every
numeric table (a sequence, a measure, a table to plot) is read by
:func:`table_values`, so a bad line or an empty table ends in
``malformed-input`` or ``empty-table``, and written by :func:`table_text`;
every JSON file is written by :func:`json_text`.  The reader converts the
fields of :data:`BLOCK_ROWS` lines at a time in one ``map`` and checks
field counts and finiteness on arrays; it walks a block line by line only
when that fails, to name the first bad line.

:func:`table_text` takes a table's columns, numpy arrays or Python
sequences, and formats them in blocks of :data:`BLOCK_ROWS` rows, so only
one block's Python objects are alive next to the finished text.  The
result is one ``str``, as the CLI's atomic write takes it.  Integers
longer than Python's int-str digit limit are refused when generated,
formatted or parsed with ``too-large`` (``sequences``), and a permutation of more than
``sequences.PERM_MAX_TERMS`` terms with ``perm-size`` before it is built.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain, repeat

import numpy as np


class LabError(Exception):
    """Exception with a machine-readable error token."""

    def __init__(self, token: str, message: str | None = None):
        self.token = token
        super().__init__(message if message is not None else token)


# rows read or formatted at a time: a block's Python objects and field
# strings are alive only while its lines are converted or joined, so the
# writer's peak stays near twice the finished text (the block strings and
# their join)
BLOCK_ROWS = 4096


def _max_digits() -> int:
    """Python's limit on the digits of an int-str conversion; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def table_values(
    text: str, what: str, expected: str, number=float, fields=(1, 1), finite: bool = False
):
    """The fields of the nonblank lines of ``text``, each converted by ``number``.

    The lines are those of ``text.splitlines()``, stripped; blank ones are
    skipped.  A line's fields are its comma-separated parts, each read by
    ``number`` (``float`` or ``int``).  Returns ``(values, ends)``: every
    field's value in order (a float64 array for ``float``, a list of ints for
    ``int``), and the int64 array of the index past each row's last field.

    A row of fewer than ``fields[0]`` or more than ``fields[1]`` fields, a
    field that ``number`` rejects, or with ``finite`` a non-finite one, raises
    ``malformed-input`` with ``what``, the line number, ``expected`` and the
    line's ``repr``; an ``int`` line with more digits than Python's int-str
    limit raises ``too-large``; the first bad line is the one reported.  A
    text without a nonblank line raises ``empty-table``.

    The text is split into lines one piece at a time (see :func:`_pieces`),
    so only one piece's lines are alive at once.  A piece's lines are read
    :data:`BLOCK_ROWS` at a time, each block's fields converted in one
    ``map`` and checked on arrays; only a block that fails is walked line by
    line, to name its first bad line.
    """
    # a text without a comma has one field per row, and needs no split
    single = "," not in text
    values, counts = [], []
    start = 0
    for piece in _pieces(text):
        lines = piece.splitlines()
        for first in range(0, len(lines), BLOCK_ROWS):
            block = lines[first : first + BLOCK_ROWS]
            rows = list(filter(None, map(str.strip, block)))
            if not rows:
                continue
            try:
                block_values, block_counts = _convert(rows, number, fields, finite, single)
            except ValueError:
                block_values, block_counts = _walk(
                    block, start + first, what, expected, number, fields, finite
                )
            values.append(block_values)
            counts.append(block_counts)
        start += len(lines)
    if not counts:
        raise LabError("empty-table", f"empty {what}")
    ends = np.cumsum(np.concatenate(counts))
    if number is int:
        return list(chain.from_iterable(values)), ends
    return np.concatenate(values), ends


def _pieces(text: str):
    """``text`` in consecutive pieces, each cut after the first ``"\\n"`` at
    least ``64 * BLOCK_ROWS`` characters past its start, or at the end.

    A cut after ``"\\n"`` never splits ``"\\r\\n"``, so the pieces' lines
    are the text's.  Finding the cut is one ``str.find``; cutting after
    every ``BLOCK_ROWS``-th ``"\\n"`` costs a pass over every character
    (0.7 to 1.8 ns each with a regular expression, about 2 ms more for
    a 2.5 MB sequence table on 2-vCPU x86-64).
    """
    start, size = 0, len(text)
    while start < size:
        stop = text.find("\n", start + 64 * BLOCK_ROWS - 1) + 1 or size
        yield text[start:stop]
        start = stop


def _convert(rows: list[str], number, fields, finite: bool, single: bool):
    """The values and field counts of nonblank stripped ``rows``, in one pass;
    ``ValueError`` when any row is bad, or is an ``int`` row too long to tell
    without counting its digits."""
    if single:
        counts, parts = np.ones(len(rows), dtype=np.int64), rows
    else:
        counts = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows)) + 1
        parts = ",".join(rows).split(",")
    if counts.min() < fields[0] or counts.max() > fields[1]:
        raise ValueError("field count")
    if number is int:
        limit = _max_digits()
        if limit and max(map(len, rows)) > limit:
            raise ValueError("long row")
        return list(map(int, parts)), counts
    values = np.fromiter(map(number, parts), np.float64, len(parts))
    if finite and not np.isfinite(values).all():
        raise ValueError("non-finite field")
    return values, counts


def _walk(block: list[str], start: int, what: str, expected: str, number, fields, finite: bool):
    """The values and field counts of the lines ``block``, read one line at a
    time, or the error of its first bad line (line ``start + 1`` is its first)."""
    limit = _max_digits() if number is int else 0
    values, counts = [], []
    for lineno, line in enumerate(block, start=start + 1):
        line = line.strip()
        if not line:
            continue
        # int() counts the digits without the sign and the underscores
        if limit and len(line) > limit and len(line.lstrip("+-").replace("_", "")) > limit:
            raise LabError("too-large", f"an index has more than {limit} digits")
        try:
            row = [number(t) for t in line.split(",")]
        except ValueError:
            row = []
        if not fields[0] <= len(row) <= fields[1] or finite and not all(map(math.isfinite, row)):
            raise LabError(
                "malformed-input", f"{what} line {lineno}: expected {expected}, got {line!r}"
            )
        values += row
        counts.append(len(row))
    if number is not int:
        values = np.array(values, dtype=np.float64)
    return values, np.array(counts, dtype=np.int64)


def _fields(column, start: int, stop: int):
    part = column[start:stop]
    tolist = getattr(part, "tolist", None)
    return map(repr, part if tolist is None else tolist())


def table_text(*columns) -> str:
    """A table from its columns: one line per row, fields written with ``repr``.

    A column is a numpy array (its values go through ``tolist()``, because
    numpy 2 writes ``repr(np.float64(x))`` as ``np.float64(x)``) or a Python
    sequence of ints and floats.  Rows are formatted in blocks of
    :data:`BLOCK_ROWS`.  A table without rows is one newline; columns of
    unequal length raise ``ValueError``.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("table columns differ in length")
    if n == 0:
        return "\n"
    blocks = []
    for start in range(0, n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        lines = map(",".join, zip(*[_fields(c, start, stop) for c in columns]))
        blocks.append("\n".join(lines))
    blocks.append("")
    return "\n".join(blocks)


def json_text(obj) -> str:
    """Indented JSON text; a NaN or infinity in ``obj`` raises ``non-finite``."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise LabError("non-finite", f"cannot write a non-finite number as JSON ({exc})") from None
