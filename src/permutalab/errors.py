"""Error type shared by all modules, and the one reader and writer of text.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``) that the CLI prints on stderr.  Every
numeric table (a sequence, a measure, a table to plot) is read by
:func:`table_values`, so a bad line or an empty table ends in
``malformed-input`` or ``empty-table``, and written by :func:`table_text`;
every JSON file is written by :func:`json_text`.  The reader's row rules
are stated once, in :func:`_convert`: it converts the fields of a piece
of the text in one ``map`` and checks field counts and finiteness on
arrays.  A piece that fails is read again line by line, through the same
function, only to name its first bad line.

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
import sys
from itertools import chain, repeat

import numpy as np


class LabError(Exception):
    """Exception with a machine-readable error token."""

    def __init__(self, token: str, message: str | None = None):
        self.token = token
        super().__init__(message if message is not None else token)


# rows formatted at a time: a block's Python objects and field strings are
# alive only while its lines are joined, so the writer's peak stays near
# twice the finished text (the block strings and their join); the reader
# splits the text in pieces of 64 times as many characters
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
    so only one piece's lines are alive at once.  One parser,
    :func:`_convert`, reads each piece's fields in one ``map`` and checks
    them on arrays; a piece that fails is read again line by line, by the
    same parser, only to name its first bad line.
    """
    # a text without a comma has one field per row, and needs no split
    single = "," not in text
    values, counts = [], []
    start = 0
    for piece in _pieces(text):
        lines = piece.splitlines()
        rows = list(filter(None, map(str.strip, lines)))
        if rows:
            try:
                piece_values, piece_counts = _convert(rows, number, fields, finite, single)
            except ValueError:
                raise _first_error(
                    lines, start, what, expected, number, fields, finite, single
                ) from None
            values.append(piece_values)
            counts.append(piece_counts)
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
    ``ValueError`` when any row is bad.  These are the reader's only row rules."""
    if single:
        counts, parts = np.ones(len(rows), dtype=np.int64), rows
    else:
        counts = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows)) + 1
        parts = ",".join(rows).split(",")
    if counts.min() < fields[0] or counts.max() > fields[1]:
        raise ValueError("field count")
    if number is int:
        # int() itself refuses a field of more digits than Python's limit
        return list(map(int, parts)), counts
    values = np.fromiter(map(number, parts), np.float64, len(parts))
    if finite and not np.isfinite(values).all():
        raise ValueError("non-finite field")
    return values, counts


def _first_error(lines, start: int, what: str, expected: str, number, fields, finite, single):
    """The error of the first of ``lines`` that :func:`_convert` rejects on its
    own (line ``start + 1`` is the first)."""
    limit = _max_digits() if number is int else 0
    for lineno, line in enumerate(lines, start=start + 1):
        line = line.strip()
        try:
            if line:
                _convert([line], number, fields, finite, single)
        except ValueError:
            # int() counts the digits without the sign and the underscores
            if limit and len(line.lstrip("+-").replace("_", "")) > limit:
                return LabError("too-large", f"an index has more than {limit} digits")
            return LabError(
                "malformed-input", f"{what} line {lineno}: expected {expected}, got {line!r}"
            )


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
