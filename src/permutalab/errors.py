"""Error type shared by all modules, and the one reader and writer of text.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``) that the CLI prints on stderr.  Tables
are read by :func:`table_rows`, so a bad line or an empty table ends in
``malformed-input`` or ``empty-table``, and written by :func:`table_text`;
every JSON file is written by :func:`json_text`.

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
from typing import Callable


class LabError(Exception):
    """Exception with a machine-readable error token."""

    def __init__(self, token: str, message: str | None = None):
        self.token = token
        super().__init__(message if message is not None else token)


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


# rows formatted at a time: a block's Python objects and field strings are
# alive only while its lines are joined, so the writer's peak stays near
# twice the finished text (the block strings and their join)
BLOCK_ROWS = 4096


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
