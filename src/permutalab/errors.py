"""Error type shared by all modules, and the one reader and writer of text.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``) that the CLI prints on stderr.  Tables
are read by :func:`table_rows`, so a bad line or an empty table ends in
``malformed-input`` or ``empty-table``, and written by :func:`table_text`;
every JSON file is written by :func:`json_text`.
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


def table_text(rows) -> str:
    """A table: one line per row (a tuple), its fields written with ``repr``.

    Fields must be Python ints and floats; convert numpy values with
    ``tolist()`` first, because numpy 2 writes ``repr(np.float64(x))`` as
    ``np.float64(x)``.  A table without rows is one newline.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return "\n"
    fmt = ",".join(["%r"] * len(first)) + "\n"
    return fmt % first + "".join([fmt % row for row in rows])


def json_text(obj) -> str:
    """Indented JSON text; a NaN or infinity in ``obj`` raises ``non-finite``."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise LabError("non-finite", f"cannot write a non-finite number as JSON ({exc})") from None
