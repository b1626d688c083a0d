"""Error type shared by all modules, and the one reader of text tables.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``) that the CLI prints on stderr.  Every
table the program reads (a measure, a sequence, a table to plot) goes
through :func:`table_rows`, so a bad line or an empty table ends in the
same two tokens, ``malformed-input`` and ``empty-table``.
"""

from __future__ import annotations

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
