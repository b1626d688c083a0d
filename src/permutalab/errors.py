"""Error type shared by all modules.

Every failure mode that is part of a module contract carries a stable
short token (e.g. ``"bad-eps"``); the CLI prints the token and
maps it to exit code 3.
"""

from __future__ import annotations


class LabError(Exception):
    """Exception with a machine-readable error token."""

    def __init__(self, token: str, message: str | None = None):
        self.token = token
        super().__init__(message if message is not None else token)
