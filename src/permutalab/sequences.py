"""Lacunary index sequences, gap conditions, Diophantine counts, permutations.

Index values are arbitrary-precision integers: geometric-gap sequences
overflow 64 bits near the 63rd term already, and the experiments need a
few thousand.  Gap checks compare consecutive ratios against the bound in
exact rational arithmetic (the float bound is converted to an exact
fraction, so generators always pass their own checkers).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import LabError, table_rows, table_text
from .rng import Stream, derive_seed


@dataclass(frozen=True)
class IndexSequence:
    """Strictly increasing positive integers n_1 < n_2 < ..."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise LabError("bad-sequence", "sequence must be nonempty")
        prev = 0
        for v in self.values:
            if v <= prev:
                raise LabError("bad-sequence", "values must be strictly increasing and >= 1")
            prev = v

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        """One base-10 integer per line; a value longer than Python's
        int-to-string digit limit raises ``too-large``."""
        limit = _max_digits()
        if limit and int(self.values[-1]) >= 10**limit:
            raise LabError("too-large", f"the last index has more than {limit} digits")
        return table_text([int(v) for v in self.values])

    @classmethod
    def from_csv(cls, text: str) -> "IndexSequence":
        """Parse one integer per line (:func:`~permutalab.errors.table_rows`).

        A line with more digits than Python's string-to-int limit raises
        ``too-large``.
        """
        limit = _max_digits()

        def parse(line: str) -> int:
            # int() counts the digits without the sign and the underscores
            if limit and len(line) > limit and len(line.lstrip("+-").replace("_", "")) > limit:
                raise LabError("too-large", f"an index has more than {limit} digits")
            return int(line)

        return cls(tuple(table_rows(text, "sequence CSV", "an integer", parse)))


def _max_digits() -> int:
    """Python's limit on the digits of an int-str conversion; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# the largest permutation: building a random one of 2**20 terms peaks near 100 MB
PERM_MAX_TERMS = 2**20


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..N}, stored as the image (sigma(1), ..., sigma(N))."""

    image: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(self.image)) != tuple(range(1, len(self.image) + 1)):
            raise LabError("bad-permutation", "image is not a bijection of 1..N")

    def __len__(self) -> int:
        return len(self.image)

    def window(self, start: int, stop: int) -> list[int]:
        """The 0-based images of positions start+1..stop.

        A permutation shorter than ``stop`` raises ``perm-size``.
        """
        if stop > len(self.image):
            raise LabError(
                "perm-size", f"a permutation of {len(self.image)} terms has no position {stop}"
            )
        return [i - 1 for i in self.image[start:stop]]


def _check_q(q: float) -> None:
    if not 1 < q < math.inf:
        raise LabError("bad-q", "q must be finite and exceed 1")


def _check_c_alpha(c: float, alpha: float) -> None:
    if not 0 < c < math.inf:
        raise LabError("bad-c", "c must be finite and positive")
    if not 0 < alpha < 1:
        raise LabError("bad-alpha", "alpha must be in (0,1)")


def _grow(bound, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(n_k * bound(k)), n_k + 1) from n1, for a Fraction ``bound``."""
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    vals = [n1]
    for k in range(1, count):
        r = bound(k)
        vals.append(max(-((-r.numerator * vals[-1]) // r.denominator), vals[-1] + 1))
    return IndexSequence(tuple(vals))


def _holds(seq: IndexSequence, bound) -> bool:
    """True iff n_{k+1} / n_k >= bound(k) for k = 1, 2, ... (exact compare)."""
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    vals = seq.values
    for k in range(1, len(vals)):
        r = bound(k)
        if vals[k] * r.denominator < r.numerator * vals[k - 1]:
            return False
    return True


def gen_hadamard(q: float, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(q * n_k), n_k + 1) starting from n1."""
    _check_q(q)
    qf = Fraction(q)
    return _grow(lambda k: qf, n1, count)


def gen_erdos(c: float, alpha: float, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(n_k * (1 + c * k**(-alpha))), n_k + 1)."""
    _check_c_alpha(c, alpha)
    return _grow(lambda k: Fraction(1.0 + c * k ** (-alpha)), n1, count)


def check_hadamard(seq: IndexSequence, q: float) -> bool:
    """True iff n_{k+1}/n_k >= q for every consecutive pair (exact compare)."""
    _check_q(q)
    qf = Fraction(q)
    return _holds(seq, lambda k: qf)


def check_erdos(seq: IndexSequence, c: float, alpha: float) -> bool:
    """True iff n_{k+1}/n_k >= 1 + c * k**(-alpha) for all k (exact compare)."""
    _check_c_alpha(c, alpha)
    return _holds(seq, lambda k: Fraction(1.0 + c * k ** (-alpha)))


def gap_report(seq: IndexSequence) -> float:
    """Smallest consecutive ratio n_{k+1}/n_k, as a float; descriptive only."""
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    return min(v1 / v0 for v0, v1 in zip(seq.values, seq.values[1:]))


def _partners(seq: IndexSequence, a: int, b: int, c: int, n: int) -> list[int]:
    """For each k < n, the index l < n with a*n_k + b*n_l = c, or n when there is none.

    The values are strictly increasing, so each k has at most one partner.
    """
    vals = seq.values[:n]
    index = {v: k for k, v in enumerate(vals)}
    partner = []
    for v in vals:
        q, rem = divmod(c - a * v, b)
        partner.append(n if rem else index.get(q, n))
    return partner


def count_diophantine(seq: IndexSequence, a: int, b: int, c: int, n: int) -> int:
    """Exact count of pairs (k, l) in [1, n]^2 with a*n_k + b*n_l = c."""
    return diophantine_growth_scan(seq, a, b, c, [n])[0][1]


def diophantine_growth_scan(
    seq: IndexSequence, a: int, b: int, c: int, n_list: list[int]
) -> list[tuple[int, int, float]]:
    """Rows (N, count, count/N), one per N of n_list, in order.

    count is the number of pairs (k, l) in [1, N]^2 with a*n_k + b*n_l = c.
    The partners are found once, over the longest prefix: the row of N
    counts the k < N whose partner is below N.  Classification is left to
    the reader.
    """
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise LabError("bad-count", "N list must be increasing")
    if a == 0 or b == 0:
        raise LabError("degenerate-coefficient", "a and b must be nonzero")
    for n in n_list:
        if not 1 <= n <= len(seq):
            raise LabError("bad-count", f"need 1 <= n <= {len(seq)} (sequence length), got {n}")
    partner = _partners(seq, a, b, c, max(n_list, default=0))
    rows = []
    for n in n_list:
        cnt = sum(l < n for l in partner[:n])
        rows.append((n, cnt, cnt / n))
    return rows


def block_interleave_permutation(n: int, block: int) -> Permutation:
    """Write 1..N row-major into (block x N/block), read column-major."""
    if block < 1:
        raise LabError("bad-block", f"block must be >= 1, got {block}")
    if n % block != 0:
        raise LabError("bad-block", "block must divide N")
    cols = n // block
    image = tuple(r * cols + c + 1 for c in range(cols) for r in range(block))
    return Permutation(image)


def random_permutation(n: int, seed: int) -> Permutation:
    """Fisher-Yates with descending index, deterministic per seed."""
    if n < 1:
        raise LabError("bad-count", "need N >= 1")
    stream = Stream(derive_seed(seed, "permutation"))
    arr = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return Permutation(tuple(arr))


def permutation(pattern: str, n: int) -> Permutation:
    """The permutation pattern ``identity``, ``reverse``, ``block:k`` or ``random:seed`` on n terms.

    n above PERM_MAX_TERMS raises ``perm-size`` before anything is built; an
    unknown pattern or a non-integer argument raises ``bad-config``.
    """
    if n > PERM_MAX_TERMS:
        raise LabError("perm-size", f"--perm-n {n} exceeds {PERM_MAX_TERMS} terms")
    if pattern == "identity":
        return Permutation(tuple(range(1, n + 1)))
    if pattern == "reverse":
        return Permutation(tuple(range(n, 0, -1)))
    kind, _, arg = pattern.partition(":")
    if kind not in ("block", "random"):
        raise LabError("bad-config", f"unknown permutation pattern {pattern!r}")
    try:
        value = int(arg)
    except ValueError:
        msg = f"permutation pattern {pattern!r} needs an integer after ':'"
        raise LabError("bad-config", msg) from None
    if kind == "block":
        return block_interleave_permutation(n, value)
    return random_permutation(n, value)


def apply_permutation(seq: IndexSequence, perm: Permutation, n: int) -> tuple[int, ...]:
    """(n_{sigma(1)}, ..., n_{sigma(n)}); generally not increasing.

    n below 1 raises ``bad-count``.
    """
    if n < 1:
        raise LabError("bad-count", "need n >= 1")
    window = perm.window(0, n)
    if max(window) >= len(seq):
        raise LabError("perm-size", "permutation reaches past the sequence")
    return tuple(seq.values[i] for i in window)
