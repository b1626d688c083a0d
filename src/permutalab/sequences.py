"""Lacunary index sequences, gap conditions, Diophantine counts, permutations.

Index values are arbitrary-precision integers: geometric-gap sequences
overflow 64 bits near the 63rd term already, and the experiments need a
few thousand.  Gap checks compare consecutive ratios against the bound in
exact rational arithmetic: a kind's generator and checker read one exact
bound, so generators always pass their own checkers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LabError, _max_digits, table_text, table_values
from .rng import _counter_words, derive_seed


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
        """Parse one integer per line (:func:`~permutalab.errors.table_values`).

        A line with more digits than Python's string-to-int limit raises
        ``too-large``.
        """
        values, _ = table_values(text, "sequence CSV", "an integer", number=int)
        return cls(tuple(values))


# the most terms of a permutation or a generated sequence
PERM_MAX_TERMS = 2**20

# the most characters of a generated sequence's table: gen-seq of a table
# just below it (537 MB of text) peaks near 1.5 GB of RSS (terms, text and
# its blocks)
TABLE_MAX_CHARS = 2**29


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection of {1..N}, stored as the image (sigma(1), ..., sigma(N)).

    ``image`` is a read-only int64 copy of a 1-D integer array-like that
    holds each of 1..N once; anything else raises ``bad-permutation``.  The
    check is a range test and a boolean mask of the values seen: N + 1
    bytes beside the copy.
    """

    image: np.ndarray

    def __post_init__(self):
        try:
            image = np.array(self.image)
            ok = image.ndim == 1 and image.dtype.kind in "iu"
        except ValueError:
            ok = False
        if ok and len(image):
            n = len(image)
            ok = 1 <= image.min() and image.max() <= n
            if ok:
                seen = np.zeros(n + 1, dtype=bool)
                seen[image] = True
                ok = bool(seen[1:].all())
        if not ok:
            raise LabError("bad-permutation", "image is not a bijection of 1..N")
        image = image.astype(np.int64, copy=False)
        image.flags.writeable = False
        object.__setattr__(self, "image", image)

    def __len__(self) -> int:
        return len(self.image)

    def window(self, start: int, stop: int) -> np.ndarray:
        """The 0-based images of positions start+1..stop, as an int64 array.

        A permutation shorter than ``stop`` raises ``perm-size``.
        """
        if stop > len(self.image):
            raise LabError(
                "perm-size", f"a permutation of {len(self.image)} terms has no position {stop}"
            )
        return self.image[start:stop] - 1


def _hadamard_bound(q: float):
    """The bound ``k -> Fraction(q)``; a q that is not finite and above 1 raises ``bad-q``."""
    if not 1 < q < math.inf:
        raise LabError("bad-q", "q must be finite and exceed 1")
    qf = Fraction(q)
    return lambda k: qf


def _erdos_bound(c: float, alpha: float):
    """The bound ``k -> Fraction(1.0 + c * k**(-alpha))``; raises ``bad-c`` or ``bad-alpha``."""
    if not 0 < c < math.inf:
        raise LabError("bad-c", "c must be finite and positive")
    if not 0 < alpha < 1:
        raise LabError("bad-alpha", "alpha must be in (0,1)")
    return lambda k: Fraction(1.0 + c * k ** (-alpha))


def _grow(bound, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(n_k * bound(k)), n_k + 1) from n1, for a Fraction ``bound``.

    More than PERM_MAX_TERMS terms raise ``too-large`` before any is built, and
    so does the first term with more digits than Python's int-str limit, or
    the first that takes the table past TABLE_MAX_CHARS characters.  The
    table's characters are counted from above, as a running total of
    floor(0.30103 * b) + 2 for a term of b bits: at least its digits (0.30103
    exceeds log10(2)) and its newline.
    """
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    if count > PERM_MAX_TERMS:
        raise LabError("too-large", f"a sequence of {count} terms is longer than {PERM_MAX_TERMS}")
    limit = _max_digits()
    widest = 10**limit if limit else math.inf
    vals = [n1]
    chars = n1.bit_length() * 30103 // 100000 + 2
    while len(vals) < count and vals[-1] < widest and chars <= TABLE_MAX_CHARS:
        r = bound(len(vals))
        vals.append(max(-((-r.numerator * vals[-1]) // r.denominator), vals[-1] + 1))
        chars += vals[-1].bit_length() * 30103 // 100000 + 2
    if vals[-1] >= widest:
        raise LabError("too-large", f"term {len(vals)} has more than {limit} digits")
    if chars > TABLE_MAX_CHARS:
        raise LabError(
            "too-large", f"term {len(vals)} takes the table past {TABLE_MAX_CHARS} characters"
        )
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
    return _grow(_hadamard_bound(q), n1, count)


def gen_erdos(c: float, alpha: float, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(n_k * (1 + c * k**(-alpha))), n_k + 1)."""
    return _grow(_erdos_bound(c, alpha), n1, count)


def check_hadamard(seq: IndexSequence, q: float) -> bool:
    """True iff n_{k+1}/n_k >= q for every consecutive pair (exact compare)."""
    return _holds(seq, _hadamard_bound(q))


def check_erdos(seq: IndexSequence, c: float, alpha: float) -> bool:
    """True iff n_{k+1}/n_k >= 1 + c * k**(-alpha) for all k (exact compare)."""
    return _holds(seq, _erdos_bound(c, alpha))


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
    return Permutation(np.arange(1, n + 1).reshape(block, n // block).T.ravel())


def random_permutation(n: int, seed: int) -> Permutation:
    """Fisher-Yates with descending index, deterministic per seed.

    Step i swaps i with u mod (i + 1), u the next counter word of the stream
    ``derive_seed(seed, "permutation")`` below the largest multiple of i + 1
    up to 2**64.  The shuffle runs on an ``array('q')``: 8 bytes a term,
    where a list of Python ints takes about 36.
    """
    if n < 1:
        raise LabError("bad-count", "need N >= 1")
    words = _counter_words(derive_seed(seed, "permutation"))
    image = array("q", range(1, n + 1))
    for i, u in zip(range(n - 1, 0, -1), words):
        while u >= 2**64 - 2**64 % (i + 1):
            u = next(words)
        j = u % (i + 1)
        image[i], image[j] = image[j], image[i]
    return Permutation(image)


def permutation(pattern: str, n: int) -> Permutation:
    """The permutation pattern ``identity``, ``reverse``, ``block:k`` or ``random:seed`` on n terms.

    n below 1 or above PERM_MAX_TERMS raises ``perm-size`` before anything is
    built, whatever the pattern; an unknown pattern or a non-integer
    argument raises ``bad-config``.
    """
    if not 1 <= n <= PERM_MAX_TERMS:
        raise LabError("perm-size", f"--perm-n {n} is not in 1..{PERM_MAX_TERMS} terms")
    if pattern == "identity":
        return Permutation(np.arange(1, n + 1))
    if pattern == "reverse":
        return Permutation(np.arange(n, 0, -1))
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
    if window.max() >= len(seq):
        raise LabError("perm-size", "permutation reaches past the sequence")
    return tuple(seq.values[i] for i in window.tolist())
