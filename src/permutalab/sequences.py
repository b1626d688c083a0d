"""Lacunary index sequences, gap conditions, Diophantine counts, permutations.

Index values are arbitrary-precision integers: geometric-gap sequences
overflow 64 bits near the 63rd term already, and the experiments need a
few thousand.  Gap checks compare consecutive ratios against the bound in
exact rational arithmetic (the float bound is converted to an exact
fraction, so generators always pass their own checkers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import LabError
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
        return "\n".join(str(v) for v in self.values) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "IndexSequence":
        """Parse whitespace-separated integers; a non-integer raises ``malformed-input``."""
        vals = []
        for number, line in enumerate(text.splitlines(), start=1):
            for token in line.split():
                try:
                    vals.append(int(token))
                except ValueError:
                    raise LabError(
                        "malformed-input",
                        f"sequence CSV line {number}: expected an integer, got {token!r}",
                    ) from None
        return cls(tuple(vals))


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..N}, stored as the image (sigma(1), ..., sigma(N))."""

    image: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(self.image)) != tuple(range(1, len(self.image) + 1)):
            raise LabError("bad-permutation", "image is not a bijection of 1..N")

    def __len__(self) -> int:
        return len(self.image)


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


def count_diophantine(seq: IndexSequence, a: int, b: int, c: int, n: int) -> int:
    """Exact count of pairs (k, l) in [1, n]^2 with a*n_k + b*n_l = c."""
    if a == 0 or b == 0:
        raise LabError("degenerate-coefficient", "a and b must be nonzero")
    if not 1 <= n <= len(seq):
        raise LabError("bad-count", f"need 1 <= n <= {len(seq)} (sequence length), got {n}")
    vals = seq.values[:n]
    index = {v: k for k, v in enumerate(vals)}
    count = 0
    for v in vals:
        num = c - a * v
        if num % b == 0 and num // b in index:
            count += 1
    return count


def diophantine_growth_scan(
    seq: IndexSequence, a: int, b: int, c: int, n_list: list[int]
) -> list[tuple[int, int, float]]:
    """Rows (N, count, count/N); classification is left to the reader."""
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise LabError("bad-count", "N list must be increasing")
    rows = []
    for n in n_list:
        cnt = count_diophantine(seq, a, b, c, n)
        rows.append((n, cnt, cnt / n))
    return rows


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reverse_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


def block_interleave_permutation(n: int, block: int) -> Permutation:
    """Write 1..N row-major into (block x N/block), read column-major."""
    if block < 1 or n % block != 0:
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


def apply_permutation(seq: IndexSequence, perm: Permutation, n: int) -> tuple[int, ...]:
    """(n_{sigma(1)}, ..., n_{sigma(n)}); generally not increasing."""
    if n > len(seq) or n > len(perm):
        raise LabError("perm-size", "n exceeds sequence or permutation length")
    image = perm.image[:n]
    if max(image) > len(seq):
        raise LabError("perm-size", "permutation reaches past the sequence")
    return tuple(seq.values[i - 1] for i in image)
