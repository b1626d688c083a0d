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


@dataclass(frozen=True)
class GapReport:
    """Descriptive gap summary: no asymptotic classification is attempted."""

    min_ratio: float
    hadamard_q: float | None
    erdos_fit: tuple[float, float] | None


def _ceil_frac_times(q: Fraction, n: int) -> int:
    num = q.numerator * n
    den = q.denominator
    return -((-num) // den)


def gen_hadamard(q: float, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(q * n_k), n_k + 1) starting from n1."""
    if not q > 1:
        raise LabError("bad-q", "q must exceed 1")
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    qf = Fraction(q)
    vals = [n1]
    for _ in range(count - 1):
        nxt = max(_ceil_frac_times(qf, vals[-1]), vals[-1] + 1)
        vals.append(nxt)
    return IndexSequence(tuple(vals))


def gen_erdos(c: float, alpha: float, n1: int, count: int) -> IndexSequence:
    """n_{k+1} = max(ceil(n_k * (1 + c * k**(-alpha))), n_k + 1)."""
    if not c > 0:
        raise LabError("bad-c", "c must be positive")
    if not 0 < alpha < 1:
        raise LabError("bad-alpha", "alpha must be in (0,1)")
    if n1 < 1 or count < 1:
        raise LabError("bad-sequence", "need n1 >= 1 and count >= 1")
    vals = [n1]
    for k in range(1, count):
        factor = Fraction(1.0 + c * k ** (-alpha))
        nxt = max(_ceil_frac_times(factor, vals[-1]), vals[-1] + 1)
        vals.append(nxt)
    return IndexSequence(tuple(vals))


def check_hadamard(seq: IndexSequence, q: float) -> bool:
    """True iff n_{k+1}/n_k >= q for every consecutive pair (exact compare)."""
    if not q > 1:
        raise LabError("bad-q", "q must exceed 1")
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    qf = Fraction(q)
    vals = seq.values
    return all(
        vals[k + 1] * qf.denominator >= qf.numerator * vals[k]
        for k in range(len(vals) - 1)
    )


def check_erdos(seq: IndexSequence, c: float, alpha: float) -> bool:
    """True iff n_{k+1}/n_k >= 1 + c * k**(-alpha) for all k (exact compare)."""
    if not c > 0:
        raise LabError("bad-c", "c must be positive")
    if not 0 < alpha < 1:
        raise LabError("bad-alpha", "alpha must be in (0,1)")
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    vals = seq.values
    for k in range(1, len(vals)):
        bound = Fraction(1.0 + c * k ** (-alpha))
        if vals[k] * bound.denominator < bound.numerator * vals[k - 1]:
            return False
    return True


def gap_report(seq: IndexSequence) -> GapReport:
    if len(seq) < 2:
        raise LabError("too-short", "need at least two terms")
    ratios = [v1 / v0 for v0, v1 in zip(seq.values, seq.values[1:])]
    min_ratio = min(ratios)
    hadamard_q = min_ratio if min_ratio > 1.0 else None
    # least-squares fit of log(ratio_k - 1) = log c - alpha log k, descriptive only
    erdos_fit = None
    if all(r > 1.0 for r in ratios):
        xs = [math.log(k) for k in range(1, len(ratios) + 1)]
        ys = [math.log(r - 1.0) for r in ratios]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        denom = n * sxx - sx * sx
        if denom > 0:
            slope = (n * sxy - sx * sy) / denom
            intercept = (sy - slope * sx) / n
            erdos_fit = (math.exp(intercept), -slope)
    return GapReport(min_ratio, hadamard_q, erdos_fit)


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
