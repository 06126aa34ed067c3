"""0-1 matrices, permutation-matrix containment, and copy counting.

The matrix of a permutation sigma has a 1 at (i, sigma(i)).  A matrix
A contains the pattern matrix of pi when some k rows x_1 < ... < x_k
and k columns y_1 < ... < y_k can be chosen with A[x_i][y_pi(i)] = 1
for every i; copies are counted over all such row/column selections.
Densities and the random-submatrix sampling estimates used to probe
the supersaturation bound live here too.

Rows are stored bit-packed (bit j of ``row_bits[i]`` is the entry in
row i+1, column j+1).  All indices are 1-based at the API surface.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import kernels, rngutil
from .config import LIMITS, check_ceiling
from .perms import PermLike, Permutation, as_int, as_permutation


@dataclass(frozen=True)
class BinaryMatrix:
    """An immutable 0-1 matrix with bit-packed rows."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        bits = tuple(as_int(b, "packed row") for b in self.row_bits)
        object.__setattr__(self, "row_bits", bits)
        if len(bits) != self.rows:
            raise ValueError(
                f"got {len(bits)} packed rows for a {self.rows}-row matrix"
            )
        limit = 1 << self.cols
        for i, b in enumerate(bits, start=1):
            if not 0 <= b < limit:
                raise ValueError(f"row {i} has bits outside {self.cols} columns")

    @cached_property
    def ones(self) -> int:
        """Number of 1-entries."""
        return sum(b.bit_count() for b in self.row_bits)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based (row, column)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.row_bits[i - 1] >> (j - 1)) & 1

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinaryMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def filled(cls, rows: int, cols: int) -> "BinaryMatrix":
        full = (1 << cols) - 1
        return cls(rows, cols, (full,) * rows)

    @classmethod
    def from_rows(cls, entries: Iterable[Sequence[int]]) -> "BinaryMatrix":
        """Build from row-major 0/1 entries (any iterable of rows)."""
        grid = [list(row) for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if grid else 0
        bits = []
        for i, row in enumerate(grid, start=1):
            if len(row) != cols:
                raise ValueError(f"row {i} has length {len(row)}, expected {cols}")
            mask = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry ({i},{j + 1}) is {e!r}, not 0/1")
                mask |= e << j
            bits.append(mask)
        return cls(rows, cols, tuple(bits))

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the text format: a "rows cols" header line, then one
        line of contiguous 0/1 characters per row.
        """
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines or not lines[0]:
            raise ValueError("line 1: missing 'rows cols' header")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"line 1: header must be 'rows cols', got {lines[0]!r}")
        try:
            rows, cols = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"line 1: non-integer header {lines[0]!r}") from None
        body = lines[1:]
        if len(body) != rows:
            raise ValueError(f"expected {rows} row lines, found {len(body)}")
        bits = []
        for i, ln in enumerate(body, start=2):
            if len(ln) != cols:
                raise ValueError(f"line {i}: expected {cols} characters")
            mask = 0
            for j, ch in enumerate(ln):
                if ch == "1":
                    mask |= 1 << j
                elif ch != "0":
                    raise ValueError(f"line {i} column {j + 1}: {ch!r} is not 0/1")
            bits.append(mask)
        return cls(rows, cols, tuple(bits))

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for b in self.row_bits:
            lines.append("".join("1" if (b >> j) & 1 else "0" for j in range(self.cols)))
        return "\n".join(lines)

    def to_lists(self) -> list[list[int]]:
        return [
            [(b >> j) & 1 for j in range(self.cols)] for b in self.row_bits
        ]

    def row_lines(self) -> list[str]:
        """Rows as 0/1 strings (the text format without its header)."""
        return self.to_text().splitlines()[1:]

    def flip_rows(self) -> "BinaryMatrix":
        """Reverse the row order.

        This is the matrix side of pattern reversal: flipping the rows
        of A turns copies of pi into copies of pi.reverse(), so counts
        satisfy count(A.flip_rows(), pi.reverse()) = count(A, pi).
        """
        return BinaryMatrix(self.rows, self.cols, self.row_bits[::-1])

    def set_entry(self, i: int, j: int, value: int) -> "BinaryMatrix":
        """A copy with 1-based entry (i, j) set to 0 or 1."""
        if value not in (0, 1):
            raise ValueError(f"value must be 0/1, got {value!r}")
        self.entry(i, j)  # bounds check
        bits = list(self.row_bits)
        if value:
            bits[i - 1] |= 1 << (j - 1)
        else:
            bits[i - 1] &= ~(1 << (j - 1))
        return BinaryMatrix(self.rows, self.cols, tuple(bits))


def permutation_matrix(sigma: PermLike) -> BinaryMatrix:
    """The n x n matrix with a 1 at (i, sigma(i)) for each i.

    >>> permutation_matrix((2, 1)).to_lists()
    [[0, 1], [1, 0]]
    """
    s = as_permutation(sigma)
    n = len(s)
    return BinaryMatrix(n, n, tuple(1 << (v - 1) for v in s.values))


def _pattern_of(p: "BinaryMatrix | PermLike") -> Permutation:
    """Accept a pattern as a permutation or as its permutation matrix."""
    if isinstance(p, BinaryMatrix):
        if p.rows != p.cols:
            raise ValueError("pattern matrix must be square")
        vals = []
        for i, b in enumerate(p.row_bits, start=1):
            if b.bit_count() != 1:
                raise ValueError(
                    f"pattern row {i} has {b.bit_count()} ones; only "
                    "permutation-matrix patterns are supported"
                )
            vals.append(b.bit_length())
        return Permutation(tuple(vals))
    return as_permutation(p)


def matrix_contains(a: BinaryMatrix, pattern: "BinaryMatrix | PermLike") -> bool:
    """True iff ``a`` contains the permutation-matrix pattern.

    The pattern may be given as a permutation or as a square 0-1
    matrix with exactly one 1 per row and column; anything else is
    rejected.
    """
    p = _pattern_of(pattern)
    return kernels.matrix_contains_perm(a.row_bits, a.cols, p.zero_based)


def count_matrix_copies(a: BinaryMatrix, pi: PermLike) -> int:
    """Exact number of copies of the pattern matrix of pi inside ``a``.

    >>> count_matrix_copies(BinaryMatrix.filled(3, 3), (1, 2))
    9
    >>> count_matrix_copies(permutation_matrix((2, 4, 1, 3)), (1, 2))
    3
    """
    p = as_permutation(pi)
    return kernels.count_matrix_copies(a.row_bits, a.cols, p.zero_based)


@dataclass(frozen=True)
class DensityPair:
    """Exact one-density and pattern-copy density of a matrix."""

    one_density: Fraction
    pi_density: Fraction


def densities(a: BinaryMatrix, pi: PermLike) -> DensityPair:
    """Both densities as exact rationals.

    The one-density is ones/(rows*cols); the copy density divides the
    copy count by C(rows,k)*C(cols,k).  Degenerate denominators give
    density 0.
    """
    p = as_permutation(pi)
    pairs = math.comb(a.rows, len(p)) * math.comb(a.cols, len(p))
    return DensityPair(
        one_density=_ratio(a.ones, a.rows * a.cols),
        pi_density=_ratio(count_matrix_copies(a, p), pairs),
    )


def _ratio(part: int, whole: int) -> Fraction:
    """part/whole exactly, and 0 for an empty whole."""
    return Fraction(part, whole) if whole else Fraction(0)


def _entries(a: BinaryMatrix) -> np.ndarray:
    """The entries of ``a`` as a (rows, cols) uint8 array."""
    width = (a.cols + 7) // 8
    packed = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in a.row_bits),
                           np.uint8).reshape(a.rows, width)
    return np.unpackbits(packed, axis=1, count=a.cols, bitorder="little")


def _check_sample_size(a: BinaryMatrix, r: int) -> None:
    if not (0 <= r <= a.rows and r <= a.cols):
        raise ValueError(f"r={r} exceeds matrix dimensions {a.rows}x{a.cols}")


def random_submatrix(
    a: BinaryMatrix, r: int, rng: "np.random.Generator | int"
) -> BinaryMatrix:
    """The submatrix induced by r uniformly random rows and columns.

    Rows are drawn first, then columns, each as a uniform r-subset;
    the induced submatrix keeps the original relative order.  ``rng``
    may be a seed or a generator from :func:`permavoid.rngutil.generator`.
    This is one trial of the draws :func:`sampling_estimates` makes.
    """
    _check_sample_size(a, r)
    if isinstance(rng, int):
        rng = rngutil.generator(rng)
    row_sets, col_sets = next(rngutil.subset_pair_blocks(rng, a.rows, a.cols, r, 1))
    cols = col_sets[0].tolist()
    bits = tuple(
        sum(((a.row_bits[i] >> j) & 1) << jj for jj, j in enumerate(cols))
        for i in row_sets[0].tolist()
    )
    return BinaryMatrix(r, r, bits)


@dataclass(frozen=True)
class SamplingReport:
    """Sample means of 1(R) and pi(R) over random r x r submatrices.

    Means are exact rationals (averages of exact per-trial densities);
    standard errors are floats, 0.0 when trials == 1.  For uniform
    submatrix sampling both means are unbiased for the corresponding
    densities of the source matrix.
    """

    r: int
    trials: int
    seed: int
    one_mean: Fraction
    pi_mean: Fraction
    one_se: float
    pi_se: float


def sampling_estimates(
    a: BinaryMatrix,
    pi: PermLike,
    r: int,
    trials: int,
    seed: int,
    cost_ceiling: int | None = None,
) -> SamplingReport:
    """Estimate 1(M) and pi(M) from ``trials`` random r x r submatrices.

    Each trial sweeps r columns for each of C(r,k) row subsets and k
    pattern rows, so the projected work trials * C(r,k) * k * r is
    refused above the cost ceiling before any draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = as_permutation(pi)
    _check_sample_size(a, r)
    k = len(p)
    cost = trials * max(1, math.comb(r, k)) * max(1, k) * max(1, r)
    check_ceiling("cost_ceiling", cost, cost_ceiling, LIMITS.mc_cost_ceiling)
    rng = rngutil.generator(seed)
    outcomes = Counter()  # (ones, copies) of each r x r submatrix
    entries = _entries(a)
    for rows, cols in rngutil.subset_pair_blocks(rng, a.rows, a.cols, r, trials):
        blk = entries[rows[:, :, None], cols[:, None, :]]  # (B, r, r) submatrices
        ones = blk.sum(axis=(1, 2)).tolist()
        outcomes.update(zip(ones, kernels.matrix_copy_counts(blk, p.zero_based)))
    pairs = math.comb(r, len(p)) ** 2
    one_mean, one_se = rngutil.mean_and_se(
        (_ratio(ones, r * r), m) for (ones, _), m in outcomes.items()
    )
    pi_mean, pi_se = rngutil.mean_and_se(
        (_ratio(copies, pairs), m) for (_, copies), m in outcomes.items()
    )
    return SamplingReport(
        r=r,
        trials=trials,
        seed=seed,
        one_mean=one_mean,
        pi_mean=pi_mean,
        one_se=one_se,
        pi_se=pi_se,
    )
