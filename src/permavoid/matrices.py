"""0-1 matrices and permutation-matrix copy counting.

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
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import kernels, rngutil
from .config import check_limit
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
        bits = self.row_bits
        # A tuple of plain ints needs no coercion and one range check;
        # the per-row loop below only names the first bad row.
        if not (type(bits) is tuple and {*map(type, bits)} <= {int}):
            bits = tuple(as_int(b, "packed row") for b in bits)
            object.__setattr__(self, "row_bits", bits)
        if len(bits) != self.rows:
            raise ValueError(
                f"got {len(bits)} packed rows for a {self.rows}-row matrix"
            )
        limit = 1 << self.cols
        if bits and not (min(bits) >= 0 and max(bits) < limit):
            for i, b in enumerate(bits, start=1):
                if not 0 <= b < limit:
                    raise ValueError(f"row {i} has bits outside {self.cols} columns")

    @classmethod
    def _trusted(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> "BinaryMatrix":
        """A matrix from rows the package built itself: ``rows`` plain
        ints, each below 2^cols, so ``__post_init__``'s checks are
        skipped.  Input from outside goes through the public
        constructors."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, row_bits=row_bits)
        return m

    @property
    def ones(self) -> int:
        """Number of 1-entries."""
        return sum(map(int.bit_count, self.row_bits))

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
                e = as_int(e, f"entry ({i},{j + 1})")
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


def permutation_matrix(sigma: PermLike) -> BinaryMatrix:
    """The n x n matrix with a 1 at (i, sigma(i)) for each i.

    >>> permutation_matrix((2, 1)).to_lists()
    [[0, 1], [1, 0]]
    """
    s = as_permutation(sigma)
    n = len(s)
    return BinaryMatrix(n, n, tuple(1 << (v - 1) for v in s.values))


def count_matrix_copies(a: BinaryMatrix, pi: PermLike) -> int:
    """Exact number of copies of the pattern matrix of pi inside ``a``.

    >>> count_matrix_copies(BinaryMatrix.filled(3, 3), (1, 2))
    9
    >>> count_matrix_copies(permutation_matrix((2, 4, 1, 3)), (1, 2))
    3
    """
    try:
        zero_based = _zero_based(*pi) if type(pi) is tuple else as_permutation(pi).zero_based
    except TypeError:  # an unhashable value, such as ([1], 2): Permutation refuses it
        zero_based = as_permutation(pi).zero_based
    return kernels.count_matrix_copies(a.row_bits, a.cols, zero_based)


# Typed keys: (True, 2) and (1.0, 2.0) hash and compare equal to (1, 2),
# but each value's type is part of the key, so Permutation refuses them
# on every call.
@lru_cache(maxsize=256, typed=True)
def _zero_based(*values: int) -> tuple[int, ...]:
    """The validated 0-based pattern of 1-based int values."""
    return Permutation(values).zero_based


@dataclass(frozen=True)
class DensityPair:
    """Exact one-density and pattern-copy density of a matrix."""

    one_density: Fraction
    pi_density: Fraction


def densities(a: BinaryMatrix, pi: PermLike) -> DensityPair:
    """Both densities as exact rationals.

    The one-density is ones/(rows*cols); the copy density divides the
    copy count by C(rows,k)*C(cols,k).  Degenerate denominators give
    density 0.  Gated by :func:`check_densities` before any count.
    """
    p = as_permutation(pi)
    check_densities(a, p)
    k = len(p)
    pairs = math.comb(a.rows, k) * math.comb(a.cols, k)
    return DensityPair(
        one_density=Fraction(a.ones, max(1, a.rows * a.cols)),
        pi_density=Fraction(count_matrix_copies(a, p), max(1, pairs)),
    )


def check_densities(a: BinaryMatrix, pi: PermLike) -> None:
    """Refuse :func:`densities` above the cost ceiling: its count sweeps
    cols columns for each of C(rows,k) row subsets and k pattern rows."""
    k = len(as_permutation(pi))
    check_limit("cost_ceiling", math.comb(a.rows, k) * k * a.cols)


def _check_sample_size(a: BinaryMatrix, r: int) -> None:
    if not (0 <= r <= a.rows and r <= a.cols):
        raise ValueError(f"r={r} exceeds matrix dimensions {a.rows}x{a.cols}")


def check_sampling(a: BinaryMatrix, pi: PermLike, r: int, trials: int) -> None:
    """Refuse :func:`sampling_estimates` for bad trials or r, then above
    the cost ceiling: each trial sweeps r columns for each of C(r,k) row
    subsets and k pattern rows, so its work is trials * C(r,k) * k * r.
    The charge is the chain sweep's for every r.  For r <= 8 the row
    masks do less, k ANDs and popcounts of at most two words per row
    subset, so it is still an upper bound there."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_sample_size(a, r)
    k = len(as_permutation(pi))
    cost = trials * max(1, math.comb(r, k)) * max(1, k) * max(1, r)
    check_limit("cost_ceiling", cost)


# The widest samples whose rows are gathered as uint8 masks; wider ones
# take the chain sweep.
_MASK_COLS = 8


def _tally_pairs(tally: np.ndarray) -> list[tuple[int, int]]:
    """The (value, multiplicity) pairs of a ``np.bincount`` tally, for
    the values it holds."""
    held = np.flatnonzero(tally)
    return list(zip(held.tolist(), tally[held].tolist()))


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
) -> SamplingReport:
    """Estimate 1(M) and pi(M) from ``trials`` random r x r submatrices.

    Each block's samples are gathered once, as an (r cols, r rows, B)
    array.  For r <= 8 its column planes are OR-ed into r uint8 row
    masks, counted by ``kernels.mask_copy_counts``, and both tallies
    are ``np.bincount`` arrays.  Wider samples go to the chain sweep,
    ``kernels.matrix_copy_counts``, whose (cols, rows, B) layout the
    gather already is, so it copies nothing.  Gated by
    :func:`check_sampling` before any draw; its charge is unchanged by
    the row masks, and still an upper bound on their work.
    """
    p = as_permutation(pi)
    check_sampling(a, p, r, trials)
    rng = rngutil.generator(seed)
    entries = kernels.unpack_rows(a.row_bits, a.cols).ravel()
    # Holds every flat index and the column count.  The draws come as
    # uint8 or uint16, and uint16 rows * cols would wrap past 65,535;
    # intp indices made the gather slower than fancy indexing.
    index = np.min_scalar_type(max(a.rows, 1) * a.cols)
    blocks = rngutil.subset_pair_blocks(rng, a.rows, a.cols, r, trials)
    # (r cols, r rows, B): entry (i, j) of sample b sits at [j, i, b]
    gathered = (entries.take(rows.T.astype(index)[None] * a.cols + cols.T[:, None, :])
                for rows, cols in blocks)
    if r <= _MASK_COLS:
        ones = np.zeros(r * r + 1, np.int64)  # over the r x r submatrices
        copies = np.zeros(math.comb(r, len(p)) ** 2 + 1, np.int64)
        # Each column plane is multiplied by its bit: 13 against 33 µs
        # for a broadcast shift, per 2,048-trial block at r = 6 (2-core
        # x86-64 host, numpy 2.4.6).
        bits = (1 << np.arange(r, dtype=np.uint8))[:, None, None]
        for planes in gathered:
            planes *= bits  # column plane j goes to bit j of each row mask
            masks = np.bitwise_or.reduce(planes, axis=0)  # (r rows, B)
            ones += np.bincount(np.bitwise_count(masks).sum(axis=0, dtype=np.uint8),
                                minlength=len(ones))
            copies += np.bincount(kernels.mask_copy_counts(masks, r, p.zero_based),
                                  minlength=len(copies))
        ones_tally, copies_tally = _tally_pairs(ones), _tally_pairs(copies)
    else:
        ones_tally, copies_tally = Counter(), Counter()
        for planes in gathered:
            ones_tally.update(planes.sum(axis=(0, 1)).tolist())
            blk = planes.transpose(2, 1, 0)  # (B, rows, cols), a view
            copies_tally.update(kernels.matrix_copy_counts(blk, p.zero_based))
        ones_tally, copies_tally = ones_tally.items(), copies_tally.items()
    one_mean, one_se = rngutil.mean_and_se(ones_tally, max(1, r * r))
    pi_mean, pi_se = rngutil.mean_and_se(copies_tally, max(1, math.comb(r, len(p)) ** 2))
    return SamplingReport(
        r=r,
        trials=trials,
        seed=seed,
        one_mean=one_mean,
        pi_mean=pi_mean,
        one_se=one_se,
        pi_se=pi_se,
    )
