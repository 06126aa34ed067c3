"""Block contraction of 0-1 matrices.

Contracting collapses aligned blocks to single entries by OR: the
result has a 1 wherever its block holds any 1.  The payoff is the
monotonicity used throughout the counting arguments — a contraction
never has more pattern copies than its source — together with exact
preimage counting for the 2-contraction (each 1 of the contracted
matrix leaves 15 choices for its 2x2 block, each 0 forces zeros).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatchError
from .matrices import BinaryMatrix


def contract2(m: BinaryMatrix) -> BinaryMatrix:
    """OR each aligned 2x2 block down to one entry.

    Requires a square matrix of even side (the blocks must tile it).

    >>> contract2(BinaryMatrix.from_rows([[1, 0], [0, 0]])).to_lists()
    [[1]]
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"need a square matrix, got {m.rows}x{m.cols}")
    if m.rows % 2:
        raise DimensionMismatchError(f"need an even side for 2x2 blocks, got {m.rows}")
    return contract_b(m, 2)


@lru_cache(maxsize=256)
def _group_map(n: int, b: Fraction) -> tuple[int, ...]:
    """0-based group of each 0-based row/column index below n: 1-based
    index i lands in group ceil(i / b), computed exactly as
    ceil(i * q / p) in integers."""
    return tuple(-((-i * b.denominator) // b.numerator) - 1 for i in range(1, n + 1))


def contract_b(m: BinaryMatrix, b: "Fraction | int | str") -> BinaryMatrix:
    """OR over the groups induced by a rational contraction factor b >= 1.

    Source index i' lands in group ceil(i'/b); the result is
    ceil(n/b) x ceil(n/b).  b = 1 returns the matrix unchanged and
    b = 2 on an even side coincides with :func:`contract2`.  All group
    arithmetic is exact (no floating ceilings), which is what makes
    the monotonicity tests bit-exact.
    """
    b = Fraction(b)
    if b < 1:
        raise ValueError(f"contraction factor must be >= 1, got {b}")
    if m.rows != m.cols:
        raise DimensionMismatchError(f"need a square matrix, got {m.rows}x{m.cols}")
    groups = _group_map(m.rows, b)
    merged = [0] * (groups[-1] + 1 if groups else 0)
    for g, src in zip(groups, m.row_bits):
        merged[g] |= src
    bits = []
    for row in merged:
        mask = 0
        while row:
            low = row & -row
            mask |= 1 << groups[low.bit_length() - 1]
            row ^= low
        bits.append(mask)
    side = len(bits)
    return BinaryMatrix(side, side, tuple(bits))


def preimage_count_contract2(m_prime: BinaryMatrix) -> int:
    """Number of matrices whose 2-contraction is ``m_prime``.

    Blocks are independent: a 0 forces an all-zero 2x2 block, a 1
    leaves the 15 nonzero fillings, so the count is 15**ones exactly.

    >>> preimage_count_contract2(BinaryMatrix.from_rows([[1]]))
    15
    """
    return 15 ** m_prime.ones
