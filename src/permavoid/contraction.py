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
from operator import itemgetter

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


def _groups(n: int, p: int, q: int) -> tuple[int, ...]:
    """The 0-based group of each of n indices for b = p/q.

    1-based index i lands in group ceil(i / b), computed exactly as
    ceil(i * q / p) in integers.
    """
    return tuple(-((-i * q) // p) - 1 for i in range(1, n + 1))


@lru_cache(maxsize=256)
def _byte_plan(n: int, p: int, q: int):
    """How ``contract_b`` contracts a side n <= 8 for b = p/q, with row i
    of the source as byte i of one int: (side, merges, table, pick).

    Each (shift, mask) of ``merges`` ORs the rows ``shift // 8`` below a
    group's first row into it, masked to the groups that long, so the
    first byte of each group ends up holding the OR of its rows.
    ``table`` is a ``bytes.translate`` table that sends a row to the
    mask of the groups of its set columns, and ``pick`` gathers the
    groups' first bytes as a tuple of ints.
    """
    groups = _groups(n, p, q)
    starts = [i for i in range(n) if i == 0 or groups[i] != groups[i - 1]]
    sizes = [end - start for start, end in zip(starts, starts[1:] + [n])]
    merges = tuple((8 * t, sum(255 << 8 * start for start, size in zip(starts, sizes) if size > t))
                   for t in range(1, max(sizes, default=1)))
    table = bytearray(256)  # rows stay below 2^n; the other entries are never read
    for row in range(1, 1 << n):
        low = row & -row
        table[row] = table[row ^ low] | 1 << groups[low.bit_length() - 1]
    side = len(starts)
    pick = itemgetter(*starts) if side > 1 else lambda rows: tuple(rows[:side])
    return side, merges, bytes(table), pick


def contract_b(m: BinaryMatrix, b: "Fraction | int | str") -> BinaryMatrix:
    """OR over the groups induced by a rational contraction factor b >= 1.

    Source index i' lands in group ceil(i'/b); the result is
    ceil(n/b) x ceil(n/b).  b = 1 returns the matrix unchanged and
    b = 2 on an even side coincides with :func:`contract2`.  All group
    arithmetic is exact (no floating ceilings), which is what makes
    the monotonicity tests bit-exact.  A side of at most 8 merges its
    rows as the bytes of one int (``_byte_plan``); a larger side ORs
    the group of each set bit of a row into the row's group.

    >>> m = BinaryMatrix.from_rows([[1, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 1, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 1, 0],
    ...                             [0, 0, 0, 0, 0, 0, 0, 0, 1]])
    >>> contract_b(m, Fraction(3, 2)).row_lines()
    ['100000', '010000', '000000', '000000', '000000', '000001']
    """
    if type(b) is int:
        p, q = b, 1
    else:
        if type(b) is not Fraction:
            b = Fraction(b)
        p, q = b.numerator, b.denominator  # int keys hash faster than a Fraction
    if p < q:
        raise ValueError(f"contraction factor must be >= 1, got {b}")
    if m.rows != m.cols:
        raise DimensionMismatchError(f"need a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n <= 8:
        side, merges, table, pick = _byte_plan(n, p, q)
        rows = int.from_bytes(bytes(m.row_bits), "little")  # row i is byte i
        merged = rows
        for shift, mask in merges:
            merged |= (rows >> shift) & mask
        return BinaryMatrix._trusted(side, side,
                                     pick(merged.to_bytes(n, "little").translate(table)))
    groups = _groups(n, p, q)
    side = groups[-1] + 1
    bits = [0] * side
    for g, row in zip(groups, m.row_bits):
        while row:
            low = row & -row
            bits[g] |= 1 << groups[low.bit_length() - 1]
            row ^= low
    return BinaryMatrix._trusted(side, side, tuple(bits))


def preimage_count_contract2(m_prime: BinaryMatrix) -> int:
    """Number of matrices whose 2-contraction is ``m_prime``.

    Blocks are independent: a 0 forces an all-zero 2x2 block, a 1
    leaves the 15 nonzero fillings, so the count is 15**ones exactly.

    >>> preimage_count_contract2(BinaryMatrix.from_rows([[1]]))
    15
    """
    return 15 ** m_prime.ones
