"""Extremal searches and constructions for matrix pattern copies.

Four small instruments around the same question — how many 1s force
how many pattern copies:

  * ``max_ones_avoiding``: the exact extremal function ex(n, P) (most
    ones in an n x n matrix with zero copies), by one dynamic program
    over rows, with two choices of witness;
  * ``min_copies_brute``: the exact supersaturation floor (fewest
    copies over all matrices with a prescribed number of ones);
  * ``extremal_block_diagonal``: the diagonal-blocks construction
    showing the floor is tight up to constants;
  * the S_{n,a} block-permutation family, whose members provably carry
    few pattern copies, with an exhaustive budget verifier.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from . import kernels, rngutil
from .config import check_limit
from .errors import CapExceededError
from .matrices import BinaryMatrix
from .perms import PermLike, Permutation, as_permutation, copy_count_distribution

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MaxOnesReport:
    """Exact maximum ones among avoiding matrices.  The search's
    ``method`` keeps its old label "branch-and-bound" so that its
    output stays byte-identical."""

    n: int
    pattern: Permutation
    max_ones: int
    ratio: Fraction  # max_ones / n, the desk-scale extremal-constant estimate
    witness: BinaryMatrix
    method: str


def max_ones_avoiding(
    n: int,
    pi: PermLike,
    method: str = "exhaustive",
) -> MaxOnesReport:
    """Maximum number of ones in an n x n 0-1 matrix with no copy of
    the pattern matrix of pi.

    Both methods run one exact dynamic program over rows and differ in
    the optimum they report.  ``method="exhaustive"`` is gated by the
    matrix cap; its witness is the optimum of least mask value (cell
    (i, j) is bit i*n + j).  ``method="search"`` is gated by the
    enumeration cap; its witness is the lex-greatest optimum in
    row-major cell order.  Both are gated by the cost ceiling, charged
    2^n plus the state's bytes per state of the program.

    >>> max_ones_avoiding(2, (1, 2)).max_ones
    3
    """
    p = as_permutation(pi)
    if len(p) == 0:
        raise ValueError("every matrix contains the empty pattern")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if method == "exhaustive":
        check_limit("matrix_cap", n)
        # Flipping the rows maps copies of pi to copies of pi reversed, and
        # the least mask value has its last row most significant: on the
        # flipped matrix it is the first optimum in ascending row order.
        witness = _max_ones_row_transfer(
            n, p.zero_based[::-1], range(1 << n)).flip_rows()
    elif method == "search":
        check_limit("enum_cap", n)
        # Column 0 most significant, 1 before 0.
        order = sorted(range(1 << n), key=lambda m: format(m, f"0{n}b")[::-1],
                       reverse=True)
        witness = _max_ones_row_transfer(n, p.zero_based, order)
    else:
        raise ValueError(f"unknown method {method!r}")
    return MaxOnesReport(
        n=n,
        pattern=p,
        max_ones=witness.ones,
        ratio=Fraction(witness.ones, n),
        witness=witness,
        method="exhaustive" if method == "exhaustive" else "branch-and-bound",
    )


def _max_ones_row_transfer(n: int, pi0: tuple[int, ...], order) -> BinaryMatrix:
    """Dynamic program over rows for the most ones with no copy of pi0.

    A matrix row serves at most one pattern row, so rows 0..i-1 pass on
    only the partial embeddings they realise: columns order-isomorphic
    to pi0[:t], t < k, each numbered e = (t << n) | column set.  A state
    S is the bitset of those numbers, and ``best(i, S)`` the most ones
    rows i.. can add to it without completing an embedding.

    A state keeps only its undominated embeddings.  With sorted columns
    u_0 < ... < u_{t-1}, u_{-1} = -1 and u_t = n, a later pattern row s
    lands in gap g = #{r < t : pi0[r] < pi0[s]}, between u_{g-1} and
    u_g.  An embedding U' with the same t dominates U when each of these
    needed gaps of U' contains that of U, ties going to the smaller
    number.  Every completion of U then completes U', and dominance is
    a strict partial order, so each dropped embedding has an undominated
    dominator in the state.  The row sequences a state forbids, its kill
    set among them, are therefore unchanged, and ``best()`` depends on
    nothing else: its values, and with them the witness, stay the same,
    and only fewer states are met.  A child drops every embedding that
    one of its own dominates: those its parent's embeddings dominate
    and, per column of the row mask, those the embeddings added through
    that column dominate.  Each new state is charged 2^n, the masks it
    scans, plus its bitset's size in bytes against the cost ceiling.

    The witness takes, row by row, the first optimal mask in ``order``,
    a sequence of all 2^n row masks.  Masks of equal ones are tried in
    that order too, so the states met and charged depend on it.
    """
    k, unit = len(pi0), 1 << n
    by_ones = [(m, m.bit_count()) for m in sorted(order, key=int.bit_count, reverse=True)]
    columns = [[j for j in range(n) if m >> j & 1] for m in range(unit)]
    rank = [sum(v < pi0[t] for v in pi0[:t]) for t in range(k)]
    gaps = [sorted({sum(v < pi0[s] for v in pi0[:t]) for s in range(t, k)}) for t in range(k)]
    allowed: dict[int, int] = {}  # embedding -> the columns that extend it
    keys: dict[int, list] = {}  # t -> (embedding, needed-gap bounds) for every t columns
    beaten: dict[int, int] = {}  # embedding -> the embeddings it dominates
    memo: list[dict[int, int]] = [{} for _ in range(n)]
    spent = 0

    def needed(t, cols):
        edge = (-1, *cols, n)
        return [b for g in gaps[t] for b in (-edge[g], edge[g + 1])]

    def dominates(e):
        if e not in beaten:
            t, used = divmod(e, unit)
            if t not in keys:
                keys[t] = [(sum(1 << j for j in cols) | t << n, needed(t, cols))
                           for cols in combinations(range(n), t)]
            own, mask = needed(t, columns[used]), 0
            for f, key in keys[t]:
                if all(map(operator.ge, own, key)) and (own != key or e < f):
                    mask |= 1 << f
            beaten[e] = mask
        return beaten[e]

    def expand(state):
        # The columns completing a copy, the embeddings the state
        # dominates, and per column j the embeddings j adds and those
        # they dominate.
        kill, below, adds, drops = 0, 0, [0] * n, [0] * n
        while state:
            e = (state & -state).bit_length() - 1
            state &= state - 1
            if e not in allowed:
                t, used = divmod(e, unit)
                cols = columns[used]
                lo = cols[rank[t] - 1] if rank[t] else -1
                hi = cols[rank[t]] if rank[t] < t else n
                allowed[e] = (1 << hi) - (1 << (lo + 1))
            below |= dominates(e)
            if e >> n == k - 1:
                kill |= allowed[e]
            else:
                for j in columns[allowed[e]]:
                    child = e + unit + (1 << j)
                    adds[j] |= 1 << child
                    drops[j] |= dominates(child)
        return kill, (below, adds, drops)

    def step(state, grow, mask):
        below, adds, drops = grow
        for j in columns[mask]:
            state |= adds[j]
            below |= drops[j]
        return state & ~below

    def best(i, state):
        nonlocal spent
        if i == n:
            return 0
        if state not in memo[i]:
            spent += unit + (state.bit_length() + 7) // 8
            check_limit("cost_ceiling", spent)
            kill, grow = expand(state)
            rest, top = n * (n - 1 - i), -1
            for m, ones in by_ones:
                if ones + rest <= top:
                    break
                if not m & kill:
                    top = max(top, ones + best(i + 1, step(state, grow, m)))
            memo[i][state] = top
        return memo[i][state]

    state, rows = 1, []
    for i in range(n):
        target = best(i, state)
        kill, grow = expand(state)
        for m in order:
            if not m & kill and m.bit_count() + n * (n - 1 - i) >= target:
                nxt = step(state, grow, m)
                if m.bit_count() + best(i + 1, nxt) == target:
                    break
        rows.append(m)
        state = nxt
    return BinaryMatrix(n, n, tuple(rows))


@dataclass(frozen=True)
class MinCopiesReport:
    """Exact minimum copy count over matrices with a fixed ones count."""

    n: int
    a: int
    pattern: Permutation
    min_copies: int
    witness: BinaryMatrix
    reference_bound: Fraction  # reference_bound(n, a, k), for comparison only
    method: str


def reference_bound(n: int, a: int, k: int) -> Fraction:
    """a^(2k-1) / n^(2k-2), the copy count that a matrix with a ones is
    compared with for a pattern of length k >= 1; 0 when k = 0."""
    return Fraction(a ** (2 * k - 1), n ** (2 * k - 2)) if k >= 1 else Fraction(0)


def min_copies_brute(n: int, a: int, pi: PermLike) -> MinCopiesReport:
    """Exact minimum of the copy count over all n x n matrices with
    exactly ``a`` ones, by enumerating the C(n*n, a) supports.

    Gated by the matrix cap, then by the subset ceiling charged the
    C(n*n, a) supports, before any allocation; a count of 2^63 or more
    is refused the same way, so the int64 ranks of ``_support_blocks``
    never wrap.  Each of its blocks is counted by
    ``kernels.matrix_copy_counts``, and the search stops after the
    first block that holds a support with no copy.  The witness is the
    lexicographically first minimizing support.
    """
    p = as_permutation(pi)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= a <= n * n:
        raise ValueError(f"ones count {a} outside 0..{n * n}")
    check_limit("matrix_cap", n)
    total = math.comb(n * n, a)
    check_limit("subset_ceiling", total)
    if total > _INT64_MAX:
        raise CapExceededError("int64_rank", _INT64_MAX, total,
                               "min-copies ranks its supports in int64, and no limit lifts that")
    best = None
    m = n * n
    for cells in _support_blocks(m, a):
        size = len(cells)
        blk = np.zeros((size, m), np.uint8)
        blk.reshape(-1)[(cells + np.arange(0, size * m, m)[:, None]).ravel()] = 1
        copies = kernels.matrix_copy_counts(blk.reshape(size, n, n), p.zero_based)
        low = min(copies)
        if best is None or low < best:
            best, witness = low, cells[copies.index(low)].tolist()
        if best == 0:
            break  # the global minimum; keep the first witness
    rows = [0] * n
    for cell in witness:
        rows[cell // n] |= 1 << (cell % n)
    return MinCopiesReport(
        n=n,
        a=a,
        pattern=p,
        min_copies=best,
        witness=BinaryMatrix(n, n, tuple(rows)),
        reference_bound=reference_bound(n, a, len(p)),
        method="exhaustive",
    )


def _support_blocks(m: int, a: int) -> Iterator[np.ndarray]:
    """The rows of ``itertools.combinations(range(m), a)`` in order, as
    (B, a) intp blocks with B <= ``rngutil.BLOCK``, for C(m, a) < 2^63.

    Each block is lex-unranked from its int64 ranks.  The lex rank of
    c_0 < ... < c_{a-1} is C(m, a) - 1 - sum_j C(m - 1 - c_j, a - j),
    so d_j = m - 1 - c_j is the largest d with C(d, a - j) at most what
    is left of C(m, a) - 1 - rank: one ``searchsorted`` per position
    over a cumulative binomial table, for the whole block at once.
    Table entries past int64 are clipped; no rank reaches them.
    """
    total = math.comb(m, a)
    tables = _rank_tables(m, a)
    for start in range(0, total, rngutil.BLOCK):
        left = total - 1 - np.arange(start, min(start + rngutil.BLOCK, total))
        cells = np.empty((len(left), a), np.intp)
        for j, table in enumerate(tables):
            d = np.searchsorted(table, left, side="right") - 1
            left -= table[d]
            cells[:, j] = m - 1 - d
        yield cells


@functools.lru_cache(maxsize=16)
def _rank_tables(m: int, a: int) -> np.ndarray:
    """The binomial tables of ``_support_blocks`` as a read-only (a, m)
    int64 array: row j holds C(d, a - j) for d in range(m), clipped to
    int64.  Each is a * m * 8 bytes: at most 2 KB under the default
    matrix cap of 4 (m = 16), so the cache holds at most 32 KB there."""
    tables = np.array([[min(math.comb(d, a - j), _INT64_MAX) for d in range(m)]
                       for j in range(a)], np.int64).reshape(a, m)
    tables.flags.writeable = False  # shared by every caller through the cache
    return tables


def extremal_block_diagonal(n: int, a: int) -> BinaryMatrix:
    """The diagonal-blocks matrix: n/(a/n) all-ones blocks of side a/n
    along the diagonal, a ones in total.

    Requires n | a and a | n^2 so the blocks tile; callers wanting
    other (n, a) adjust them by a constant factor first.  Its n^2 cells
    are charged against the subset ceiling before it is built.

    >>> extremal_block_diagonal(4, 8).row_lines()
    ['1100', '1100', '0011', '0011']
    """
    if n < 1 or a < 1:
        raise ValueError(f"need n, a >= 1, got n={n}, a={a}")
    if a % n:
        raise ValueError(f"n={n} must divide a={a} (block side a/n)")
    if (n * n) % a:
        raise ValueError(f"a={a} must divide n^2={n * n} (whole number of blocks)")
    check_limit("subset_ceiling", n * n)
    side = a // n
    block = (1 << side) - 1
    bits = tuple(block << (side * (i // side)) for i in range(n))
    return BinaryMatrix(n, n, bits)


def _divmod(rank: np.ndarray, radix: int):
    """np.divmod(rank, radix) for int64 ranks; a radix past int64 leaves
    every rank whole, as the largest int64 divisor does."""
    return np.divmod(rank, min(radix, _INT64_MAX))


def _lex_unrank(rank: np.ndarray, m: int, dtype) -> np.ndarray:
    """Row i: the permutation of range(m) of lex rank rank[i], built
    from the factorial-base digits of the rank."""
    left = np.tile(np.arange(m, dtype=dtype), (len(rank), 1))  # unplaced values, ascending
    out = np.empty((len(rank), m), dtype)
    for i in range(m):
        digit, rank = _divmod(rank, math.factorial(m - 1 - i))
        out[:, i] = np.take_along_axis(left, digit[:, None], axis=1)[:, 0]
        left = left[np.arange(m - i) != digit[:, None]].reshape(len(rank), m - 1 - i)
    return out


@dataclass(frozen=True)
class SnaFamily:
    """The block permutations: positions split into q runs of length a
    plus a remainder of length r (n = q*a + r), each run permuting its
    own value range.

    The family has exactly (a!)^q * r! members.  Values in distinct
    runs only increase left to right, so an occurrence of a pattern
    whose first value exceeds its last can never straddle runs — it is
    trapped inside one, which is what keeps those copy counts low.
    """

    n: int
    a: int
    q: int
    r: int
    size: int

    def member_blocks(self) -> Iterator[np.ndarray]:
        """All members in lexicographic order, as (B, n) blocks of
        0-based values (uint8 up to n = 255) with B <= ``rngutil.BLOCK``,
        gated by the enumeration cap.  Member number t is read off the
        mixed-radix digits of t, one lex rank per run, the last run
        fastest."""
        check_limit("enum_cap", self.n)
        runs = [range(j * self.a + 1, (j + 1) * self.a + 1) for j in range(self.q)]
        if self.r:
            runs.append(range(self.q * self.a + 1, self.n + 1))
        dtype = np.min_scalar_type(self.n)  # holds the 1-based values too
        for start in range(0, self.size, rngutil.BLOCK):
            rank = np.arange(start, min(start + rngutil.BLOCK, self.size))
            parts = []
            for run in reversed(runs):
                rank, digit = _divmod(rank, math.factorial(len(run)))
                parts.append(_lex_unrank(digit, len(run), dtype) + (run.start - 1))
            yield np.concatenate(parts[::-1], axis=1)

    def members(self) -> Iterator[Permutation]:
        """All members in lexicographic order (gated by the enumeration cap)."""
        for blk in self.member_blocks():
            for values in (blk + 1).tolist():
                yield Permutation(tuple(values))


def sna_family(n: int, a: int) -> SnaFamily:
    """Descriptor for the block-permutation family with run length a.

    >>> sna_family(5, 2).size
    4
    """
    if not 1 <= a <= n:
        raise ValueError(f"need 1 <= a <= n, got a={a}, n={n}")
    q, r = divmod(n, a)
    size = math.factorial(a) ** q * math.factorial(r)
    return SnaFamily(n=n, a=a, q=q, r=r, size=size)


def sna_copy_budget(n: int, a: int, k: int) -> int:
    """The per-member copy budget q*C(a,k) + C(r,k).

    Each occurrence of a length-k pattern in a family member uses k
    positions of a single run, so the runs contribute at most C(a,k)
    copies each and the remainder at most C(r,k).
    """
    if not 1 <= a <= n:
        raise ValueError(f"need 1 <= a <= n, got a={a}, n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    q, r = divmod(n, a)
    return q * math.comb(a, k) + math.comb(r, k)


@dataclass(frozen=True)
class SnaBudgetReport:
    """Exhaustive check of the family's copy budget for one pattern."""

    n: int
    a: int
    pattern: Permutation
    budget: int
    linear_cap: int  # n * a^(k-1), the coarser closed form
    family_size: int
    max_observed: int
    within_budget: bool


def verify_sna_budget(n: int, a: int, pi: PermLike) -> SnaBudgetReport:
    """Stream every family member, in blocks of ``member_blocks``, and
    measure its copy count of pi with ``kernels.row_occurrence_counts``.

    Requires pi(1) > pi(k): a pattern starting below its end could
    straddle two runs, and the budget argument breaks.  For the other
    patterns, verify pi.reverse() instead — reversing a permutation
    flips the rows of its matrix, a bijection that carries copies of
    pi to copies of pi.reverse() (see BinaryMatrix.flip_rows), so the
    same budget holds.
    """
    p = as_permutation(pi)
    k = len(p)
    if k < 2 or p.values[0] <= p.values[-1]:
        raise ValueError(
            "budget verification needs pi(1) > pi(k); "
            "verify pi.reverse() instead (same budget by the row-flip bijection)"
        )
    family = sna_family(n, a)
    budget = sna_copy_budget(n, a, k)
    linear_cap = n * a ** (k - 1)
    pi0 = p.zero_based
    max_observed = 0
    checked = 0
    for blk in family.member_blocks():
        max_observed = max(max_observed, int(kernels.row_occurrence_counts(blk, pi0).max()))
        checked += len(blk)
    if checked != family.size:
        raise RuntimeError(
            f"streamed {checked} members, expected {family.size}"
        )
    return SnaBudgetReport(
        n=n,
        a=a,
        pattern=p,
        budget=budget,
        linear_cap=linear_cap,
        family_size=family.size,
        max_observed=max_observed,
        within_budget=max_observed <= budget <= linear_cap,
    )


def count_snm(n: int, m: int, pi: PermLike) -> int:
    """Number of permutations in S_n with at most m copies of pi
    (a prefix sum of the copy-count distribution).

    >>> count_snm(3, 1, (1, 2))
    3
    """
    dist = copy_count_distribution(n, pi)
    return dist.prefix_count(m)
