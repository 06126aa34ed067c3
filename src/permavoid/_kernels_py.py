"""Pure-Python kernels: the reference twin of permavoid._speedups.

Every public function here but ``enumerate_occurrences`` and the two
block kernels has an identical-signature compiled counterpart;
``permavoid.kernels`` picks whichever is importable.  Keep the two in
lockstep — tests/test_kernels.py asserts they agree on randomized
inputs.

The two full S_n passes (``copy_count_histogram``, ``count_avoiders``)
are numpy sweeps over lexicographic blocks of up to 7! permutations.
The block kernels (``occurrence_counts``, ``matrix_copy_counts``)
count a whole block of Monte-Carlo samples per call, on either
backend.  The kernels that look at one permutation or one matrix are
plain Python.

Conventions shared by both backends:

  * permutations and patterns arrive as 0-based value tuples;
  * hypergraph edges arrive as sorted tuples of 0-based indices;
  * matrices arrive as per-row column bitmasks (bit j = column j);
  * full S_n passes run in lexicographic one-line order.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations as _lex_permutations

import numpy as np

BACKEND = "python"


def _value_order(pi: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of the pattern sorted by value: order[t] = pi^{-1}(t).

    A k-subset of positions x_0 < ... < x_{k-1} carries the pattern iff
    reading sigma at x[order[0]], x[order[1]], ... gives a strictly
    increasing value sequence.
    """
    order = [0] * len(pi)
    for i, v in enumerate(pi):
        order[v] = i
    return tuple(order)


def contains(sigma: tuple[int, ...], pi: tuple[int, ...]) -> bool:
    """True iff some index subsequence of sigma is order-isomorphic to pi."""
    n, k = len(sigma), len(pi)
    if k == 0:
        return True
    if k > n:
        return False
    vals = [0] * k

    def extend(depth: int, start: int) -> bool:
        for x in range(start, n - (k - depth) + 1):
            v = sigma[x]
            ok = True
            for t in range(depth):
                if (pi[t] < pi[depth]) != (vals[t] < v):
                    ok = False
                    break
            if ok:
                if depth == k - 1:
                    return True
                vals[depth] = v
                if extend(depth + 1, x + 1):
                    return True
        return False

    return extend(0, 0)


def count_occurrences(sigma: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """Exact number of index subsequences of sigma order-isomorphic to pi."""
    n, k = len(sigma), len(pi)
    if k == 0:
        return 1
    if k > n:
        return 0
    vals = [0] * k
    count = 0

    def extend(depth: int, start: int) -> None:
        nonlocal count
        for x in range(start, n - (k - depth) + 1):
            v = sigma[x]
            ok = True
            for t in range(depth):
                if (pi[t] < pi[depth]) != (vals[t] < v):
                    ok = False
                    break
            if ok:
                if depth == k - 1:
                    count += 1
                else:
                    vals[depth] = v
                    extend(depth + 1, x + 1)

    extend(0, 0)
    return count


def enumerate_occurrences(
    sigma: tuple[int, ...], pi: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All occurrences as 0-based index tuples, lexicographic order."""
    n, k = len(sigma), len(pi)
    if k == 0:
        return [()]
    if k > n:
        return []
    vals = [0] * k
    idx = [0] * k
    out: list[tuple[int, ...]] = []

    def extend(depth: int, start: int) -> None:
        for x in range(start, n - (k - depth) + 1):
            v = sigma[x]
            ok = True
            for t in range(depth):
                if (pi[t] < pi[depth]) != (vals[t] < v):
                    ok = False
                    break
            if ok:
                idx[depth] = x
                if depth == k - 1:
                    out.append(tuple(idx))
                else:
                    vals[depth] = v
                    extend(depth + 1, x + 1)

    extend(0, 0)
    return out


@lru_cache(maxsize=None)
def _lex_table(t: int) -> np.ndarray:
    """S_t in lexicographic order as a (t, t!) uint8 array: column j is
    the j-th permutation, so each position is one row."""
    size = math.factorial(t)
    flat = chain.from_iterable(_lex_permutations(range(t)))
    return np.fromiter(flat, np.uint8, size * t).reshape(size, t).T


def _lex_blocks(n: int):
    """Yield S_n in lexicographic order as (n, B) uint8 blocks: each
    (n - t)-value prefix, in lex order, above the lex table of the t
    values it leaves, with t = min(n, 7)."""
    t = min(n, 7)  # at most 7! = 5040 permutations per block
    tail = _lex_table(t)
    for prefix in _lex_permutations(range(n), n - t):
        blk = np.empty((n, tail.shape[1]), np.uint8)
        blk[:n - t] = np.array(prefix, np.uint8).reshape(-1, 1)
        blk[n - t:] = np.array(sorted(set(range(n)).difference(prefix)), np.uint8)[tail]
        yield blk


def _carriers(blk: np.ndarray, index_sets, order: tuple[int, ...]):
    """Yield, for each index set e, the mask of the block's permutations
    whose values at e[order[0]], e[order[1]], ... increase, i.e. those
    that carry the pattern on e."""
    for e in index_sets:
        rows = [blk[e[t]] for t in order]
        if len(rows) < 2:
            yield np.ones(blk.shape[1], bool)
            continue
        mask = rows[0] < rows[1]
        for a, b in zip(rows[1:], rows[2:]):
            mask &= a < b
        yield mask


def occurrence_counts(blk: np.ndarray, pi: tuple[int, ...]) -> dict[int, int]:
    """{c: #rows with exactly c occurrences of pi} over a (B, n) block
    of permutations, one per row; counts no row has are left out."""
    n = blk.shape[1]
    k = len(pi)
    count = np.zeros(len(blk), np.min_scalar_type(math.comb(n, k)))  # C(n,k) bounds it
    positions = np.ascontiguousarray(blk.T)  # one row per position
    for mask in _carriers(positions, combinations(range(n), k), _value_order(pi)):
        count += mask
    return {c: rows for c, rows in enumerate(np.bincount(count).tolist()) if rows}


def copy_count_histogram(n: int, pi: tuple[int, ...]) -> dict[int, int]:
    """Histogram {c: #sigma in S_n with exactly c occurrences of pi}."""
    hist = Counter()
    for blk in _lex_blocks(n):
        hist.update(occurrence_counts(blk.T, pi))
    return hist


def _edge_is_hit(sigma, edge, order) -> bool:
    prev = -1
    for t in order:
        v = sigma[edge[t]]
        if v <= prev:
            return False
        prev = v
    return True


def hits_edge(sigma, pi, edges) -> bool:
    """True iff some edge's index set carries the pattern (k >= 1)."""
    order = _value_order(pi)
    for edge in edges:
        if _edge_is_hit(sigma, edge, order):
            return True
    return False


def count_edge_hits(sigma, pi, edges) -> int:
    """Number of edges whose index set carries the pattern (k >= 1)."""
    order = _value_order(pi)
    return sum(1 for edge in edges if _edge_is_hit(sigma, edge, order))


def count_avoiders(
    n: int,
    pi: tuple[int, ...],
    edges: tuple[tuple[int, ...], ...] | None,
    collect: bool = False,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Count sigma in S_n with no pattern occurrence on an edge.

    ``edges=None`` means the complete hypergraph, i.e. classical
    avoidance.  Returns (count, avoiders or None); avoiders are 0-based
    value tuples in lexicographic order.
    """
    order = _value_order(pi)
    count = 0
    out: list[tuple[int, ...]] | None = [] if collect else None
    for blk in _lex_blocks(n):
        hit = np.zeros(blk.shape[1], bool)
        index_sets = combinations(range(n), len(pi)) if edges is None else edges
        for mask in _carriers(blk, index_sets, order):
            hit |= mask
        free = ~hit
        count += int(np.count_nonzero(free))
        if collect:
            out.extend(map(tuple, blk[:, free].T.tolist()))
    return count, out


def count_matrix_copies(
    row_bits: tuple[int, ...], ncols: int, pi: tuple[int, ...]
) -> int:
    """Copies of the pattern's permutation matrix inside a 0-1 matrix.

    A copy is a pair (row k-subset, column k-subset) whose induced
    positions hold a 1 wherever the pattern matrix does.  Per row
    subset, the column subsets are counted by a prefix-sum sweep over
    columns instead of enumerating them one by one.
    """
    k = len(pi)
    if k == 0:
        return 1
    rows = [b for b in row_bits if b]  # all-zero rows can never host a 1
    if k > len(rows) or k > ncols:
        return 0
    order = _value_order(pi)
    nrows = len(rows)
    sel = [0] * k
    total = 0

    def count_columns() -> int:
        t0 = sel[order[0]]
        f = [(t0 >> c) & 1 for c in range(ncols)]
        for j in range(1, k):
            tj = sel[order[j]]
            g = [0] * ncols
            run = 0
            for c in range(ncols):
                if (tj >> c) & 1:
                    g[c] = run
                run += f[c]
            f = g
        return sum(f)

    def rec(depth: int, start: int) -> None:
        nonlocal total
        for x in range(start, nrows - (k - depth) + 1):
            sel[depth] = rows[x]
            if depth == k - 1:
                total += count_columns()
            else:
                rec(depth + 1, x + 1)

    rec(0, 0)
    return total


def matrix_copy_counts(blk: np.ndarray, pi: tuple[int, ...]) -> list[int]:
    """Copies of the pattern's permutation matrix in each 0-1 matrix of
    a (B, rows, cols) uint8 block: the column sweep of
    ``count_matrix_copies``, run on every matrix of the block at once."""
    size, nrows, ncols = blk.shape
    k = len(pi)
    if k == 0:
        return [1] * size
    if k > nrows or k > ncols:
        return [0] * size
    order = _value_order(pi)
    # A partial sweep counts chains of at most k columns, so it is at
    # most C(cols, min(k, cols // 2)); each of the C(rows, k) row
    # subsets adds at most C(cols, k).
    dtype = np.min_scalar_type(math.comb(nrows, k) * math.comb(ncols, min(k, ncols // 2)))
    total = np.zeros(size, dtype)
    for sel in combinations(range(nrows), k):
        f = blk[:, sel[order[0]]].astype(dtype)
        for j in range(1, k):
            g = np.zeros_like(f)  # g[c]: chains ending left of column c, where row j has a 1
            np.cumsum(f[:, :-1], axis=1, dtype=dtype, out=g[:, 1:])
            g *= blk[:, sel[order[j]]]
            f = g
        total += f.sum(axis=1, dtype=dtype)
    return total.tolist()


def matrix_contains_perm(
    row_bits: tuple[int, ...], ncols: int, pi: tuple[int, ...]
) -> bool:
    """True iff the matrix contains the pattern's permutation matrix.

    Per row k-subset, ``reach`` holds the columns where an increasing
    chain through the rows in value order can end, as in the compiled
    twin; Python ints make it exact at any width.
    """
    k = len(pi)
    if k == 0:
        return True
    rows = [b for b in row_bits if b]
    if k > len(rows) or k > ncols:
        return False
    order = _value_order(pi)
    nrows = len(rows)
    sel = [0] * k

    def rec(depth: int, start: int) -> bool:
        for x in range(start, nrows - (k - depth) + 1):
            sel[depth] = rows[x]
            if depth == k - 1:
                reach = sel[order[0]]
                for j in range(1, k):
                    if not reach:
                        break
                    # ~(reach ^ (reach - 1)): every bit above the lowest set one
                    reach = sel[order[j]] & ~(reach ^ (reach - 1))
                if reach:
                    return True
            elif rec(depth + 1, x + 1):
                return True
        return False

    return rec(0, 0)
