"""Reference values computed apart from permavoid.

Nothing here imports the package under test.  Each value comes from a
closed form or from brute force written for this file alone, so a fault
in permavoid cannot hide behind a helper the check shares with it.
Permutations and patterns are 0-based value tuples; matrices are lists
of 0/1 lists.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def mahonian(n: int) -> list[int]:
    """Coefficients of prod_{i=1..n} (1 + q + ... + q^(i-1)): the
    number of permutations of n with c inversions, for each c."""
    coeffs = [1]
    for i in range(1, n + 1):
        out = [0] * (len(coeffs) + i - 1)
        for c, v in enumerate(coeffs):
            for j in range(i):
                out[c + j] += v
        coeffs = out
    return coeffs


def q_factorial(n: int, beta: Fraction) -> Fraction:
    """prod_{i=1..n} [i]_beta with [i]_beta = 1 + beta + ... + beta^(i-1).

    This is sum over S_n of beta^(inversions), the expected number of
    avoiders of 21 when each pair is an edge with probability 1 - beta.
    """
    total = Fraction(1)
    for i in range(1, n + 1):
        total *= sum(beta**j for j in range(i))
    return total


def pattern_type(values) -> tuple[int, ...]:
    """The 0-based pattern that a sequence of distinct values forms."""
    ranked = sorted(values)
    return tuple(ranked.index(v) for v in values)


def occurrences(sigma, pi) -> int:
    """Copies of pi in sigma, by testing every index k-subset."""
    pi = tuple(pi)
    return sum(
        1
        for idx in combinations(range(len(sigma)), len(pi))
        if pattern_type([sigma[i] for i in idx]) == pi
    )


def copy_histogram(n: int, pi) -> Counter:
    """{c: permutations of n with exactly c copies of pi}, by brute force."""
    return Counter(occurrences(s, pi) for s in permutations(range(n)))


def first_hit_histogram(n: int, pi, ranked_edges) -> Counter:
    """For each sigma in S_n, the index of the first 3-edge (in the given
    order) whose positions carry the length-3 pattern pi, or
    len(ranked_edges) if none does.

    The sigma avoiding pi over the first m edges are those whose first
    hit is at index m or later, so one pass serves a nested family.
    """
    inv = [0] * 3
    for pos, val in enumerate(pi):
        inv[val] = pos
    # Positions of an edge read in increasing pattern value: pi sits on
    # the edge exactly when sigma increases along them.
    reads = [tuple(edge[p] for p in inv) for edge in ranked_edges]
    miss = len(reads)
    hist: Counter = Counter()
    for s in permutations(range(n)):
        first = miss
        for t, (a, b, c) in enumerate(reads):
            if s[a] < s[b] < s[c]:
                first = t
                break
        hist[first] += 1
    return hist


def inversion_masks(n: int) -> list[int]:
    """Each permutation of n as a bitmask over the C(n,2) position pairs
    that form inversions (occurrences of 21)."""
    pairs = list(combinations(range(n), 2))
    masks = []
    for s in permutations(range(n)):
        m = 0
        for b, (i, j) in enumerate(pairs):
            if s[i] > s[j]:
                m |= 1 << b
        masks.append(m)
    return masks


def lambda_estimator_moments(n: int, alpha: Fraction) -> tuple[Fraction, Fraction]:
    """Mean and variance of the number of 21-avoiders over a random
    2-graph on n vertices keeping each pair with probability alpha.

    sigma avoids 21 over the graph when none of its inversion pairs is
    an edge, so E[X^2] = sum over (sigma, tau) of beta^|I(sigma) u I(tau)|.
    """
    beta = 1 - alpha
    masks = inversion_masks(n)
    top = math.comb(n, 2)
    powers = [beta**c for c in range(top + 1)]
    mean = sum(powers[m.bit_count()] for m in masks)
    pair_counts: Counter = Counter()
    for a in masks:
        for b in masks:
            pair_counts[(a | b).bit_count()] += 1
    second = sum(ways * powers[c] for c, ways in pair_counts.items())
    return mean, second - mean * mean


def sigma_estimator_moments(
    n: int, hist: "dict[int, int]", alpha: Fraction
) -> tuple[Fraction, Fraction]:
    """Mean and variance of n! * beta^(copies) for a uniform sigma,
    given the copy-count histogram of S_n."""
    beta = 1 - alpha
    nfact = math.factorial(n)
    mean = sum(Fraction(w, nfact) * beta**c for c, w in hist.items())
    second = sum(Fraction(w, nfact) * beta ** (2 * c) for c, w in hist.items())
    return nfact * mean, nfact * nfact * (second - mean * mean)


def matrix_copies(grid, pi) -> int:
    """Copies of pi's permutation matrix: row k-subsets R and column
    k-subsets C with grid[R[i]][C[pi[i]]] == 1 for every i."""
    k = len(pi)
    rows = range(len(grid))
    cols = range(len(grid[0]) if grid else 0)
    total = 0
    for r in combinations(rows, k):
        lines = [grid[x] for x in r]
        for c in combinations(cols, k):
            if all(lines[i][c[pi[i]]] for i in range(k)):
                total += 1
    return total


def block_or(grid, groups_of) -> list[list[int]]:
    """OR-contraction: source row/column i lands in group groups_of(i)
    (0-based), and a group cell is 1 when any source cell in it is."""
    n = len(grid)
    side = max(groups_of(i) for i in range(n)) + 1 if n else 0
    out = [[0] * side for _ in range(side)]
    for i in range(n):
        for j in range(n):
            if grid[i][j]:
                out[groups_of(i)][groups_of(j)] = 1
    return out


def ceil_groups(b: Fraction):
    """Group map of a rational contraction factor: 1-based index i goes
    to group ceil(i / b), returned 0-based for 0-based i."""
    return lambda i: math.ceil(Fraction(i + 1) / b) - 1


def max_ones_monotone(n: int, k: int) -> int:
    """The most ones an n x n matrix can hold without the k x k identity
    (or anti-identity): (k-1)(2n-k+1), the cells within k-1 of an edge."""
    return (k - 1) * (2 * n - k + 1)


def block_family(n: int, a: int):
    """The permutations whose positions split into runs of length a (and
    a shorter remainder), each run holding its own value range."""
    runs = [range(s, min(s + a, n)) for s in range(0, n, a)]

    def extend(prefix, t):
        if t == len(runs):
            yield prefix
            return
        for block in permutations(runs[t]):
            yield from extend(prefix + block, t + 1)

    yield from extend((), 0)


def sna_budget(n: int, a: int, k: int) -> int:
    q, r = divmod(n, a)
    return q * math.comb(a, k) + math.comb(r, k)


def grid_hypergraph(n: int, pi, lam_edges) -> set[tuple[int, ...]]:
    """Edges {(x_i, y_pi(i))} of the grid hypergraph, cells flattened
    row-major and 0-based; lam_edges and pi are 0-based."""
    k = len(pi)
    edges = set()
    for xs in lam_edges:
        for ys in combinations(range(n), k):
            edges.add(tuple(sorted(xs[i] * n + ys[pi[i]] for i in range(k))))
    return edges


def max_codegree(n_cells: int, edges, ell: int) -> int:
    """Max over every ell-subset of cells of the edges containing it."""
    best = 0
    for sub in combinations(range(n_cells), ell):
        s = set(sub)
        best = max(best, sum(1 for e in edges if s.issubset(e)))
    return best


def independent_sets(n_cells: int, edges, size: int) -> int:
    """size-subsets of the cells containing no edge, by testing each."""
    edge_sets = [frozenset(e) for e in edges]
    return sum(
        1
        for sub in combinations(range(n_cells), size)
        if not any(e.issubset(sub) for e in edge_sets)
    )
