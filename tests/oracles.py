"""Slow, obviously-correct reference implementations.

Everything here is written directly from the definitions with
itertools, or from a classical closed form, so the fast library paths
can be checked against code that shares nothing with them.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb


def order_isomorphic(values, pattern):
    k = len(pattern)
    if len(values) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            if (pattern[i] < pattern[j]) != (values[i] < values[j]):
                return False
    return True


def occurrences_naive(sigma, pi):
    """All 1-based index tuples supporting the pattern, in lex order."""
    out = []
    for idx in combinations(range(len(sigma)), len(pi)):
        if order_isomorphic([sigma[i] for i in idx], pi):
            out.append(tuple(i + 1 for i in idx))
    return out


def count_naive(sigma, pi):
    return len(occurrences_naive(sigma, pi))


def contains_naive(sigma, pi):
    for idx in combinations(range(len(sigma)), len(pi)):
        if order_isomorphic([sigma[i] for i in idx], pi):
            return True
    return False


def lambda_count_naive(sigma, pi, edges):
    """Occurrences whose (1-based, sorted) index set is one of ``edges``."""
    hits = 0
    for edge in edges:
        if order_isomorphic([sigma[i - 1] for i in edge], pi):
            hits += 1
    return hits


def avoiders_naive(n, pi, edges):
    """All permutations of 1..n with zero hits, as one-line tuples."""
    return [
        sigma
        for sigma in permutations(range(1, n + 1))
        if lambda_count_naive(sigma, pi, edges) == 0
    ]


def histogram_naive(n, pi):
    hist = {}
    for sigma in permutations(range(1, n + 1)):
        c = count_naive(sigma, pi)
        hist[c] = hist.get(c, 0) + 1
    return hist


def expectation_naive(n, pi, alpha, edges):
    """Expected avoider count when each edge survives independently."""
    total = Fraction(0)
    for sigma in permutations(range(1, n + 1)):
        total += (1 - alpha) ** lambda_count_naive(sigma, pi, edges)
    return total


def matrix_copies_naive(grid, pi):
    """Pattern copies in a 0/1 grid given as a list of row lists."""
    k = len(pi)
    n_rows = len(grid)
    n_cols = len(grid[0]) if grid else 0
    count = 0
    for ri in combinations(range(n_rows), k):
        for ci in combinations(range(n_cols), k):
            if all(grid[ri[i]][ci[pi[i] - 1]] for i in range(k)):
                count += 1
    return count


def matrix_contains_naive(grid, pi):
    k = len(pi)
    n_rows = len(grid)
    n_cols = len(grid[0]) if grid else 0
    return any(
        all(grid[ri[i]][ci[pi[i] - 1]] for i in range(k))
        for ri in combinations(range(n_rows), k)
        for ci in combinations(range(n_cols), k)
    )


def contract2_naive(grid):
    n = len(grid)
    out = []
    for i in range(0, n, 2):
        row = []
        for j in range(0, n, 2):
            block = grid[i][j] or grid[i][j + 1] or grid[i + 1][j] or grid[i + 1][j + 1]
            row.append(1 if block else 0)
        out.append(row)
    return out


def max_ones_naive(n, pi):
    """Exhaustive extremal value over all 0/1 matrices of order n."""
    best = 0
    for mask in range(1 << (n * n)):
        grid = [[(mask >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
        if matrix_copies_naive(grid, pi) == 0:
            best = max(best, sum(map(sum, grid)))
    return best


def max_ones_witness_naive(n, pi):
    """The first avoiding matrix with the most ones when all 0/1 matrices
    of order n are scanned row-major, trying 1 before 0 at each cell,
    as a list of row lists.  That order is the integers from 2^(n*n)-1
    down to 0 with cell (0, 0) as the top bit."""
    cells = n * n
    best, best_grid = -1, None
    for v in range((1 << cells) - 1, -1, -1):
        if bin(v).count("1") <= best:
            continue
        grid = [[(v >> (cells - 1 - i * n - j)) & 1 for j in range(n)] for i in range(n)]
        if not matrix_contains_naive(grid, pi):
            best, best_grid = bin(v).count("1"), grid
    return best_grid


def ex_identity(n, k):
    """Most ones in an n x n matrix avoiding the k x k identity (Füredi and
    Hajnal): 2(k-1)n - (k-1)^2.  The anti-identity shares it by the row flip."""
    return 2 * (k - 1) * n - (k - 1) ** 2


def min_copies_naive(n, a, pi):
    """Fewest copies over matrices of order n with exactly ``a`` ones."""
    best = None
    for cells in combinations(range(n * n), a):
        grid = [[0] * n for _ in range(n)]
        for c in cells:
            grid[c // n][c % n] = 1
        copies = matrix_copies_naive(grid, pi)
        if best is None or copies < best:
            best = copies
            if best == 0:
                break
    return best


def independent_count_naive(n_vertices, edges, size):
    """Subsets of the given size containing no edge entirely."""
    edge_sets = [frozenset(e) for e in edges]
    count = 0
    for subset in combinations(range(n_vertices), size):
        chosen = set(subset)
        if not any(e <= chosen for e in edge_sets):
            count += 1
    return count


def delta_naive(edges, ell):
    """Most edges sharing a common ell-subset of vertices."""
    best = 0
    for edge in edges:
        for sub in combinations(edge, ell):
            deg = sum(1 for other in edges if set(sub) <= set(other))
            best = max(best, deg)
    return best


def inversion_histogram(n):
    """{c: #sigma in S_n with c inversions}, i.e. c copies of 21: the
    coefficients of MacMahon's q-factorial prod_{i=1..n} (1 + q + ... + q^(i-1))."""
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = [sum(coeffs[max(0, c - i + 1):c + 1]) for c in range(len(coeffs) + i - 1)]
    return dict(enumerate(coeffs))


def q_factorial(n, q):
    """MacMahon's [n]_q! = prod_{i=1..n} (1 + q + ... + q^(i-1)): the sum
    of q^(#inversions) over S_n."""
    total = 1
    for i in range(1, n + 1):
        total *= sum(q**j for j in range(i))
    return total


def catalan(n):
    """Number of permutations of length n avoiding any one pattern of length 3."""
    return comb(2 * n, n) // (n + 1)
