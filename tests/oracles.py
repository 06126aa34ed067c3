"""Slow, obviously-correct reference implementations.

Everything here is written directly from the definitions with
itertools, or from a classical closed form, so the fast library paths
can be checked against code that shares nothing with them.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb, factorial, prod, sqrt


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


def clique_edges(blocks, k):
    """The union of the complete k-graphs on the given disjoint vertex
    sets, as sorted k-tuples in lex order."""
    return sorted(e for b in blocks for e in combinations(sorted(b), k))


def disjoint_cliques_avoiders(n, blocks, classical):
    """#Av_Lambda(pi) for Lambda the union of complete k-graphs on the
    disjoint position sets ``blocks``, where ``classical(m)`` is the
    number of permutations of length m avoiding pi.

    No edge meets two blocks, so sigma avoids Lambda iff its values on
    each block, read in order, avoid pi.  Choose which values each block
    gets (a multinomial; positions outside every block are blocks of
    one), then an avoiding order within each block:
    n! * prod_i classical(|B_i|) / |B_i|!.
    """
    sizes = [len(b) for b in blocks]
    return factorial(n) // prod(map(factorial, sizes)) * prod(map(classical, sizes))


def windows(positions, k):
    """The runs of k consecutive entries of ``positions``: the Lambda
    whose avoiders avoid pi as a consecutive pattern."""
    positions = list(positions)
    return [tuple(positions[i:i + k]) for i in range(len(positions) - k + 1)]


def consecutive_avoiders(n, pi):
    """Permutations of length n with no k adjacent entries in the order
    of pi: #Av_Lambda(pi) for Lambda = ``windows(range(n), k)`` (Elizalde
    and Noy, "Consecutive patterns in permutations", 2003).

    sigma is built left to right up to order isomorphism.  A state is the
    ranks, among the m entries placed, of the last k - 1 of them.  The
    next entry takes rank r in 0..m, which lifts every old rank x >= r
    by one, and is refused when it ends a window in the order of pi.
    """
    k = len(pi)
    states = {(): 1}
    for m in range(n):
        grown = {}
        for last, ways in states.items():
            for r in range(m + 1):
                tail = tuple(x + (x >= r) for x in last) + (r,)
                if len(tail) == k and order_isomorphic(tail, pi):
                    continue
                key = tail[max(0, len(tail) - k + 1):]
                grown[key] = grown.get(key, 0) + ways
        states = grown
    return sum(states.values())


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
    if k > min(n_rows, n_cols):
        return 0  # and 64 x 1 would walk all C(64, k) row subsets for nothing
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


def max_ones_least_mask_naive(n, pi):
    """The avoiding matrix of order n with the most ones and, among
    those, the least mask value, where cell (i, j) is bit i*n + j: the
    first such matrix met counting the masks up from 0."""
    cells = n * n
    best, best_grid = -1, None
    for v in range(1 << cells):
        if bin(v).count("1") <= best:
            continue
        grid = [[(v >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
        if not matrix_contains_naive(grid, pi):
            best, best_grid = bin(v).count("1"), grid
    return best_grid


def ex_identity(n, k):
    """Most ones in an n x n matrix avoiding the k x k identity (Füredi and
    Hajnal): 2(k-1)n - (k-1)^2.  The anti-identity shares it by the row flip."""
    return 2 * (k - 1) * n - (k - 1) ** 2


def min_copies_naive(n, a, pi):
    """Fewest copies over matrices of order n with exactly ``a`` ones."""
    return min_copies_witness_naive(n, a, pi)[0]


def min_copies_witness_naive(n, a, pi):
    """(fewest copies, first grid reaching it) over the matrices of order
    n with exactly ``a`` ones, their cells chosen as combinations of the
    row-major cell numbers; the grid is a list of row lists."""
    best, best_grid = None, None
    for cells in combinations(range(n * n), a):
        grid = [[0] * n for _ in range(n)]
        for c in cells:
            grid[c // n][c % n] = 1
        copies = matrix_copies_naive(grid, pi)
        if best is None or copies < best:
            best, best_grid = copies, grid
            if best == 0:
                break
    return best, best_grid


def contract_b_naive(grid, b):
    """Square grid OR-ed into cell (ceil(i/b), ceil(j/b)) from each 1-based
    cell (i, j), for a Fraction b >= 1."""
    n = len(grid)
    side = ceil(n / b)
    out = [[0] * side for _ in range(side)]
    for i in range(n):
        for j in range(n):
            if grid[i][j]:
                out[ceil((i + 1) / b) - 1][ceil((j + 1) / b) - 1] = 1
    return out


def sna_members_naive(n, a):
    """Permutations of 1..n, in lex order, whose positions split into runs
    of length a (then the remainder), each run holding its own value range."""
    starts = range(0, n, a)
    return [
        sigma for sigma in permutations(range(1, n + 1))
        if all(sorted(sigma[s:s + a]) == list(range(s + 1, min(s + a, n) + 1)) for s in starts)
    ]


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


def _sides(sigma):
    """Per position j: (L<, L>, R<, R>), the values left of j smaller and
    larger than sigma[j], then those right of it."""
    out = []
    for j, v in enumerate(sigma):
        left_less = sum(u < v for u in sigma[:j])
        right_less = sum(u < v for u in sigma[j + 1:])
        out.append((left_less, j - left_less, right_less, len(sigma) - 1 - j - right_less))
    return out


def pattern_counts_closed(sigma):
    """{patterns: their summed copy counts in sigma} for the patterns a
    middle, first or last entry decides, from per-position counts
    alone: 21 counts the inversions, sum_j L>(j); 123 is
    sum_j L<(j) R>(j) and 321 is sum_j L>(j) R<(j); the middle entry is
    the largest of 132 and 231, so their sum is sum_j L<(j) R<(j), and
    the smallest of 213 and 312, so theirs is sum_j L>(j) R>(j).  The
    first entry is the smallest of 123 and 132, sum_i C(R>(i), 2), and
    the largest of 312 and 321, sum_i C(R<(i), 2); the last entry is the
    largest of 123 and 213, sum_k C(L<(k), 2), and the smallest of 231
    and 321, sum_k C(L>(k), 2)."""
    sides = _sides(sigma)
    return {
        ((2, 1),): sum(lg for _, lg, _, _ in sides),
        ((1, 2, 3),): sum(ll * rg for ll, _, _, rg in sides),
        ((3, 2, 1),): sum(lg * rl for _, lg, rl, _ in sides),
        ((1, 3, 2), (2, 3, 1)): sum(ll * rl for ll, _, rl, _ in sides),
        ((2, 1, 3), (3, 1, 2)): sum(lg * rg for _, lg, _, rg in sides),
        ((1, 2, 3), (1, 3, 2)): sum(comb(rg, 2) for _, _, _, rg in sides),
        ((3, 1, 2), (3, 2, 1)): sum(comb(rl, 2) for _, _, rl, _ in sides),
        ((1, 2, 3), (2, 1, 3)): sum(comb(ll, 2) for ll, _, _, _ in sides),
        ((2, 3, 1), (3, 2, 1)): sum(comb(lg, 2) for _, lg, _, _ in sides),
    }


def pattern_counts_alone(sigma):
    """{pattern: its copy count in sigma} for 21 and each pattern of
    length 3, solved from the sums of ``pattern_counts_closed``: 123 and
    321 stand alone, and each first- or last-entry sum holds one of them."""
    sums = pattern_counts_closed(sigma)
    c123, c321 = sums[((1, 2, 3),)], sums[((3, 2, 1),)]
    return {
        (2, 1): sums[((2, 1),)],
        (1, 2, 3): c123,
        (3, 2, 1): c321,
        (1, 3, 2): sums[((1, 2, 3), (1, 3, 2))] - c123,
        (2, 1, 3): sums[((1, 2, 3), (2, 1, 3))] - c123,
        (3, 1, 2): sums[((3, 1, 2), (3, 2, 1))] - c321,
        (2, 3, 1): sums[((2, 3, 1), (3, 2, 1))] - c321,
    }


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


def mean_and_se_naive(tally):
    """Exact mean and float standard error of (value, multiplicity)
    pairs, one ``Fraction`` sum per pair."""
    m = 0
    total = squares = Fraction(0)
    for value, ways in tally:
        m += ways
        total += ways * value
        squares += ways * value * value
    mean = total / m
    if m == 1:
        return mean, 0.0
    var = (squares - total * total / m) / (m - 1)
    return mean, sqrt(max(0.0, float(var)) / m)
