"""The compiled kernels and their pure-Python twins must be
indistinguishable; these tests drive both through the same randomized
inputs.  When the extension is absent everything still passes — the
chooser already fell back — but the cross-checks are skipped.
"""

import math
import random
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from permavoid import (
    BinaryMatrix,
    _kernels_py as pure,
    count_matrix_copies,
    kernels,
    matrix_contains,
)

import oracles

compiled_only = pytest.mark.skipif(
    kernels.BACKEND != "compiled", reason="compiled extension not loaded"
)


def random_sigma(rng, n):
    values = list(range(n))
    rng.shuffle(values)
    return tuple(values)


def zero_based_patterns():
    return [(0,), (0, 1), (1, 0), (0, 2, 1), (2, 0, 1), (1, 3, 0, 2)]


def test_backend_is_reported():
    assert kernels.BACKEND in {"compiled", "python"}
    assert pure.BACKEND == "python"


@compiled_only
def test_containment_kernels_agree():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randrange(0, 10)
        sigma = random_sigma(rng, n)
        for pi in zero_based_patterns():
            assert kernels.contains(sigma, pi) == pure.contains(sigma, pi)
            assert kernels.count_occurrences(sigma, pi) == \
                pure.count_occurrences(sigma, pi)


@compiled_only
def test_histogram_kernels_agree():
    for n in range(0, 7):
        for pi in zero_based_patterns():
            assert kernels.copy_count_histogram(n, pi) == \
                pure.copy_count_histogram(n, pi)


@compiled_only
def test_edge_kernels_agree():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        edges = [e for e in combinations(range(n), k) if rng.random() < 0.6]
        pi = random_sigma(rng, k)
        sigma = random_sigma(rng, n)
        assert kernels.hits_edge(sigma, pi, edges) == \
            pure.hits_edge(sigma, pi, edges)
        assert kernels.count_edge_hits(sigma, pi, edges) == \
            pure.count_edge_hits(sigma, pi, edges)
        assert kernels.count_avoiders(n, pi, edges) == \
            pure.count_avoiders(n, pi, edges)
        assert kernels.count_avoiders(n, pi, None) == \
            pure.count_avoiders(n, pi, None)


@compiled_only
def test_matrix_kernels_agree():
    rng = random.Random(303)
    for _ in range(80):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        grid = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        row_bits = [sum(cell << j for j, cell in enumerate(row)) for row in grid]
        for pi in zero_based_patterns():
            assert kernels.count_matrix_copies(row_bits, cols, pi) == \
                pure.count_matrix_copies(row_bits, cols, pi)
            assert kernels.matrix_contains_perm(row_bits, cols, pi) == \
                pure.matrix_contains_perm(row_bits, cols, pi)


def test_pure_kernels_match_oracles():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(0, 8)
        sigma = random_sigma(rng, n)
        one_based = tuple(v + 1 for v in sigma)
        for pi in zero_based_patterns():
            pattern = tuple(v + 1 for v in pi)
            assert pure.count_occurrences(sigma, pi) == \
                oracles.count_naive(one_based, pattern)
    # Widths past one 64-bit word, with the ones in the last ten columns
    # (either side of column 64), sparse enough that both answers occur.
    for _ in range(8):
        cols = rng.randrange(65, 69)
        grid = [[int(j >= cols - 10 and rng.random() < 0.2) for j in range(cols)]
                for _ in range(3)]
        row_bits = [sum(cell << j for j, cell in enumerate(row)) for row in grid]
        for pi in [(0, 1), (1, 0), (0, 2, 1), (2, 0, 1)]:
            pattern = tuple(v + 1 for v in pi)
            assert pure.matrix_contains_perm(row_bits, cols, pi) == \
                (oracles.matrix_copies_naive(grid, pattern) > 0)


def test_avoider_collection_matches_count():
    count, collected = pure.count_avoiders(4, (0, 1), [(0, 1), (2, 3)],
                                           collect=True)
    assert count == len(collected)
    assert all(len(s) == 4 for s in collected)
    count_only, nothing = pure.count_avoiders(4, (0, 1), [(0, 1), (2, 3)])
    assert nothing is None
    assert count_only == count


def test_matrices_wider_than_a_word_get_exact_answers():
    # The compiled kernel keeps a row in one 64-bit word; the guard in
    # kernels must send a 65-column matrix to the pure twin.  Without
    # the extension the pure twin is bound directly.
    rng = random.Random(505)
    grid = [[rng.randrange(2) for _ in range(65)] for _ in range(4)]
    m = BinaryMatrix.from_rows(grid)
    for pi in [(1, 2), (2, 1), (1, 3, 2)]:
        want = oracles.matrix_copies_naive(grid, pi)
        pi0 = tuple(v - 1 for v in pi)
        assert kernels.count_matrix_copies(m.row_bits, 65, pi0) == want
        assert count_matrix_copies(m, pi) == want
        assert kernels.matrix_contains_perm(m.row_bits, 65, pi0) == (want > 0)
        assert matrix_contains(m, pi) == (want > 0)
    # The only copy of 12 uses column 65.
    corner = BinaryMatrix.from_rows([[0] * 63 + [1, 0], [0] * 64 + [1]])
    assert kernels.matrix_contains_perm(corner.row_bits, 65, (0, 1))
    assert matrix_contains(corner, (1, 2))
    assert not matrix_contains(corner, (2, 1))
    assert count_matrix_copies(corner, (1, 2)) == 1


# Lengths 1 to 4.  S_n streams through blocks of at most 7! permutations,
# so n <= 7 is one block and n = 8, 9 cross block boundaries.
SWEEP_PATTERNS = [(0,), (1, 0), (0, 2, 1), (1, 2, 0), (1, 3, 0, 2), (0, 1, 3, 2)]


def one_based(values):
    return tuple(v + 1 for v in values)


def assert_plain_ints(count, avoiders):
    assert type(count) is int
    assert all(type(s) is tuple and all(type(v) is int for v in s) for s in avoiders)


def oracle_avoiders(n, pi, edges):
    """The oracle's avoiders over 0-based edges, as 0-based tuples."""
    return [tuple(v - 1 for v in s) for s in
            oracles.avoiders_naive(n, one_based(pi), [one_based(e) for e in edges])]


def assert_avoiders(n, pi, edges, want):
    count, avoiders = pure.count_avoiders(n, pi, edges, collect=True)
    assert avoiders == want  # the oracle lists S_n in lexicographic order
    assert count == len(want)
    assert_plain_ints(count, avoiders)
    assert pure.count_avoiders(n, pi, edges) == (count, None)


@pytest.mark.parametrize("n", range(0, 8))
def test_sweeps_match_oracles_within_one_block(n):
    rng = random.Random(606 + n)
    for pi in SWEEP_PATTERNS:
        hist = pure.copy_count_histogram(n, pi)
        assert hist == oracles.histogram_naive(n, one_based(pi))
        assert all(type(c) is int and type(w) is int for c, w in hist.items())
        complete = tuple(combinations(range(n), len(pi)))
        want = oracle_avoiders(n, pi, complete)
        assert_avoiders(n, pi, None, want)
        assert_avoiders(n, pi, complete, want)
        chosen = tuple(e for e in complete if rng.random() < 0.4)
        assert_avoiders(n, pi, chosen, oracle_avoiders(n, pi, chosen))
        assert_avoiders(n, pi, (), oracle_avoiders(n, pi, ()))


@pytest.mark.parametrize("n", [8, 9])
def test_sweeps_cross_block_boundaries(n):
    nfact = math.factorial(n)
    # With no edges every permutation avoids: the stream is S_n itself.
    count, stream = pure.count_avoiders(n, (0, 1), (), collect=True)
    assert stream == list(permutations(range(n)))
    assert count == nfact
    assert pure.copy_count_histogram(n, (1, 0)) == oracles.inversion_histogram(n)
    for pi in SWEEP_PATTERNS:
        k = len(pi)
        hist = pure.copy_count_histogram(n, pi)
        assert all(type(c) is int and type(w) is int for c, w in hist.items())
        # Each k-set of positions carries pi for n!/k! permutations.
        assert sum(hist.values()) == nfact
        assert sum(c * w for c, w in hist.items()) == math.comb(n, k) * nfact // math.factorial(k)
    for pi in [(0, 2, 1), (1, 2, 0)]:
        assert pure.copy_count_histogram(n, pi)[0] == oracles.catalan(n)
        count, avoiders = pure.count_avoiders(n, pi, None, collect=True)
        assert count == len(avoiders) == oracles.catalan(n)
        assert avoiders == sorted(set(avoiders))
        assert_plain_ints(count, avoiders)
        assert not any(oracles.contains_naive(one_based(s), one_based(pi))
                       for s in avoiders)
        complete = tuple(combinations(range(n), 3))
        assert pure.count_avoiders(n, pi, complete, collect=True) == (count, avoiders)
    pi = (1, 3, 0, 2)
    edges = tuple(sorted(random.Random(707 + n).sample(list(combinations(range(n), 4)), 3)))
    assert_avoiders(n, pi, edges, oracle_avoiders(n, pi, edges))


def test_occurrence_counts_match_oracles_on_blocks():
    rng = random.Random(808)
    # k = 0, k = 1, k > n and an empty block among them
    for n, size in [(0, 3), (1, 4), (2, 5), (3, 0), (5, 40), (7, 60)]:
        blk = np.array([random_sigma(rng, n) for _ in range(size)], np.uint8).reshape(size, n)
        for pi in [()] + zero_based_patterns():
            tally = kernels.occurrence_counts(blk, pi)
            want = Counter(oracles.count_naive(s, pi) for s in blk.tolist())
            assert tally == want
            assert all(type(c) is int and type(m) is int and m > 0
                       for c, m in tally.items())


def test_matrix_copy_counts_match_oracles_on_blocks():
    rng = random.Random(909)
    # r = 0, non-square blocks, and k > r and k = 0 from the patterns
    for rows, cols, size in [(0, 0, 3), (1, 1, 4), (3, 3, 30), (4, 6, 30), (6, 4, 30),
                             (5, 5, 0)]:
        blk = np.array([rng.randrange(2) for _ in range(size * rows * cols)],
                       np.uint8).reshape(size, rows, cols)
        for pi in [()] + zero_based_patterns():
            counts = kernels.matrix_copy_counts(blk, pi)
            want = [oracles.matrix_copies_naive(grid, one_based(pi)) for grid in blk.tolist()]
            assert counts == want
            assert all(type(c) is int for c in counts)
