"""The kernels against oracles and closed forms."""

import inspect
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from permavoid import BinaryMatrix, contract2, contract_b, count_matrix_copies, kernels

import oracles


def random_sigma(rng, n):
    values = list(range(n))
    rng.shuffle(values)
    return tuple(values)


def zero_based_patterns():
    return [(0,), (0, 1), (1, 0), (0, 2, 1), (2, 0, 1), (1, 3, 0, 2)]


def test_backend_is_reported():
    assert kernels.BACKEND == "python"
    # perfbench's tracer wraps every public callable of the module and
    # rebinds it package-wide, so none may be an imported helper.
    public = [obj for name, obj in vars(kernels).items()
              if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)]
    assert public
    assert all(obj.__module__ == "permavoid.kernels" for obj in public)


def test_pure_kernels_match_oracles():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(0, 8)
        sigma = random_sigma(rng, n)
        for pi in [()] + zero_based_patterns():
            walk = list(kernels.occurrences(sigma, pi))
            assert [one_based(occ) for occ in walk] == \
                oracles.occurrences_naive(one_based(sigma), one_based(pi))
            # On chosen edges, in the edges' order: those that carry pi.
            edges = [e for e in combinations(range(n), len(pi)) if rng.random() < 0.5]
            rng.shuffle(edges)
            assert list(kernels.occurrences(sigma, pi, edges)) == [e for e in edges if e in walk]


def test_avoider_collection_matches_count():
    count, collected = kernels.count_avoiders(4, (0, 1), [(0, 1), (2, 3)],
                                           collect=True)
    assert count == len(collected)
    assert all(len(s) == 4 for s in collected)
    count_only, nothing = kernels.count_avoiders(4, (0, 1), [(0, 1), (2, 3)])
    assert nothing is None
    assert count_only == count


def test_matrices_wider_than_a_word_get_exact_answers():
    # Rows of 65 columns span two 64-bit words.
    rng = random.Random(505)
    grid = [[rng.randrange(2) for _ in range(65)] for _ in range(4)]
    m = BinaryMatrix.from_rows(grid)
    for pi in [(1, 2), (2, 1), (1, 3, 2)]:
        want = oracles.matrix_copies_naive(grid, pi)
        pi0 = tuple(v - 1 for v in pi)
        assert kernels.count_matrix_copies(m.row_bits, 65, pi0) == want
        assert count_matrix_copies(m, pi) == want
    # The only copy of 12 uses column 65.
    corner = BinaryMatrix.from_rows([[0] * 63 + [1, 0], [0] * 64 + [1]])
    assert count_matrix_copies(corner, (1, 2)) == 1
    assert count_matrix_copies(corner, (2, 1)) == 0


def test_matrix_copies_past_64_bits_are_exact():
    # C(1000, 10) is about 2.6e23, so the sweep counts in Python ints.
    got = count_matrix_copies(BinaryMatrix.filled(10, 1000), (3, 1, 4, 10, 5, 9, 2, 6, 8, 7))
    assert got == math.comb(1000, 10)
    assert type(got) is int
    # 64 columns with the widest partial chain, then 65 columns, then
    # 33 * C(64, 32), which is past 2^64.
    full = BinaryMatrix.filled(32, 64)
    assert count_matrix_copies(full, tuple(range(32, 0, -1))) == math.comb(64, 32)
    wide = BinaryMatrix.filled(4, 65)
    assert count_matrix_copies(wide, (2, 1)) == math.comb(4, 2) * math.comb(65, 2)
    got = count_matrix_copies(BinaryMatrix.filled(33, 64), tuple(range(1, 33)))
    assert got == 33 * math.comb(64, 32)
    assert type(got) is int


@pytest.mark.parametrize("slab,table", [(kernels._SLAB, kernels._TABLE), (64, 4)],
                         ids=["default", "small-chunks"])
def test_matrix_copies_match_oracle_on_edge_shapes(monkeypatch, slab, table):
    # Small slabs split the row subsets into many chunks, and a small
    # table streams them from itertools instead of the cached table.
    monkeypatch.setattr(kernels, "_SLAB", slab)
    monkeypatch.setattr(kernels, "_TABLE", table)
    rng = random.Random(707)
    # Rows of at most 8 columns count by nibble sets while the nonzero
    # rows hold at most 64 cells, any other matrix by the slab sweep:
    # (9, 8) keeps 64 once its zeroed row is dropped, (10, 8) keeps 72,
    # and the shapes of more than 8 columns are wider than a byte.
    for rows, cols in [(0, 0), (3, 0), (0, 3), (1, 1), (4, 4), (6, 5), (5, 6), (8, 8),
                       (9, 8), (10, 8), (2, 70), (3, 67), (1, 64), (64, 1), (4, 16),
                       (7, 9), (5, 13), (6, 13)]:
        for density in (0.0, 0.3, 0.7, 1.0):
            grid = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
            if rows > 1:
                grid[rng.randrange(rows)] = [0] * cols  # an all-zero row
            row_bits = [sum(cell << j for j, cell in enumerate(row)) for row in grid]
            for pi in [()] + zero_based_patterns():
                got = kernels.count_matrix_copies(row_bits, cols, pi)
                assert got == oracles.matrix_copies_naive(grid, one_based(pi))
                assert type(got) is int
    filled = kernels.count_matrix_copies([0xFF] * 8, 8, (0, 1, 2, 3))
    assert filled == math.comb(8, 4) ** 2 == 4900


def patterns_of_length(k, rng):
    """The identity, its reverse and two shuffles of length k."""
    shuffled = []
    for _ in range(2):
        values = list(range(k))
        rng.shuffle(values)
        shuffled.append(tuple(values))
    return {tuple(range(k)), tuple(range(k - 1, -1, -1)), *shuffled}


@pytest.mark.parametrize("rows,cols", [(64, 1), (16, 4), (8, 8), (8, 1), (5, 7), (7, 9)],
                         ids=str)
def test_nibble_sets_match_the_slab_sweep(rows, cols):
    # The one-matrix count of one-byte rows and at most 64 cells against
    # the block kernel on the same matrices, zero rows kept, as a list and
    # as a tuple.  Rows past one byte (7 x 9) never read the nibble sets.
    info = kernels._nibble_sets.cache_info
    before = info().hits + info().misses
    rng = random.Random(rows * 100 + cols)
    grids = []
    for density in (0.0, 0.2, 0.5, 0.8, 1.0):
        grid = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
        grids.append(grid)
        if rows > 1:
            holes = [row[:] for row in grid]
            for r in rng.sample(range(rows), max(1, rows // 3)):
                holes[r] = [0] * cols
            grids.append(holes)
    blk = np.array(grids, np.uint8)
    for k in range(6):
        for pi in patterns_of_length(k, rng):
            want = kernels.matrix_copy_counts(blk, pi)
            for grid, expected in zip(grids, want):
                row_bits = [sum(cell << j for j, cell in enumerate(row)) for row in grid]
                assert kernels.count_matrix_copies(row_bits, cols, pi) == expected
                assert kernels.count_matrix_copies(tuple(row_bits), cols, pi) == expected
    assert (info().hits + info().misses > before) == (cols <= 8)


@pytest.mark.parametrize("cols", [3, 4])
def test_every_small_matrix_matches_the_oracle(cols):
    # Every 3 x 3 and 3 x 4 matrix, for every pattern of length 0 to 3.
    patterns = [p for k in range(4) for p in permutations(range(k))]
    for cells in range(1 << (3 * cols)):
        row_bits = [(cells >> (r * cols)) & ((1 << cols) - 1) for r in range(3)]
        grid = [[(b >> j) & 1 for j in range(cols)] for b in row_bits]
        for pi in patterns:
            assert kernels.count_matrix_copies(row_bits, cols, pi) == \
                oracles.matrix_copies_naive(grid, one_based(pi))


def test_nibble_set_cache_is_bounded():
    # The largest table of at most 64 cells (8 x 8, k = 4) is about
    # 134 KB, so 16 of them stay near 2.1 MB.
    assert kernels._nibble_sets.cache_info().maxsize == 16
    pairs, tables = kernels._nibble_sets(8, 8, (0, 1, 2, 3))
    assert pairs == 4900
    objects = {id(x): x for pair in tables for table in pair for x in (table, *table)}
    size = sys.getsizeof(tables) + sum(map(sys.getsizeof, tables)) + \
        sum(map(sys.getsizeof, objects.values()))
    assert 100_000 < size < 140_000


def test_a_contraction_sweep_meets_few_table_shapes():
    # A round over 8 x 8 matrices with 24 ones, their 2- and
    # 3/2-contractions and the copies of 132 in each: once the round has
    # run, a second run of it finds every table shape cached.
    rng = random.Random(1)
    sources = []
    for _ in range(500):
        row_bits = [0] * 8
        for cell in rng.sample(range(64), 24):
            row_bits[cell // 8] |= 1 << (cell % 8)
        sources.append(BinaryMatrix(8, 8, tuple(row_bits)))

    def sweep_round():
        for m in sources:
            for x in (m, contract2(m), contract_b(m, Fraction(3, 2))):
                count_matrix_copies(x, (1, 3, 2))

    kernels._nibble_sets.cache_clear()
    sweep_round()
    first = kernels._nibble_sets.cache_info()
    sweep_round()
    assert kernels._nibble_sets.cache_info().misses == first.misses <= first.maxsize


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
    count, avoiders = kernels.count_avoiders(n, pi, edges, collect=True)
    assert avoiders == want  # the oracle lists S_n in lexicographic order
    assert count == len(want)
    assert_plain_ints(count, avoiders)
    assert kernels.count_avoiders(n, pi, edges) == (count, None)


@pytest.mark.parametrize("n", range(0, 8))
def test_sweeps_match_oracles_within_one_block(n):
    rng = random.Random(606 + n)
    for pi in SWEEP_PATTERNS:
        hist = kernels.copy_count_histogram(n, pi)
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
    count, stream = kernels.count_avoiders(n, (0, 1), (), collect=True)
    assert stream == list(permutations(range(n)))
    assert count == nfact
    assert kernels.copy_count_histogram(n, (1, 0)) == oracles.inversion_histogram(n)
    for pi in SWEEP_PATTERNS:
        k = len(pi)
        hist = kernels.copy_count_histogram(n, pi)
        assert all(type(c) is int and type(w) is int for c, w in hist.items())
        # Each k-set of positions carries pi for n!/k! permutations.
        assert sum(hist.values()) == nfact
        assert sum(c * w for c, w in hist.items()) == math.comb(n, k) * nfact // math.factorial(k)
    for pi in [(0, 2, 1), (1, 2, 0)]:
        assert kernels.copy_count_histogram(n, pi)[0] == oracles.catalan(n)
        count, avoiders = kernels.count_avoiders(n, pi, None, collect=True)
        assert count == len(avoiders) == oracles.catalan(n)
        assert avoiders == sorted(set(avoiders))
        assert_plain_ints(count, avoiders)
        assert not any(oracles.contains_naive(one_based(s), one_based(pi))
                       for s in avoiders)
        complete = tuple(combinations(range(n), 3))
        assert kernels.count_avoiders(n, pi, complete, collect=True) == (count, avoiders)
    pi = (1, 3, 0, 2)
    edges = tuple(sorted(random.Random(707 + n).sample(list(combinations(range(n), 4)), 3)))
    assert_avoiders(n, pi, edges, oracle_avoiders(n, pi, edges))


@pytest.mark.parametrize("n", [10, 11])
def test_count_avoiders_past_brute_force(n):
    # Every pattern of length 3 has Catalan(n) avoiders; only the
    # identity avoids 21 and only its reverse avoids 12.
    for pi in permutations(range(3)):
        assert kernels.count_avoiders(n, pi, None) == (oracles.catalan(n), None)
    assert kernels.count_avoiders(n, (1, 0), None) == (1, None)
    assert kernels.count_avoiders(n, (0, 1), None, collect=True) == (1, [tuple(range(n))[::-1]])
    assert kernels.count_avoiders(n, (0, 2, 1), ()) == (math.factorial(n), None)


@pytest.mark.parametrize("n", range(0, 8))
def test_disjoint_cliques_oracle_matches_brute_force(n):
    rng = random.Random(808 + n)
    for _ in range(3):
        positions = list(range(1, n + 1))
        rng.shuffle(positions)
        cuts = sorted(rng.sample(range(n + 1), min(n + 1, 3)))
        blocks = [positions[a:b] for a, b in zip(cuts, cuts[1:])]
        for pi, classical in [((1, 3, 2), oracles.catalan), ((2, 1), lambda m: 1)]:
            edges = oracles.clique_edges(blocks, len(pi))
            assert oracles.disjoint_cliques_avoiders(n, blocks, classical) == \
                len(oracles.avoiders_naive(n, pi, edges))


@pytest.mark.parametrize("n, blocks, want", [
    (9, [range(0, 4), range(4, 9)], 74_088),
    (10, [(0, 3, 7, 9), (1, 2, 8), (4, 5, 6)], 1_470_000),
    # Interleaved, so every block meets both the prefix and the tail.
    (11, [range(0, 11, 2), range(1, 10, 2)], 2_561_328),
])
def test_count_avoiders_on_disjoint_cliques(n, blocks, want):
    assert oracles.disjoint_cliques_avoiders(n, blocks, oracles.catalan) == want
    edges = tuple(oracles.clique_edges(blocks, 3))
    assert kernels.count_avoiders(n, (0, 2, 1), edges) == (want, None)


# OEIS A049774 (consecutive 123, and 321 by complement) and A111004
# (consecutive 132, and 213, 231, 312 by reversal and complement), n = 0..11.
CONSECUTIVE_123 = [1, 1, 2, 5, 17, 70, 349, 2017, 13358, 99377, 822041, 7477162]
CONSECUTIVE_132 = [1, 1, 2, 5, 16, 63, 296, 1623, 10176, 71793, 562848, 4853949]


@pytest.mark.parametrize("n", range(0, 8))
def test_consecutive_oracle_matches_brute_force(n):
    edges = oracles.windows(range(1, n + 1), 3)
    for pi in permutations((1, 2, 3)):
        assert oracles.consecutive_avoiders(n, pi) == len(oracles.avoiders_naive(n, pi, edges))


def test_consecutive_oracle_meets_oeis():
    for pi in permutations((1, 2, 3)):
        want = CONSECUTIVE_123 if pi in [(1, 2, 3), (3, 2, 1)] else CONSECUTIVE_132
        assert [oracles.consecutive_avoiders(n, pi) for n in range(12)] == want


@pytest.mark.parametrize("n", [10, 11])
def test_count_avoiders_on_consecutive_windows(n):
    edges = tuple(oracles.windows(range(n), 3))
    assert kernels.count_avoiders(n, (0, 1, 2), edges) == (CONSECUTIVE_123[n], None)
    assert kernels.count_avoiders(n, (0, 2, 1), edges) == (CONSECUTIVE_132[n], None)


def unpacked_atlas(t):
    return np.unpackbits(kernels._atlas(t).view(np.uint8), axis=1, bitorder="little").view(bool)


@pytest.mark.parametrize("t", range(1, 8))
def test_atlas_rows_are_the_comparisons_they_name(t):
    tail = kernels._lex_table(t).astype(int)
    size = tail.shape[1]
    want = [np.zeros(size, bool), np.ones(size, bool)]
    want += [tail[a] < tail[b] for a in range(t) for b in range(t)]
    want += [tail[b] >= r for b in range(t) for r in range(t + 1)]
    want += [tail[b] < r for b in range(t) for r in range(t + 1)]
    atlas = unpacked_atlas(t)
    assert kernels._atlas(t).dtype == np.uint64
    assert not atlas[:, size:].any()  # zero padding up to whole words
    np.testing.assert_array_equal(atlas[:, :size], np.array(want))


@pytest.mark.parametrize("n", [0, 1, 3, 8, 9])
def test_block_lookups_name_each_blocks_comparisons(n):
    size = math.factorial(min(n, 7))
    atlas = unpacked_atlas(min(n, 7))[:, :size]
    perms = np.array(list(permutations(range(n))), np.uint8)  # n = 0: one empty permutation
    # runs of 5 blocks: n = 9's 72 prefixes end in a ragged run of 2
    lookups = [(prefix, rows.reshape(n, n)) for prefixes, lookup in kernels._block_lookups(n, 5)
               for prefix, rows in zip(prefixes.tolist(), lookup)]
    assert len(lookups) * size == len(perms)
    for b, (prefix, rows) in enumerate(lookups):
        blk = perms[b * size:(b + 1) * size].T  # the b-th lex block, one row per position
        assert blk[:len(prefix)].tolist() == [[v] * size for v in prefix]
        np.testing.assert_array_equal(atlas[rows], blk[:, None] < blk[None, :])


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_carried_words_mark_each_index_sets_carriers(n):
    size = math.factorial(min(n, 7))
    perms = np.array(list(permutations(range(n))), np.uint8)
    for pi in [()] + zero_based_patterns():
        k = len(pi)
        sets = list(combinations(range(n), k))
        # e carries pi iff every pair of its values compares as in pi
        want = np.ones((len(sets), len(perms)), bool)
        for row, e in zip(want, sets):
            for i, j in combinations(range(k), 2):
                row &= (perms[:, e[i]] < perms[:, e[j]]) == (pi[i] < pi[j])
        got = [np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
               for _, run in kernels._carried_words(n, pi, sets) for words in run]
        assert len(got) * size == len(perms)
        for b, bits in enumerate(got):
            assert not bits[:, size:].any()  # zero padding up to whole words
            np.testing.assert_array_equal(bits[:, :size], want[:, b * size:(b + 1) * size])


def test_count_avoiders_crosses_runs_of_blocks(monkeypatch):
    rng = random.Random(1212)
    cases = []
    for pi in [(0, 2, 1), (1, 3, 0, 2)]:
        complete = tuple(combinations(range(8), len(pi)))
        cases += [(pi, None), (pi, tuple(sorted(rng.sample(complete, 21)))), (pi, complete[:1])]
    want = [kernels.count_avoiders(8, pi, edges, collect=True) for pi, edges in cases]
    # At t = 7 an index set's words take 632 bytes and a block's lookup
    # 512 more.  A _RUN of 1 byte gives runs of one block.  41,352 bytes
    # hold three blocks of the 21 edges, so one gather spans the blocks
    # of runs of 3, 3 and 2, and all 8 blocks of one edge; 134,256 bytes
    # hold runs of 3, 3 and 2 blocks of a complete hypergraph's 56 or 70
    # sets.
    for run in [1, 41352, 134256]:
        monkeypatch.setattr(kernels, "_RUN", run)
        assert [kernels.count_avoiders(8, pi, edges, collect=True) for pi, edges in cases] == want


@pytest.mark.parametrize("n", [8, 9])
def test_copy_count_histogram_crosses_runs_of_blocks(monkeypatch, n):
    patterns = [(1, 0), (0, 2, 1), (2, 0, 1), (1, 3, 0, 2)]
    want = [kernels.copy_count_histogram(n, pi) for pi in patterns]
    # At t = 7 a set's words take 632 bytes and a block's lookup 8n^2
    # more: 18,208 bytes for C(8, 2) sets.  At 25,280 and at 1 byte every
    # run is one block.  424,704 bytes hold all 8 blocks of S_8 in one
    # run for every pattern, and S_9 in runs of 18 blocks of C(9, 2)
    # sets, of 7 of C(9, 3) ending in 2, and of 5 of C(9, 4) ending in 2.
    for run in [25280, 1, 424704]:
        monkeypatch.setattr(kernels, "_RUN", run)
        assert [kernels.copy_count_histogram(n, pi) for pi in patterns] == want


def test_copy_count_histogram_unpacks_one_block_at_a_time():
    # At n = 8 the pass runs in runs of five blocks of C(8, 2) = 28 sets'
    # words.  A block unpacks to 28 x 5040 bytes; unpacking a whole run
    # would peak near 1.2 MB.
    n, pi = 8, (1, 0)
    sets = list(combinations(range(n), len(pi)))
    assert [len(words) for _, words in kernels._carried_words(n, pi, sets)] == [5, 3]
    want = oracles.inversion_histogram(n)
    assert kernels.copy_count_histogram(n, pi) == want  # builds the cached atlas untraced
    tracemalloc.start()
    try:
        assert kernels.copy_count_histogram(n, pi) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(sets) * 5040 + 2 * kernels._RUN


def run_of_five(n, sets):
    """A ``_RUN`` that holds five lex blocks of n's carried words over
    ``sets`` with their lookups."""
    return 5 * (len(sets) * kernels._atlas(min(n, 7))[0].nbytes + 8 * n * n)


@pytest.mark.parametrize("blocks", [1, 5])
def test_sweeps_keep_their_results_across_runs_of_blocks(monkeypatch, blocks):
    # n = 9 has 72 prefixes: runs of one block, or 14 runs of five and
    # a ragged run of two.
    n, catalan, nfact = 9, oracles.catalan(9), math.factorial(9)
    complete = tuple(combinations(range(n), 3))
    cliques = tuple(oracles.clique_edges([range(4), range(4, n)], 3))
    cases = [((0, 2, 1), None, catalan), ((0, 2, 1), complete, catalan),
             ((1, 2, 0), tuple(oracles.windows(range(n), 3)),
              oracles.consecutive_avoiders(n, (2, 3, 1))),
             ((0, 2, 1), cliques, oracles.disjoint_cliques_avoiders(n, [range(4), range(5)],
                                                                    oracles.catalan))]
    lam = random_lambdas(np.random.default_rng(2323), 6, len(complete))
    default = ([kernels.count_avoiders(n, pi, edges, collect=True) for pi, edges, _ in cases],
               [kernels.copy_count_histogram(n, pi) for pi in [(1, 0), (0, 2, 1)]],
               kernels.avoider_counts(n, (0, 2, 1), complete, lam))

    def budget(pi, sets):
        monkeypatch.setattr(kernels, "_RUN", 1 if blocks == 1 else run_of_five(n, sets))
        runs = []
        for _, words in kernels._carried_words(n, pi, sets):
            assert words.nbytes <= kernels._RUN or len(words) == 1
            runs.append(len(words))
        assert runs == [blocks] * (72 // blocks) + [72 % blocks] * (72 % blocks > 0)

    for (pi, edges, want), (count, avoiders) in zip(cases, default[0]):
        budget(pi, complete if edges is None else edges)
        assert count == want
        assert kernels.count_avoiders(n, pi, edges, collect=True) == (count, avoiders)
        assert kernels.count_avoiders(n, pi, edges) == (count, None)
        assert avoiders == sorted(avoiders)
    budget((1, 0), list(combinations(range(n), 2)))
    assert kernels.copy_count_histogram(n, (1, 0)) == default[1][0] == \
        oracles.inversion_histogram(n)
    budget((0, 2, 1), complete)
    hist = kernels.copy_count_histogram(n, (0, 2, 1))
    assert hist == default[1][1] and hist[0] == catalan
    counts = kernels.avoider_counts(n, (0, 2, 1), complete, lam)  # row 1 uses every set
    assert counts == default[2] and counts[:2] == [nfact, catalan]
    assert counts == [kernels.count_avoiders(n, (0, 2, 1), tuple(e for e, x in zip(complete, row)
                                                                  if x))[0]
                      for row in lam.tolist()]


def lookup_batches(monkeypatch):
    """Wrap ``_block_lookups``: the list it returns gains one list per
    call, of the number of prefixes in each batch the call yields."""
    calls = []
    block_lookups = kernels._block_lookups

    def counted(n, batch):
        calls.append([])
        for prefixes, lookup in block_lookups(n, batch):
            assert lookup.dtype == np.uint8
            calls[-1].append(len(prefixes))
            yield prefixes, lookup

    monkeypatch.setattr(kernels, "_block_lookups", counted)
    return calls


def test_complete_sweep_builds_its_lookups_in_one_batch(monkeypatch):
    # At the default budget a block of C(9, 3) sets' words fills a run,
    # and the uint8 lookups and tests of all 72 blocks fill one batch.
    calls = lookup_batches(monkeypatch)
    complete = tuple(combinations(range(9), 3))
    assert [len(words) for _, words in kernels._carried_words(9, (0, 2, 1), complete)] == [1] * 72
    assert calls == [[72]]
    calls.clear()
    assert kernels.count_avoiders(9, (0, 2, 1), complete) == (oracles.catalan(9), None)
    assert calls == [[72]]


def test_sweeps_keep_their_results_across_lookup_batches(monkeypatch):
    # A _RUN of two blocks' uint8 lookups and tests is far below one
    # block's words: runs of one block, as the run budget always gave,
    # in lookup batches of two runs that end inside S_9.
    n, catalan, nfact = 9, oracles.catalan(9), math.factorial(9)
    complete = tuple(combinations(range(n), 3))
    cliques = tuple(oracles.clique_edges([range(4), range(4, n)], 3))
    cases = [((0, 2, 1), None, catalan),
             ((0, 2, 1), cliques, oracles.disjoint_cliques_avoiders(n, [range(4), range(5)],
                                                                    oracles.catalan))]
    lam = random_lambdas(np.random.default_rng(4545), 6, len(complete))
    default = ([kernels.count_avoiders(n, pi, edges, collect=True) for pi, edges, _ in cases],
               [kernels.copy_count_histogram(n, pi) for pi in [(1, 0), (0, 2, 1)]],
               kernels.avoider_counts(n, (0, 2, 1), complete, lam))
    calls = lookup_batches(monkeypatch)

    def budget(pi, sets):
        monkeypatch.setattr(kernels, "_RUN", 2 * (n * n + len(sets) * (len(pi) - 1)))
        calls.clear()
        assert [len(words) for _, words in kernels._carried_words(n, pi, sets)] == [1] * 72
        assert calls == [[2] * 36]
        calls.clear()

    for (pi, edges, want), (count, avoiders) in zip(cases, default[0]):
        budget(pi, complete if edges is None else edges)
        assert count == want
        assert kernels.count_avoiders(n, pi, edges, collect=True) == (count, avoiders)
        assert kernels.count_avoiders(n, pi, edges) == (count, None)
        assert calls == [[2] * 36] * 2
    budget((1, 0), list(combinations(range(n), 2)))
    assert kernels.copy_count_histogram(n, (1, 0)) == default[1][0] == \
        oracles.inversion_histogram(n)
    assert calls == [[2] * 36]
    budget((0, 2, 1), complete)
    hist = kernels.copy_count_histogram(n, (0, 2, 1))
    assert hist == default[1][1] and hist[0] == catalan
    counts = kernels.avoider_counts(n, (0, 2, 1), complete, lam)  # row 1 uses every set
    assert counts == default[2] and counts[:2] == [nfact, catalan]
    assert calls == [[2] * 36] * 2


def test_n10_sweeps_cross_lookup_batches(monkeypatch):
    # S_10 has 720 lex blocks, more than one batch of uint8 lookups holds.
    calls = lookup_batches(monkeypatch)
    assert kernels.count_avoiders(10, (0, 2, 1), None) == (oracles.catalan(10), None) \
        == (16796, None)
    assert kernels.copy_count_histogram(10, (1, 0)) == oracles.inversion_histogram(10)
    assert [sum(batches) for batches in calls] == [720, 720]
    assert all(len(batches) > 1 for batches in calls)


def random_lambdas(rng, size, count):
    """A (size, count) bool block of random hypergraphs at densities
    from 0 to 1; the first row has no edges and the second has all."""
    block = rng.random((size, count)) < rng.random((size, 1))
    block[0] = False
    block[1] = True
    return block


def assert_avoider_counts(n, pi, block):
    candidates = tuple(combinations(range(n), len(pi)))
    counts = kernels.avoider_counts(n, pi, candidates, block)
    want = [kernels.count_avoiders(n, pi, tuple(e for e, x in zip(candidates, row) if x))[0]
            for row in block.tolist()]
    assert counts == want
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("n,pi,size", [(8, (1, 3, 0, 2), 6), (9, (0, 2, 1), 6),
                                       (10, (2, 0, 1), 3)])
def test_avoider_counts_match_one_pass_past_one_block(n, pi, size):
    rng = np.random.default_rng(1313 + n)
    assert_avoider_counts(n, pi, random_lambdas(rng, size, math.comb(n, len(pi))))


def test_avoider_counts_match_one_pass_per_hypergraph():
    rng = np.random.default_rng(1010)
    # n = 0 and 1, k = 0 and 1, k > n, one block and several blocks of
    # S_n, and C(8,4) = 70 index sets, past one 64-bit word
    for n, pi, size in [(0, (), 3), (0, (0,), 3), (1, (), 4), (1, (0,), 4), (2, (0, 2, 1), 3),
                        (4, (0,), 6), (5, (1, 0), 50), (6, (0, 2, 1), 30),
                        (8, (1, 0), 6), (8, (1, 3, 0, 2), 5)]:
        count = math.comb(n, len(pi))
        assert_avoider_counts(n, pi, random_lambdas(rng, size, count))
        assert_avoider_counts(n, pi, np.zeros((2, count), bool))  # no index set used
        # sets that every row, some rows and no row has as edges
        mixed = random_lambdas(rng, size, count)
        mixed[:, ::3] = True
        mixed[:, 1::3] = False
        assert_avoider_counts(n, pi, mixed)
        assert_avoider_counts(n, pi, np.repeat(mixed[-1:], 3, axis=0))  # identical rows
        assert_avoider_counts(n, pi, mixed[-1:])  # one row
        assert_avoider_counts(n, pi, np.tile([[True], [False]], count))  # every set, then none
        assert_avoider_counts(n, pi, np.ones((1, count), bool))  # one row with every set
    assert kernels.avoider_counts(3, (1, 0), ((0, 1), (0, 2), (1, 2)),
                                  np.zeros((0, 3), bool)) == []


@pytest.mark.parametrize("size", [3, 10])
def test_avoider_counts_cross_the_plane_chunks(monkeypatch, size):
    # At n = 5, S_5 is one lex block, so every run is that block and
    # only ``_hit_masks`` splits.  An index set's words take 16 bytes; no
    # set is an edge of every row or of none, so all are masked.  At 40
    # bytes the samples are masked one by one; at 1000 bytes 10 samples
    # over 10 sets (k = 2 or 3) split as 6 + 4.
    rng = np.random.default_rng(1111 + size)
    for run in [40, 1000]:
        monkeypatch.setattr(kernels, "_RUN", run)
        for pi in [(1, 0), (0, 2, 1), (1, 3, 0, 2)]:
            assert_avoider_counts(5, pi, random_lambdas(rng, size, math.comb(5, len(pi))))


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


def test_row_occurrence_counts_match_oracles_row_by_row():
    rng = random.Random(828)
    # k = 0, k = 1, k > n and an empty block among them
    for n, size in [(0, 3), (1, 4), (2, 5), (3, 0), (5, 40), (8, 60)]:
        blk = np.array([random_sigma(rng, n) for _ in range(size)], np.uint8).reshape(size, n)
        for pi in [()] + zero_based_patterns():
            counts = kernels.row_occurrence_counts(blk, pi)
            assert counts.dtype == np.min_scalar_type(math.comb(n, len(pi)))
            assert counts.tolist() == [oracles.count_naive(s, pi) for s in blk.tolist()]


def test_occurrence_counts_match_oracles_across_chunks(monkeypatch):
    # A small slab splits the index sets of a 9-row block into chunks of
    # one to three, and a small table streams them past C(n, k) = 4.
    monkeypatch.setattr(kernels, "_SLAB", 64)
    monkeypatch.setattr(kernels, "_TABLE", 4)
    rng = random.Random(818)
    patterns = [pi for k in range(5) for pi in permutations(range(k))]
    for n in range(8):
        for size in (0, 1, 9) if n == 6 else (1, 9):
            blk = np.array([random_sigma(rng, n) for _ in range(size)], np.uint8)
            blk = blk.reshape(size, n)
            for pi in patterns:
                want = Counter(oracles.count_naive(s, pi) for s in blk.tolist())
                assert kernels.occurrence_counts(blk, pi) == want


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


def row_masks(blk):
    """The (rows, B) uint8 row masks of a (B, rows, cols) block, cols <= 8."""
    weights = 1 << np.arange(blk.shape[2], dtype=np.uint8)
    return np.ascontiguousarray((blk * weights).sum(axis=2, dtype=np.uint8).T)


@pytest.mark.parametrize("slab,table", [(kernels._SLAB, kernels._TABLE), (64, 4)],
                         ids=["default", "small-chunks"])
def test_mask_copy_counts_match_the_chain_sweep(monkeypatch, slab, table):
    # Every r x r shape up to 8 x 8 and some non-square ones, patterns of
    # length 0 to 5 (so k > r and C(8, 4) = 70 column subsets, two
    # words), with all-zero and all-one rows; small chunks split and
    # stream the row subsets.
    monkeypatch.setattr(kernels, "_SLAB", slab)
    monkeypatch.setattr(kernels, "_TABLE", table)
    rng = random.Random(919)
    shapes = [(r, r) for r in range(9)] + [(3, 8), (8, 3), (12, 5), (5, 7)]
    for rows, cols in shapes:
        grids = [[[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
                 for density in (0.0, 0.2, 0.5, 0.8, 1.0) for _ in range(6)]
        for grid in grids[6:24:3]:
            if rows:
                grid[rng.randrange(rows)] = [0] * cols
                grid[rng.randrange(rows)] = [1] * cols
        blk = np.array(grids, np.uint8).reshape(len(grids), rows, cols)
        masks = row_masks(blk)
        for k in range(6):
            for pi in patterns_of_length(k, rng):
                counts = kernels.mask_copy_counts(masks, cols, pi)
                assert counts.tolist() == kernels.matrix_copy_counts(blk, pi)
                assert counts.dtype == np.min_scalar_type(math.comb(rows, k) * math.comb(cols, k))
    full = kernels.mask_copy_counts(np.full((8, 3), 0xFF, np.uint8), 8, (1, 3, 0, 2))
    assert full.tolist() == [4900] * 3
    assert kernels.mask_copy_counts(np.zeros((4, 0), np.uint8), 4, (0, 1)).tolist() == []


def test_mask_tables_are_read_only_and_bounded():
    # Each table is (k, 2^ncols, W) words, W = 2 only for C(8, 4) = 70
    # column subsets; the largest take 16 KB, so 64 of them stay at 1 MB.
    assert kernels._mask_table.cache_info().maxsize == 64
    largest = 0
    for ncols in range(1, 9):
        for k in range(1, ncols + 1):  # the kernel builds no table at k = 0
            table = kernels._mask_table(ncols, tuple(range(k)))
            assert not table.flags.writeable
            words = 2 if (ncols, k) == (8, 4) else 1
            assert table.shape == (k, 1 << ncols, words) and table.dtype == np.uint64
            largest = max(largest, table.nbytes)
    assert largest == 16 << 10
    with pytest.raises(ValueError):
        kernels._mask_table(8, (0, 1, 2, 3))[0, 0, 0] = 0
