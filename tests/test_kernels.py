"""The kernels against oracles, and the C ``count_matrix_copies``
against the pure one: that test builds ``_speedups.c`` itself and skips
only without a C compiler or the CPython headers.
"""

import importlib.util
import math
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import permavoid
from permavoid import (
    BinaryMatrix,
    _kernels_py as pure,
    count_matrix_copies,
    kernels,
    matrix_contains,
)

import oracles


def random_sigma(rng, n):
    values = list(range(n))
    rng.shuffle(values)
    return tuple(values)


def zero_based_patterns():
    return [(0,), (0, 1), (1, 0), (0, 2, 1), (2, 0, 1), (1, 3, 0, 2)]


def test_backend_is_reported():
    assert kernels.BACKEND in {"compiled", "python"}
    assert pure.BACKEND == "python"


@pytest.fixture
def compiled_kernels(tmp_path, monkeypatch):
    """``kernels`` reloaded over ``_speedups.c`` built into tmp_path, so
    that its guard runs; afterwards ``kernels`` is reloaded as it was."""
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not link or shutil.which(link[0]) is None:
        pytest.skip("no C compiler")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").is_file():
        pytest.skip("no Python.h")
    source = Path(kernels.__file__).with_name("_speedups.c")
    target = tmp_path / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    # One compile-and-link step, as the interpreter links its own extensions.
    build = subprocess.run(
        [*link, *shlex.split(sysconfig.get_config_var("CCSHARED") or ""), "-O2",
         f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    # Record what undo restores before loading, since loading an
    # extension module also enters it in sys.modules.
    monkeypatch.setitem(sys.modules, "permavoid._speedups", None)
    monkeypatch.setattr(permavoid, "_speedups", None, raising=False)
    spec = importlib.util.spec_from_file_location("permavoid._speedups", target)
    compiled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compiled)
    sys.modules["permavoid._speedups"] = permavoid._speedups = compiled
    try:
        yield importlib.reload(kernels)
    finally:
        monkeypatch.undo()
        importlib.reload(kernels)


def test_c_kernel_matches_pure_within_its_limits(compiled_kernels):
    assert compiled_kernels.BACKEND == "compiled"
    rng = random.Random(303)
    for _ in range(300):
        rows = rng.randrange(0, 9)
        cols = rng.randrange(0, 65)
        density = rng.random()
        row_bits = [sum((rng.random() < density) << j for j in range(cols))
                    for _ in range(rows)]
        for pi in [()] + zero_based_patterns():
            got = compiled_kernels.count_matrix_copies(row_bits, cols, pi)
            assert got == pure.count_matrix_copies(row_bits, cols, pi)
            assert type(got) is int
    # C(64, 32), under 2^62, stays in C: the widest partial chain counts.
    full = BinaryMatrix.filled(32, 64)
    assert count_matrix_copies(full, tuple(range(32, 0, -1))) == math.comb(64, 32)
    # The C kernel refuses 65 columns, and 33 * C(64, 32) is past 2^64:
    # the guard must send both to the pure kernel.
    wide = BinaryMatrix.filled(4, 65)
    with pytest.raises(ValueError):
        permavoid._speedups.count_matrix_copies(wide.row_bits, 65, (1, 0))
    assert count_matrix_copies(wide, (2, 1)) == math.comb(4, 2) * math.comb(65, 2)
    got = count_matrix_copies(BinaryMatrix.filled(33, 64), tuple(range(1, 33)))
    assert got == 33 * math.comb(64, 32)
    assert type(got) is int


def test_pure_kernels_match_oracles():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(0, 8)
        sigma = random_sigma(rng, n)
        for pi in [()] + zero_based_patterns():
            walk = list(pure.occurrences(sigma, pi))
            assert [one_based(occ) for occ in walk] == \
                oracles.occurrences_naive(one_based(sigma), one_based(pi))
            # On chosen edges, in the edges' order: those that carry pi.
            edges = [e for e in combinations(range(n), len(pi)) if rng.random() < 0.5]
            rng.shuffle(edges)
            assert list(pure.occurrences(sigma, pi, edges)) == [e for e in edges if e in walk]
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
    # Rows of 65 columns span two 64-bit words.
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


def test_matrix_copies_past_64_bits_are_exact():
    # C(1000, 10) is about 2.6e23, so the sweep counts in Python ints.
    got = count_matrix_copies(BinaryMatrix.filled(10, 1000), (3, 1, 4, 10, 5, 9, 2, 6, 8, 7))
    assert got == math.comb(1000, 10)
    assert type(got) is int


@pytest.mark.parametrize("slab,table", [(pure._SLAB, pure._TABLE), (64, 4)],
                         ids=["default", "small-chunks"])
def test_matrix_copies_match_oracle_on_edge_shapes(monkeypatch, slab, table):
    # Small slabs split the row subsets into many chunks, and a small
    # table streams them from itertools instead of the cached table.
    monkeypatch.setattr(pure, "_SLAB", slab)
    monkeypatch.setattr(pure, "_TABLE", table)
    rng = random.Random(707)
    # Up to 64 cells in the nonzero rows count by copy masks, past it by
    # the slab sweep: (6, 13) keeps 65 once its zeroed row is dropped.
    for rows, cols in [(0, 0), (3, 0), (0, 3), (1, 1), (4, 4), (6, 5), (5, 6), (8, 8),
                       (2, 70), (3, 67), (1, 64), (64, 1), (4, 16), (7, 9), (5, 13),
                       (6, 13)]:
        for density in (0.0, 0.3, 0.7, 1.0):
            grid = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
            if rows > 1:
                grid[rng.randrange(rows)] = [0] * cols  # an all-zero row
            row_bits = [sum(cell << j for j, cell in enumerate(row)) for row in grid]
            for pi in [()] + zero_based_patterns():
                got = pure.count_matrix_copies(row_bits, cols, pi)
                assert got == oracles.matrix_copies_naive(grid, one_based(pi))
                assert type(got) is int
    filled = pure.count_matrix_copies([0xFF] * 8, 8, (0, 1, 2, 3))
    assert filled == math.comb(8, 4) ** 2 == 4900


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


@pytest.mark.parametrize("n", [10, 11])
def test_count_avoiders_past_brute_force(n):
    # Every pattern of length 3 has Catalan(n) avoiders; only the
    # identity avoids 21 and only its reverse avoids 12.
    for pi in permutations(range(3)):
        assert pure.count_avoiders(n, pi, None) == (oracles.catalan(n), None)
    assert pure.count_avoiders(n, (1, 0), None) == (1, None)
    assert pure.count_avoiders(n, (0, 1), None, collect=True) == (1, [tuple(range(n))[::-1]])
    assert pure.count_avoiders(n, (0, 2, 1), ()) == (math.factorial(n), None)


def unpacked_atlas(t):
    return np.unpackbits(pure._atlas(t).view(np.uint8), axis=1, bitorder="little").view(bool)


@pytest.mark.parametrize("t", range(1, 8))
def test_atlas_rows_are_the_comparisons_they_name(t):
    tail = pure._lex_table(t).astype(int)
    size = tail.shape[1]
    want = [np.zeros(size, bool), np.ones(size, bool)]
    want += [tail[a] < tail[b] for a in range(t) for b in range(t)]
    want += [tail[b] >= r for b in range(t) for r in range(t + 1)]
    want += [tail[b] < r for b in range(t) for r in range(t + 1)]
    atlas = unpacked_atlas(t)
    assert pure._atlas(t).dtype == np.uint64
    assert not atlas[:, size:].any()  # zero padding up to whole words
    np.testing.assert_array_equal(atlas[:, :size], np.array(want))


@pytest.mark.parametrize("n", [0, 1, 3, 8, 9])
def test_block_lookups_name_each_blocks_comparisons(n):
    atlas = unpacked_atlas(min(n, 7))[:, :math.factorial(min(n, 7))]
    blocks = list(pure._lex_blocks(n))
    lookups = [(prefix, rows.copy()) for prefix, rows in pure._block_lookups(n)]
    assert len(lookups) == len(blocks)
    for (prefix, rows), blk in zip(lookups, blocks):
        assert blk[:len(prefix)].tolist() == [[v] * blk.shape[1] for v in prefix]
        np.testing.assert_array_equal(atlas[rows], blk[:, None] < blk[None, :])


def test_count_avoiders_crosses_edge_chunks(monkeypatch):
    rng = random.Random(1212)
    cases = []
    for pi in [(0, 2, 1), (1, 3, 0, 2)]:
        complete = tuple(combinations(range(8), len(pi)))
        cases += [(pi, None), (pi, tuple(sorted(rng.sample(complete, 21)))), (pi, complete[:1])]
    want = [pure.count_avoiders(8, pi, edges, collect=True) for pi, edges in cases]
    # 1300 bytes hold two 632-byte atlas rows at t = 7, so 21 edges
    # leave a half chunk; 1 byte holds one edge per chunk.
    for chunk in [1300, 1]:
        monkeypatch.setattr(pure, "_ATLAS_CHUNK", chunk)
        assert [pure.count_avoiders(8, pi, edges, collect=True) for pi, edges in cases] == want


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
    want = [pure.count_avoiders(n, pi, tuple(e for e, x in zip(candidates, row) if x))[0]
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
    assert kernels.avoider_counts(3, (1, 0), ((0, 1), (0, 2), (1, 2)),
                                  np.zeros((0, 3), bool)) == []


@pytest.mark.parametrize("size", [3, 10])
def test_avoider_counts_cross_the_plane_chunks(monkeypatch, size):
    # 7 cells per chunk: 10 samples take two sample chunks, 3 samples
    # leave room for two permutations per chunk.
    monkeypatch.setattr(pure, "_PLANE", 7)
    rng = np.random.default_rng(1111 + size)
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
