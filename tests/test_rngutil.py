"""The block draws of ``rngutil`` must reproduce, bit for bit, the
stream of the per-sample draws they replaced: the scalar loops below.
If numpy ever changes how ``Generator.integers`` handles array bounds
or buffers PCG64's 32-bit halves, these tests fail before any seeded
output silently changes.
"""

import numpy as np
import pytest

from permavoid import BinaryMatrix, random_submatrix, rngutil

SAMPLES = rngutil.BLOCK + 3  # crosses one block boundary


def scalar_permutation(rng, n):
    """Full Fisher-Yates of range(n), one scalar draw per step."""
    vals = list(range(n))
    for i in range(n - 1):
        j = int(rng.integers(i, n))
        vals[i], vals[j] = vals[j], vals[i]
    return tuple(vals)


def scalar_subset(rng, n, r):
    """Partial Fisher-Yates: r scalar swap steps, the first r slots sorted."""
    pool = list(range(n))
    for i in range(r):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:r]))


def rows_of(blocks):
    return [tuple(row) for blk in blocks for row in blk.tolist()]


def assert_same_state(a, b):
    """Both generators continue with the same draws, so neither path
    left a buffered 32-bit half behind that the other did not."""
    assert a.integers(0, 2**31, size=4).tolist() == b.integers(0, 2**31, size=4).tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 8])
def test_permutation_blocks_equal_scalar_fisher_yates(n):
    scalar, block = rngutil.generator(7), rngutil.generator(7)
    want = [scalar_permutation(scalar, n) for _ in range(SAMPLES)]
    blocks = list(rngutil.permutation_blocks(block, n, SAMPLES))
    assert [len(b) for b in blocks] == [rngutil.BLOCK, 3]
    assert all(b.shape[1] == n and b.dtype == np.uint8 for b in blocks)
    assert rows_of(blocks) == want
    assert_same_state(scalar, block)


@pytest.mark.parametrize("rows, cols, r", [
    (5, 5, 0), (5, 5, 1), (5, 5, 5),  # r = 0, 1, rows
    (4, 9, 1), (4, 9, 4), (9, 4, 3),  # non-square sources
    (600, 7, 2),  # wide enough that blocks hold fewer than BLOCK pairs
])
def test_subset_pair_blocks_equal_scalar_draws(rows, cols, r):
    scalar, block = rngutil.generator(11), rngutil.generator(11)
    want = [(scalar_subset(scalar, rows, r), scalar_subset(scalar, cols, r))
            for _ in range(SAMPLES)]
    got = []
    for row_sets, col_sets in rngutil.subset_pair_blocks(block, rows, cols, r, SAMPLES):
        assert row_sets.shape == col_sets.shape == (len(row_sets), r)
        got += zip(map(tuple, row_sets.tolist()), map(tuple, col_sets.tolist()))
    assert got == want
    assert_same_state(scalar, block)


@pytest.mark.parametrize("r", [0, 1, 3])
def test_random_submatrix_is_one_trial_of_the_scalar_stream(r):
    grid = [[(i * 7 + j * 3) % 5 < 2 for j in range(6)] for i in range(3)]
    a = BinaryMatrix.from_rows([[int(x) for x in row] for row in grid])
    scalar, block = rngutil.generator(5), rngutil.generator(5)
    for _ in range(40):
        rows, cols = scalar_subset(scalar, a.rows, r), scalar_subset(scalar, a.cols, r)
        want = BinaryMatrix.from_rows([[a.entry(i + 1, j + 1) for j in cols] for i in rows])
        assert random_submatrix(a, r, block) == want
    assert_same_state(scalar, block)
