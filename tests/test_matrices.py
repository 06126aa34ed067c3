import random
from fractions import Fraction

import numpy as np
import pytest

from permavoid import (
    BinaryMatrix,
    kernels,
    matrices,
    rngutil,
    Permutation,
    count_matrix_copies,
    densities,
    permutation_matrix,
    sampling_estimates,
)

import oracles


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    )


def test_entry_indexing_and_ones():
    m = BinaryMatrix.from_rows([[1, 0], [1, 1]])
    assert (m.rows, m.cols, m.ones) == (2, 2, 3)
    assert m.entry(1, 1) == 1 and m.entry(1, 2) == 0 and m.entry(2, 2) == 1
    with pytest.raises(ValueError):
        m.entry(3, 1)
    assert BinaryMatrix.zeros(2, 3).ones == 0
    assert BinaryMatrix.filled(2, 3).ones == 6


def test_from_rows_rejects_non_binary_entries():
    with pytest.raises(ValueError, match=r"\(2,1\)"):
        BinaryMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="length"):
        BinaryMatrix.from_rows([[0, 1], [1]])
    # Bools and floats are refused, not read as 0/1.
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=r"entry \(1,1\) must be an integer"):
            BinaryMatrix.from_rows([[bad, 0]])


class _Int(int):
    pass


@pytest.mark.parametrize("rows,cols,row_bits,message", [
    (2, 2, (True, 1), "packed row must be an integer, got True"),
    (2, 2, (1, 1.0), "packed row must be an integer, got 1.0"),
    (2, 2, ("1", 1), "packed row must be an integer, got '1'"),
    (2, 2, [1, None], "packed row must be an integer, got None"),
    (2, 2, (1, -1), "row 2 has bits outside 2 columns"),
    (3, 2, (1, 3, 4), "row 3 has bits outside 2 columns"),
    (3, 2, (-1, 4, 1), "row 1 has bits outside 2 columns"),
    (2, 0, (0, 1), "row 2 has bits outside 0 columns"),
    (2, 2, (1,), "got 1 packed rows for a 2-row matrix"),
    (2, 2, (1, 2, 3), "got 3 packed rows for a 2-row matrix"),
    (2, 2, (), "got 0 packed rows for a 2-row matrix"),
    # The type is refused before the count, the count before the range.
    (2, 2, (True,), "packed row must be an integer, got True"),
    (2, 2, (8,), "got 1 packed rows for a 2-row matrix"),
    (-1, 2, (), "matrix dimensions must be nonnegative"),
])
def test_packed_rows_are_refused_with_their_message(rows, cols, row_bits, message):
    with pytest.raises(ValueError) as err:
        BinaryMatrix(rows, cols, row_bits)
    assert str(err.value) == message


def test_packed_rows_are_coerced_to_a_tuple_of_ints():
    for row_bits in [(np.int64(3), np.uint8(1)), [3, 1], (_Int(3), 1), [np.int32(3), 1]]:
        m = BinaryMatrix(2, 2, row_bits)
        assert m.row_bits == (3, 1) and type(m.row_bits) is tuple
        assert all(type(b) is int for b in m.row_bits)
        assert m == BinaryMatrix(2, 2, (3, 1)) and hash(m) == hash(BinaryMatrix(2, 2, (3, 1)))
    assert BinaryMatrix(0, 0, ()).row_bits == BinaryMatrix(0, 5, []).row_bits == ()
    big = (1 << 70) - 1
    assert BinaryMatrix(1, 70, (big,)).ones == 70


def test_text_round_trip():
    m = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0]])
    assert m.to_text() == "2 3\n011\n100"
    assert BinaryMatrix.from_text(m.to_text()) == m
    assert BinaryMatrix.from_text("0 0") == BinaryMatrix.zeros(0, 0)


def test_from_text_error_positions():
    with pytest.raises(ValueError, match="line 1"):
        BinaryMatrix.from_text("")
    with pytest.raises(ValueError, match="line 1"):
        BinaryMatrix.from_text("2\n00")
    with pytest.raises(ValueError, match="line 3 column 2"):
        BinaryMatrix.from_text("2 2\n10\n12")
    with pytest.raises(ValueError, match="line 2"):
        BinaryMatrix.from_text("2 2\n101\n00")


def test_permutation_matrix_layout():
    m = permutation_matrix((2, 4, 1, 3))
    assert m.row_lines() == ["0100", "0001", "1000", "0010"]
    assert m.ones == 4


def test_golden_copy_counts():
    assert count_matrix_copies(BinaryMatrix.filled(3, 3), (1, 2)) == 9
    assert count_matrix_copies(permutation_matrix((2, 4, 1, 3)), (1, 2)) == 3


def test_copy_count_patterns_are_validated_after_a_cached_call():
    a = BinaryMatrix.filled(3, 3)
    assert count_matrix_copies(a, (1, 2)) == 9  # (1, 2) is now cached
    assert count_matrix_copies(a, (1, 3, 2)) == 1  # and (1, 3, 2)
    # Each equals a cached pattern or shares its hash, or cannot be hashed
    # at all, but Permutation refuses it.
    for bad in [(True, 2), (1.0, 2.0), (1, True), (1, 1), (0, 1), (2, 3),
                (True, 3, 2), (1.0, 3.0, 2.0), ([1], 2)]:
        with pytest.raises(ValueError):
            count_matrix_copies(a, bad)
    assert count_matrix_copies(a, [1, 2]) == count_matrix_copies(a, Permutation((1, 2))) == 9


@pytest.mark.parametrize("pattern", [(1,), (1, 2), (2, 1), (1, 3, 2), (3, 1, 2)])
def test_copies_match_oracle_on_random_matrices(pattern):
    rng = random.Random(77)
    for _ in range(30):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        m = random_matrix(rng, rows, cols)
        expected = oracles.matrix_copies_naive(m.to_lists(), pattern)
        assert count_matrix_copies(m, pattern) == expected


def test_wide_matrix_uses_big_integer_path():
    # Beyond 64 columns the word-packed kernel bows out; results must
    # agree with the oracle regardless.
    rng = random.Random(5)
    m = random_matrix(rng, 3, 70, density=0.3)
    expected = oracles.matrix_copies_naive(m.to_lists(), (1, 2))
    assert count_matrix_copies(m, (1, 2)) == expected


def test_flip_rows_reverses_patterns():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        for pattern in [(1, 2), (2, 1), (1, 3, 2)]:
            pi = Permutation(pattern)
            assert count_matrix_copies(m.flip_rows(), pi.reverse().values) == \
                count_matrix_copies(m, pi)
    assert BinaryMatrix.from_rows([[1, 0], [1, 1]]).flip_rows().to_lists() == \
        [[1, 1], [1, 0]]


def test_densities_golden():
    pair = densities(permutation_matrix((2, 4, 1, 3)), (1, 2))
    assert pair.one_density == Fraction(1, 4)
    assert pair.pi_density == Fraction(3, 36)
    empty = densities(BinaryMatrix.zeros(0, 0), (1, 2))
    assert empty.one_density == 0 and empty.pi_density == 0
    tiny = densities(BinaryMatrix.filled(1, 1), (1, 2))
    assert tiny.one_density == 1 and tiny.pi_density == 0


def test_sampling_full_size_recovers_exact_densities():
    m = permutation_matrix((2, 4, 1, 3))
    rep = sampling_estimates(m, (1, 2), r=4, trials=5, seed=0)
    exact = densities(m, (1, 2))
    assert rep.one_mean == exact.one_density
    assert rep.pi_mean == exact.pi_density
    assert rep.one_se == 0.0 and rep.pi_se == 0.0


def test_sampling_gathers_past_uint16_flat_indices():
    # Subsets of 300 rows are drawn as uint16, and row 219 starts at flat
    # index 219 * 300 = 65,700: a gather that wrapped past 65,535 would
    # read the empty rows above it.  The one 300 x 300 submatrix is the
    # matrix, and copies of 1 are its ones.
    rng = random.Random(300)
    m = BinaryMatrix(300, 300, tuple(rng.getrandbits(300) if i >= 219 else 0
                                     for i in range(300)))
    rep = sampling_estimates(m, (1,), r=300, trials=1, seed=3)
    assert rep.one_mean == rep.pi_mean == Fraction(m.ones, 300 * 300) > 0


def test_sampling_blocks_equal_successive_random_submatrices():
    # The block path gathers every trial of a block at once; it must see
    # the submatrices that one draw of a row and a column subset per trial
    # induces.  231 is not its own inverse, so a transposed gather would show.
    m = random_matrix(random.Random(12), 5, 8)
    trials = rngutil.BLOCK + 3
    rep = sampling_estimates(m, (2, 3, 1), r=3, trials=trials, seed=21)
    rng = rngutil.generator(21)
    subs = []
    for _ in range(trials):
        (rows,), (cols,) = next(rngutil.subset_pair_blocks(rng, m.rows, m.cols, 3, 1))
        subs.append(BinaryMatrix.from_rows(
            [[m.entry(i + 1, j + 1) for j in cols.tolist()] for i in rows.tolist()]))
    assert rep.one_mean == Fraction(sum(s.ones for s in subs), 9 * trials)
    assert rep.pi_mean == Fraction(sum(count_matrix_copies(s, (2, 3, 1)) for s in subs),
                                   trials)


def test_sampling_is_deterministic_and_unbiased_enough():
    m = permutation_matrix((2, 4, 1, 3))
    rep1 = sampling_estimates(m, (1, 2), r=2, trials=400, seed=11)
    rep2 = sampling_estimates(m, (1, 2), r=2, trials=400, seed=11)
    assert (rep1.one_mean, rep1.pi_mean) == (rep2.one_mean, rep2.pi_mean)
    exact = densities(m, (1, 2))
    assert abs(float(rep1.one_mean - exact.one_density)) <= 4 * rep1.one_se
    assert abs(float(rep1.pi_mean - exact.pi_density)) <= 4 * max(rep1.pi_se, 1e-12)
    with pytest.raises(ValueError):
        sampling_estimates(m, (1, 2), r=2, trials=0, seed=0)


def sampling_reports(monkeypatch, *args):
    """``sampling_estimates(*args)`` by row masks and by the chain sweep."""
    masked = sampling_estimates(*args)
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_MASK_COLS", -1)
        return masked, sampling_estimates(*args)


@pytest.mark.parametrize("rows,cols", [(20, 9), (9, 20), (12, 300), (300, 300)], ids=str)
def test_sampling_row_masks_equal_the_chain_sweep(monkeypatch, rows, cols):
    # Tall, wide and 300-column sources (a 300 x 300 one gathers past
    # uint16 flat indices), each with a partial last block; patterns of
    # length 0 to 4, so k > r at r = 0 and 1 and 70 column subsets at r = 8.
    m = random_matrix(random.Random(rows * 1000 + cols), rows, cols, density=0.4)
    for r in (0, 1, 6, 8):
        for pi in [(), (1,), (2, 1), (1, 3, 2), (2, 4, 1, 3)]:
            masked, chained = sampling_reports(monkeypatch, m, pi, r, rngutil.BLOCK + 7, r + 5)
            assert masked == chained


def test_sampling_row_masks_recover_exact_densities(monkeypatch):
    # A full-size sample of an 8 x 8 matrix is the matrix, on both paths.
    m = random_matrix(random.Random(88), 8, 8, density=0.6)
    for pi in [(1, 2), (2, 4, 1, 3), (1, 2, 3, 4, 5)]:
        exact = densities(m, pi)
        for rep in sampling_reports(monkeypatch, m, pi, 8, 3, 0):
            assert (rep.one_mean, rep.pi_mean) == (exact.one_density, exact.pi_density)


def counting(monkeypatch, name):
    """Wrap ``kernels.<name>`` so that its calls are listed."""
    calls = []
    kernel = getattr(kernels, name)

    def wrapper(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(kernels, name, wrapper)
    return calls


def test_sampling_counts_each_block_once_by_row_masks_up_to_8_columns(monkeypatch):
    # Three blocks, the last partial: r <= 8 makes one mask-kernel call
    # per block and never sweeps chains; r = 9 never reads row masks,
    # and hands the chain sweep blocks already in its (cols, rows, B)
    # layout, so the sweep copies none of them.
    masked = counting(monkeypatch, "mask_copy_counts")
    chained = counting(monkeypatch, "matrix_copy_counts")
    m = random_matrix(random.Random(99), 10, 12)
    trials = 2 * rngutil.BLOCK + 5
    for r in (1, 6, 8):
        masked.clear()
        sampling_estimates(m, (1, 3, 2), r, trials, r)
        assert [(masks.shape, ncols) for masks, ncols, _ in masked] == \
            [((r, rngutil.BLOCK), r)] * 2 + [((r, 5), r)]
        assert chained == []
    masked.clear()
    sampling_estimates(m, (1, 3, 2), 9, trials, 9)
    assert masked == [] and len(chained) == 3
    for blk, _ in chained:
        assert blk.transpose(2, 1, 0).flags.c_contiguous
