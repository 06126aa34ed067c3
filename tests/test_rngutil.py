"""The block draws of ``rngutil`` must reproduce, bit for bit, the
stream of the per-sample draws they replaced: the scalar loops below.
If numpy ever changes how ``Generator.integers`` handles array bounds
or buffers PCG64's 32-bit halves, these tests fail before any seeded
output silently changes.  ``_bounded``, which replays numpy's bounding
step from raw PCG64 words, must equal ``integers`` itself on every
branch, values and generator state alike, and must keep the blocks the
Monte-Carlo jobs draw on its raw-word path.  ``mean_and_se`` must
likewise equal the per-pair ``Fraction`` loop it replaced,
``oracles.mean_and_se_naive``.
"""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from permavoid import rngutil

import oracles

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


def assert_same_state(*generators):
    """The generators are in one state, buffered 32-bit half included,
    and so continue with the same draws."""
    assert len({repr(g.bit_generator.state) for g in generators}) == 1
    assert len({tuple(g.integers(0, 2**31, size=4).tolist()) for g in generators}) == 1


class CountingGenerator:
    """A PCG64 generator that counts its ``integers`` calls: under
    ``permutation_blocks`` and ``subset_pair_blocks`` each is a block
    numpy drew instead of ``_bounded``'s raw words."""

    def __init__(self, seed):
        self.rng = rngutil.generator(seed)
        self.bit_generator = self.rng.bit_generator
        self.numpy_blocks = 0

    def integers(self, *args, **kwargs):
        self.numpy_blocks += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("lows, highs, size", [
    (list(range(7)), [8] * 7, 2048),  # one S_8 block: raw words
    ([0, 1, 2], [8, 8, 8], 1),  # odd count
    ([0, 1, 2], [8, 8, 8], 3),
    ([0, 1], [8, 8], 1),  # size 1, raw words
    ([0, 1], [8, 8], 0),  # size 0
    ([0, 1, 2, 3], [4, 4, 4, 4], 6),  # a span of 1
    ([0, -5], [3 * 2**30, 2**31 + 2], 1),  # redraws a quarter and a half of the time
    ([0, -5], [3 * 2**30, 2**31 + 2], 64),
    ([0, 7], [2**32 - 1, 2**32 + 6], 8),  # the widest spans the raw path takes
    ([0, 0], [2**32, 2**32 + 1], 8),  # wider ones go to numpy
])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("before", [None, 5, 2**31 + 7])
def test_bounded_equals_integers(lows, highs, size, seed, before):
    lows, highs = np.array(lows), np.array(highs)
    want, got = rngutil.generator(seed), rngutil.generator(seed)
    if before is not None:
        # A scalar draw leaves a 32-bit half buffered, unless a redraw
        # (likely for 2^31 + 7) spent the next half as well.
        assert want.integers(before) == got.integers(before)
    expected = want.integers(lows, highs, size=(size, len(lows)))
    values = rngutil._bounded(got, lows, highs, size)
    assert values.dtype == np.int64 and values.shape == expected.shape
    np.testing.assert_array_equal(values, expected)
    assert_same_state(want, got)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monte_carlo_blocks_draw_from_raw_words(seed):
    # Ten blocks of S_8, as expect-mc --estimator sigma --n 8 draws them,
    # and the pairs of sample-density --r 6 on a 16 x 16 matrix.
    rng = CountingGenerator(seed)
    assert sum(map(len, rngutil.permutation_blocks(rng, 8, 10 * rngutil.BLOCK))) == 20480
    assert sum(len(rows) for rows, _ in rngutil.subset_pair_blocks(rng, 16, 16, 6, 6000)) == 6000
    assert rng.numpy_blocks == 0
    # An odd count of draws goes to numpy, and so does a span of 1.
    assert [len(b) for b in rngutil.permutation_blocks(rng, 8, rngutil.BLOCK + 3)] == \
        [rngutil.BLOCK, 3]
    assert rng.numpy_blocks == 1
    rng = CountingGenerator(seed)
    next(rngutil.subset_pair_blocks(rng, 8, 8, 8, 60))
    assert rng.numpy_blocks == 1


@pytest.mark.parametrize("n", [0, 1, 2, 8])
def test_permutation_blocks_equal_scalar_fisher_yates(n):
    scalar, block = rngutil.generator(7), rngutil.generator(7)
    want = [scalar_permutation(scalar, n) for _ in range(SAMPLES)]
    blocks = list(rngutil.permutation_blocks(block, n, SAMPLES))
    assert [len(b) for b in blocks] == [rngutil.BLOCK, 3]
    assert all(b.shape[1] == n and b.dtype == np.uint8 for b in blocks)
    assert all(b.T.flags.c_contiguous for b in blocks)  # position-major
    assert rows_of(blocks) == want
    assert_same_state(scalar, block)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("before", [None, 5])
def test_permutation_codes_decode_to_permutation_blocks(n, seed, before):
    # BLOCK + 3 samples end in a block of 3, which at n = 8 makes 21
    # draws, an odd count that numpy draws itself; so does every block
    # after a scalar draw leaves a 32-bit half buffered.
    by_block, by_code = rngutil.generator(seed), rngutil.generator(seed)
    if before is not None:
        assert by_block.integers(before) == by_code.integers(before)
    blocks = list(rngutil.permutation_blocks(by_block, n, SAMPLES))
    codes = list(rngutil.permutation_codes(by_code, n, SAMPLES))
    assert [len(c) for c in codes] == [len(b) for b in blocks] == [rngutil.BLOCK, 3]
    for blk, code in zip(blocks, codes):
        assert code.dtype == np.int64
        assert 0 <= code.min() and code.max() < math.factorial(n)
        decoded = rngutil.code_permutations(n, code)
        assert decoded.dtype == blk.dtype and decoded.T.flags.c_contiguous
        np.testing.assert_array_equal(decoded, blk)
    assert_same_state(by_block, by_code)


def test_permutation_codes_take_every_value_once():
    # The codes of all n! draw sequences are [0, n!) in lex order of the
    # draws, and decode to n! distinct permutations.
    for n in range(7):
        draws = list(product(*(range(i, n) for i in range(n - 1))))
        places = [math.factorial(n - 1 - i) for i in range(n - 1)]
        codes = [sum((d - i) * p for i, (d, p) in enumerate(zip(seq, places)))
                 for seq in draws]
        assert codes == list(range(math.factorial(n)))
        perms = rngutil.code_permutations(n, np.arange(math.factorial(n))).tolist()
        assert sorted(map(tuple, perms)) == sorted(permutations(range(n)))


@pytest.mark.parametrize("r", range(rngutil._NETWORK_ROWS + 3))
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_sorted_rows_equal_np_sort(r, dtype):
    # Ties among them, which no shuffle makes, and both sides of the
    # network's row limit.
    slots = np.random.default_rng(r).integers(0, 12, size=(r, 257)).astype(dtype)
    want = np.sort(slots, axis=0)
    got = rngutil._sorted_rows(slots.copy())
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rows, cols, r", [
    (5, 5, 0), (5, 5, 1), (5, 5, 5),  # r = 0, 1, rows
    (4, 9, 1), (4, 9, 4), (9, 4, 3),  # non-square sources
    (600, 7, 2),  # wide enough that blocks hold fewer than BLOCK pairs
    (30, 40, rngutil._NETWORK_ROWS), (40, 30, rngutil._NETWORK_ROWS + 1),  # network, np.sort
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


def scalar_bernoulli(rng, p, count):
    """One sample of ``count`` Bernoulli(p) indicators, drawn on its own:
    no draw for p in {0, 1} or count = 0, else one uint64 draw per
    index set below the denominator, compared against the numerator."""
    if count == 0 or p.denominator == 1:
        return tuple([p == 1] * count)
    draws = rng.integers(0, p.denominator, size=count, dtype=np.uint64)
    return tuple((draws < p.numerator).tolist())


@pytest.mark.parametrize("p", ["1/3", "2/5", "5/1099511627777", "1/18446744073709551616"])
@pytest.mark.parametrize("count", [1, 10, 300])  # 300: blocks narrower than BLOCK
def test_bernoulli_blocks_equal_per_sample_draws(p, count):
    p = Fraction(p)
    scalar, block, single = (rngutil.generator(13) for _ in range(3))
    want = [scalar_bernoulli(scalar, p, count) for _ in range(SAMPLES)]
    blocks = list(rngutil.bernoulli_blocks(block, p, count, SAMPLES))
    step = min(rngutil.BLOCK, rngutil.BLOCK * 256 // count)
    assert [len(b) for b in blocks] == [step] * (SAMPLES // step) + [SAMPLES % step]
    assert all(b.shape[1] == count and b.dtype == bool for b in blocks)
    assert rows_of(blocks) == want
    assert [tuple(rngutil.bernoulli_mask(single, p, count).tolist())
            for _ in range(SAMPLES)] == want
    assert_same_state(scalar, block, single)


@pytest.mark.parametrize("p, count", [("0", 10), ("1", 10), ("1/3", 0),
                                      ("1/100000000000000000000", 0)])
def test_certain_bernoulli_blocks_draw_nothing(p, count):
    p = Fraction(p)
    block = rngutil.generator(17)
    rows = rows_of(rngutil.bernoulli_blocks(block, p, count, SAMPLES))
    assert rows == [tuple([p == 1] * count)] * SAMPLES
    assert rngutil.bernoulli_mask(block, p, count).tolist() == [p == 1] * count
    assert_same_state(rngutil.generator(17), block)


def test_bernoulli_blocks_refuse_denominators_past_64_bits_before_drawing():
    block = rngutil.generator(19)
    with pytest.raises(ValueError, match=r"denominator <= 2\^64"):
        next(rngutil.bernoulli_blocks(block, Fraction(1, 2**64 + 1), 5, 3))
    with pytest.raises(ValueError, match=r"denominator <= 2\^64"):
        rngutil.bernoulli_mask(block, Fraction(3, 10**20), 5)
    assert_same_state(rngutil.generator(19), block)


def random_tally(rng):
    """(value, multiplicity) pairs over mixed denominators, ints among
    the values, and at times one value listed in several pairs."""
    pairs = []
    for _ in range(rng.randrange(1, 8)):
        value = (rng.randrange(-40, 40) if rng.random() < 0.3
                 else Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)))
        pairs.append((value, rng.randrange(1, 10**5)))
    if rng.random() < 0.3:
        pairs.append((pairs[0][0], rng.randrange(1, 10)))
    return pairs


@pytest.mark.parametrize("tally", [
    [(Fraction(5, 7), 1)],  # one sample: SE 0.0
    [(3, 1)],
    [(Fraction(2, 3), 40)],  # zero variance
    [(Fraction(1, 3), 2), (Fraction(2, 6), 5)],  # one value, two pairs
    [(Fraction(2, 3) ** c, c + 1) for c in range(40)],  # the sigma estimator's shape
    [(Fraction(ones, 36), 1 + ones % 5) for ones in range(37)],  # sample-density's
    [(10**30, 2), (-(10**30), 3), (1, 7)],
])
def test_mean_and_se_equals_the_fraction_loop(tally):
    mean, se = rngutil.mean_and_se(iter(tally))
    want_mean, want_se = oracles.mean_and_se_naive(tally)
    assert mean == want_mean and type(mean) is Fraction
    assert se == want_se and type(se) is float


def test_mean_and_se_equals_the_fraction_loop_on_random_tallies():
    rng = random.Random(1212)
    for _ in range(300):
        tally = random_tally(rng)
        assert rngutil.mean_and_se(tally) == oracles.mean_and_se_naive(tally)
        # the same values as integer numerators over their common denominator
        scale = math.lcm(*(Fraction(value).denominator for value, _ in tally))
        numerators = [(int(value * scale), ways) for value, ways in tally]
        assert rngutil.mean_and_se(iter(numerators), scale) == oracles.mean_and_se_naive(tally)
