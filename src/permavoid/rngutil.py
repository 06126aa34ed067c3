"""Seeded, cross-platform random streams and the exact arithmetic of
the estimators built on them.

All randomness in the package flows through numpy's PCG64 bit generator,
and every derived draw (subset selection, permutation shuffling,
Bernoulli trials) is implemented here on top of ``Generator.integers``
alone, or replays its values exactly (below).  PCG64 produces an
identical stream for a given seed on every platform, and the algorithms
below are fixed by this module, so a seed pins all outputs bit-for-bit.

The Monte-Carlo draws come in blocks of up to ``BLOCK`` samples, each
block holding the values of one ``integers`` call with array bounds
broadcast to a (samples, steps) shape.  That call returns exactly the
values of the scalar calls ``integers(low, high)`` made one sample
after another, in row-major order: numpy bounds each element by itself
and PCG64 hands out its 32-bit halves the same way on both paths.  So
the stream is the per-sample one:

  * a permutation of range(n) is the full Fisher-Yates shuffle,
    draws ``integers(i, n)`` for i = 0 .. n-2, swapping slots i and
    the draw;
  * a row/column subset pair is a partial Fisher-Yates of r steps,
    ``integers(i, rows)`` for i = 0 .. r-1, then r steps
    ``integers(i, cols)``, each subset being its first r slots sorted;
  * a row of Bernoulli(p) indicators is one draw
    ``integers(0, denominator, size=count)``, compared against the
    numerator.

With array bounds numpy bounds one element per pass of a broadcast
loop, which costs about ten times the raw words a block spends, so the
shuffles' draws replay that call from raw PCG64 words (``_bounded``).
numpy's bounding step is Lemire's multiply-and-shift on a 32-bit half
("Fast random integer generation in an interval", 2019), which
whole-array ops reproduce as long as no draw would be redrawn.  When
one would, when a half is left buffered, when the count of draws is
odd, when a span is 1, or on a big-endian host, numpy draws the block
itself.  The shuffles then run in (n, B) position-major arrays, one row
per slot, so each Fisher-Yates step moves whole rows.

One stream of shuffle draws can be consumed two ways, from the same
blocks: as permutations (``permutation_blocks``), or as one int64 code
per sample (``permutation_codes``), the mixed-radix number of its n - 1
draws, in [0, n!).  ``code_permutations`` turns codes back into the
permutations ``permutation_blocks`` would have yielded.  The sigma
estimator takes codes for n <= 8, where a table of all n! codes is at
most 40,320 entries.

tests/test_rngutil.py pins all three against per-sample loops,
``_bounded`` against ``integers`` itself, and the decoded codes against
``permutation_blocks``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable

import numpy as np

BLOCK = 2048  # samples per RNG call and per block-kernel call
_LITTLE_ENDIAN = sys.byteorder == "little"


def generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def exact_probability(alpha: "Fraction | int | str") -> Fraction:
    """``alpha`` as an exact rational, refused unless it lies in [0, 1]."""
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    return alpha


def mean_and_se(tally: Iterable[tuple[Fraction | int, int]],
                denominator: int = 1) -> tuple[Fraction, float]:
    """Exact mean and float standard error (0.0 for one sample) of a
    tally of (numerator, multiplicity) pairs over one common
    ``denominator``: the reduction behind every estimator.  Pairs, not
    a mapping, since outcomes may share a value.  Integer numerators
    keep the sums in integers; only the mean and variance are
    ``Fraction``s.
    """
    m = total = squares = 0
    for value, ways in tally:
        m += ways
        total += ways * value
        squares += ways * value * value
    mean = Fraction(total, m * denominator)
    if m == 1:
        return mean, 0.0
    var = Fraction(m * squares - total * total, m * (m - 1) * denominator * denominator)
    return mean, math.sqrt(max(0.0, float(var)) / m)


def _block_sizes(total: int, width: int):
    """Split ``total`` samples into blocks of ``BLOCK``, or of fewer
    when a sample spans more than 256 array cells, so that no block's
    arrays grow past about ``BLOCK`` * 256 cells."""
    step = max(1, min(BLOCK, BLOCK * 256 // max(width, 1)))
    for start in range(0, total, step):
        yield min(step, total - start)


def _bounded(rng: np.random.Generator, lows: np.ndarray, highs: np.ndarray,
             size: int) -> np.ndarray:
    """``rng.integers(lows, highs, size=(size, len(lows)))``: the same
    int64 values, and the generator left in the same state.

    numpy bounds each element by Lemire's method on the next 32-bit half
    of the stream: m = u * span, the value low + (m >> 32), and a redraw
    when the low 32 bits of m fall below 2^32 mod span.  With no half
    buffered, an even count of draws and every span in [2, 2^32), this
    spends ``random_raw`` words low half first, as numpy does, in
    whole-array ops over a (steps, size) layout, and sets the buffered
    half numpy would have left behind.  If any draw would have been
    redrawn, the state is restored and numpy draws the block; in every
    other case, and on a big-endian host, numpy draws it to begin with.
    """
    spans = highs - lows
    count = size * len(spans)
    bitgen = rng.bit_generator
    if (count and count % 2 == 0 and _LITTLE_ENDIAN
            and spans.min() >= 2 and spans.max() < 2**32):
        state = bitgen.state
        if not state["has_uint32"]:
            words = bitgen.random_raw(count // 2)
            halves = words.view(np.uint32).reshape(size, len(spans)).T
            m = np.multiply(halves, spans.astype(np.uint64)[:, None], order="C")
            floors = (2**32 % spans).astype(np.uint32)[:, None]
            if not (m.astype(np.uint32) < floors).any():
                after = bitgen.state
                after["uinteger"] = int(words[-1] >> 32)
                bitgen.state = after
                m >>= 32
                values = m.view(np.int64)
                values += lows[:, None]
                return values.T
            bitgen.state = state
    return rng.integers(lows, highs, size=(size, len(spans)))


def _shuffled(size: int, n: int, draws: np.ndarray) -> np.ndarray:
    """``size`` copies of range(n) after the Fisher-Yates swaps of slot
    i with slot draws[:, i], for i = 0, 1, ... in turn, as an (n, size)
    position-major array: column s is copy s.

    Step i copies row i and swaps it, through flat indices
    draws[:, i] * size + s, with the rows the draws name, so every step
    reads and writes whole rows.
    """
    pos = np.repeat(np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0))), size)
    slots = draws.T * size + np.arange(size)
    for i in range(draws.shape[1]):
        held = pos[i * size:(i + 1) * size].copy()
        pos[i * size:(i + 1) * size] = pos[slots[i]]
        pos[slots[i]] = held
    return pos.reshape(n, size)


def _fisher_yates_draws(rng: np.random.Generator, n: int, samples: int):
    """Yield the draws of ``samples`` full Fisher-Yates shuffles of
    range(n), ``integers(i, n)`` at step i, as (B, n - 1) int64 blocks:
    the one stream that both ``permutation_blocks`` and
    ``permutation_codes`` consume."""
    steps = np.arange(max(n - 1, 0))
    highs = np.full_like(steps, n)
    for size in _block_sizes(samples, n):
        yield _bounded(rng, steps, highs, size)


def permutation_blocks(rng: np.random.Generator, n: int, samples: int):
    """Yield ``samples`` uniformly random permutations of range(n) as
    (B, n) blocks, one permutation per row (uint8 for n <= 256).  Each
    block is the transposed view of a position-major array, so
    ``blk.T`` is C-contiguous."""
    for draws in _fisher_yates_draws(rng, n, samples):
        yield _shuffled(len(draws), n, draws).T


def _code_places(n: int) -> np.ndarray:
    """Place values (n - 1 - i)! of the shuffle codes' digits, as int64:
    past n = 20 a code would not fit, and past n = 21 neither would
    its places (OverflowError)."""
    return np.array([math.factorial(n - 1 - i) for i in range(max(n - 1, 0))], np.int64)


def permutation_codes(rng: np.random.Generator, n: int, samples: int):
    """Yield the shuffles of :func:`permutation_blocks`, drawn from the
    same blocks of the same stream, as int64 codes in [0, n!), n <= 20.

    Step i of a shuffle draws d_i in [i, n), and its code is the
    mixed-radix number sum_i (d_i - i) (n - 1 - i)!: a bijection of
    the draws onto [0, n!), which :func:`code_permutations` inverts.
    """
    places = _code_places(n)
    offset = int(np.arange(len(places)) @ places)
    for draws in _fisher_yates_draws(rng, n, samples):
        codes = draws @ places
        codes -= offset
        yield codes


def code_permutations(n: int, codes: np.ndarray) -> np.ndarray:
    """The permutations of range(n) that ``permutation_codes`` yields as
    ``codes``, as the (B, n) block ``permutation_blocks`` yields for
    the same draws."""
    rest = np.asarray(codes, np.int64)
    draws = np.empty((max(n - 1, 0), len(rest)), np.int64)  # one row per step
    for i, place in enumerate(_code_places(n).tolist()):
        draws[i], rest = np.divmod(rest, place)
        draws[i] += i
    return _shuffled(len(rest), n, draws.T).T


def subset_pair_blocks(
    rng: np.random.Generator, rows: int, cols: int, r: int, trials: int
):
    """Yield ``trials`` uniformly random pairs of an r-subset of
    range(rows) and an r-subset of range(cols), as blocks of two sorted
    (B, r) index arrays.  Needs 0 <= r <= min(rows, cols).

    Each subset is the first r rows of a position-major shuffle, sorted
    down the columns by ``_sorted_rows``.  A block's pools are B x rows
    and B x cols and the submatrices its pairs induce B x r x r, so all
    three bound its size.
    """
    lows = np.tile(np.arange(r), 2)
    highs = np.repeat([rows, cols], r)
    for size in _block_sizes(trials, max(rows, cols, r * r)):
        draws = _bounded(rng, lows, highs, size)
        yield tuple(
            _sorted_rows(_shuffled(size, n, draws[:, h * r:(h + 1) * r])[:r]).T
            for h, n in enumerate((rows, cols))
        )


# Rows up to which an odd-even transposition network beats np.sort(axis=0).
# Per (r, B) block of shuffled slots, in µs on a 2-core x86-64 host with
# numpy 2.4.6, network against sort: uint8 pools, r = 6: 26 against
# 145; r = 32 (B = 512): 205 against 341; r = 48 (B = 227): 261 against
# 235.  uint16 pools (more than 256 rows or columns), r = 8 (B = 1747): 51
# against 105; r = 12: 106 against 109; r = 16: 172 against 117.  So 10
# keeps both types on the network's winning side.
_NETWORK_ROWS = 10


def _sorted_rows(slots: np.ndarray) -> np.ndarray:
    """Each column of an (r, B) array sorted ascending down its rows.

    Up to ``_NETWORK_ROWS`` rows this sorts in place with an odd-even
    transposition network: r rounds, each one compare-exchange of every
    row pair (i, i + 1) with i of the round's parity, done on strided
    row views, so its numpy calls grow as r and its work as r^2.  Past
    that it is ``np.sort(slots, axis=0)``.
    """
    r = len(slots)
    if r > _NETWORK_ROWS:
        return np.sort(slots, axis=0)
    for step in range(r):
        start = step % 2
        stop = r - (r - start) % 2
        upper, lower = slots[start:stop:2], slots[start + 1:stop:2]
        low = np.minimum(upper, lower)
        np.maximum(upper, lower, out=lower)
        upper[...] = low
    return slots


def bernoulli_blocks(rng: np.random.Generator, p: Fraction, count: int, samples: int):
    """Yield ``samples`` rows of ``count`` exact Bernoulli(p) indicators
    for a rational p, as (B, count) bool blocks.

    Each block is one draw of integers uniform on [0, denominator),
    compared against the numerator, so the success probability is
    exactly p with no floating rounding even for p like 1/3.  p = 0,
    p = 1 and count = 0 draw nothing.  numpy draws these integers as
    uint64, so a denominator above 2^64 is refused before any draw.
    """
    p = exact_probability(p)
    certain = p.denominator == 1 or count == 0
    if not certain and p.denominator > 2**64:
        raise ValueError(f"alpha {p} has a denominator above 2^64; exact Bernoulli "
                         "draws need denominator <= 2^64")
    for size in _block_sizes(samples, count):
        if certain:
            yield np.full((size, count), p == 1)
        else:
            draws = rng.integers(0, p.denominator, size=(size, count), dtype=np.uint64)
            yield draws < p.numerator


def bernoulli_mask(rng: np.random.Generator, p: Fraction, count: int) -> np.ndarray:
    """``count`` exact Bernoulli(p) indicators: one sample of
    :func:`bernoulli_blocks`."""
    return next(bernoulli_blocks(rng, p, count, 1))[0]
