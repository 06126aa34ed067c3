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
loop, which costs about ten times the raw words a block spends, so each
call that shuffles takes its draws from one draw stream (``_draws``)
that replays that call from raw PCG64 words.  numpy's bounding step is
Lemire's multiply-and-shift on a 32-bit half ("Fast random integer
generation in an interval", 2019): a half u and a span s give the draw
(u * s) >> 32, redrawn when the low 32 bits of u * s fall below
2^32 mod s.  A stream tiles the spans and those floors to a block once
(``_tiles``); each block is then one ``random_raw``, one flat multiply
and one floor check.  The words split into halves through a
little-endian view (``_halves``), low half first as numpy takes them,
so the split is the same on a host of either byte order.

A stream reads the generator's state once, when it starts, and writes
it at most once, when it ends.  ``random_raw`` leaves numpy's last
drawn half where numpy would have overwritten it, and that stale half
is part of the state, so the end of the stream writes the one numpy
would have left.  numpy draws a block itself when a half is buffered,
when the count of draws is odd, when a span is 1 or past 2^32, or when
a draw would be redrawn: the stream then rewinds the block's words with
``bit_generator.advance`` and calls ``integers``.  Between two blocks
the generator belongs to the stream; a draw made from it there would
leave the stream out of step.  The shuffles run in (n, B)
position-major arrays, one row per slot, so each Fisher-Yates step
moves whole rows.

One stream of shuffle draws can be consumed two ways, from the same
blocks: as permutations (``permutation_blocks``), or as one int64 code
per sample (``permutation_codes``, n <= 20), the mixed-radix number of
its n - 1 draws, in [0, n!), taken straight from the stream's draws.
``code_permutations`` turns codes back into the permutations
``permutation_blocks`` would have yielded.  The sigma estimator takes
codes for n <= 8, where a table of all n! codes is at most 40,320
entries.

tests/test_rngutil.py pins all three against per-sample loops, the
stream (through its one-block form ``_bounded``) against ``integers``
itself, and the decoded codes against ``permutation_blocks``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

BLOCK = 2048  # samples per RNG call and per block-kernel call


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


# Tiles of at most this many draws, 768 KB, are cached; a stream whose
# blocks hold more builds its own.  Blocks of subset pairs hold more only
# past r = 32,768, and blocks of shuffles only past n = 33.
_CACHED_DRAWS = 1 << 16


@functools.lru_cache(maxsize=8)
def _tiles(spans: tuple[int, ...], size: int) -> tuple[np.ndarray, np.ndarray]:
    """The spans of ``size`` samples' draws in stream order (uint64),
    and the floors 2^32 mod span below which numpy redraws (uint32).
    Read-only, since the cache shares them: it holds at most 8 entries
    of ``_CACHED_DRAWS`` draws, 12 bytes each, so at most 6 MB."""
    spans = np.array(spans, np.uint64)
    tiles = np.tile(spans, size), np.tile((2**32 % spans).astype(np.uint32), size)
    for tile in tiles:
        tile.flags.writeable = False
    return tiles


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of uint64 ``words``, low half first, as numpy
    spends them: a free view on a little-endian host, a byte-swapping
    copy on a big-endian one."""
    return words.astype("<u8", copy=False).view("<u4")


def _draws(rng: np.random.Generator, spans: np.ndarray, sizes: Iterable[int],
           by_step: bool = False):
    """Yield, for each size in ``sizes`` (which never grow), the values
    of ``rng.integers(0, spans, size=(size, len(spans)))`` as an int64
    block, C-contiguous, or transposed to one row per step when
    ``by_step``; and leave the generator in numpy's state once the
    stream is exhausted or closed.

    With no half buffered, an even count of draws and every span in
    [2, 2^32), a block is the halves u of ``random_raw`` words scaled by
    the tiled spans, (u * span) >> 32, unless the low 32 bits of some
    u * span fall below its floor: numpy would have redrawn there, so
    the words are rewound and numpy draws the block.  Rewinding with
    ``advance`` also clears the buffered half, which is safe since no
    half was buffered.  numpy draws every other block too, and the
    state is read after each such block, which may leave a half
    buffered.  No other draw may be made from ``rng`` until the stream
    ends.
    """
    bitgen = rng.bit_generator
    width = len(spans)
    raw = width > 0 and spans.min() >= 2 and spans.max() < 2**32
    buffered = bitgen.state["has_uint32"]
    tiles = stale = None
    try:
        for size in sizes:
            count = size * width
            if raw and count and count % 2 == 0 and not buffered:
                if tiles is None:  # the first block is the largest
                    build = _tiles if count <= _CACHED_DRAWS else _tiles.__wrapped__
                    tiles = build(tuple(spans.tolist()), size)
                words = bitgen.random_raw(count // 2)
                m = _halves(words) * tiles[0][:count]
                if not (m.astype(np.uint32) < tiles[1][:count]).any():
                    stale = int(words[-1] >> 32)
                    m = m.reshape(size, width)
                    if by_step:
                        m = np.right_shift(m.T, 32, order="C")
                    else:
                        m >>= 32
                    yield m.view(np.int64)
                    continue
                bitgen.advance(-len(words))
            stale = None
            draws = rng.integers(0, spans, size=(size, width))
            buffered = bitgen.state["has_uint32"]
            yield np.ascontiguousarray(draws.T) if by_step else draws
    finally:
        if stale is not None:  # the last block was raw words
            state = bitgen.state
            state["uinteger"] = stale
            bitgen.state = state


def _bounded(rng: np.random.Generator, lows: np.ndarray, highs: np.ndarray,
             size: int) -> np.ndarray:
    """``rng.integers(lows, highs, size=(size, len(lows)))``: the same
    int64 values, and the generator left in the same state, as a
    one-block ``_draws`` stream offset by ``lows``."""
    (draws,) = _draws(rng, highs - lows, [size])
    return draws + lows


def _shuffled(n: int, draws: np.ndarray) -> np.ndarray:
    """Copies of range(n), one per column of the (steps, B) ``draws``,
    each after the Fisher-Yates swaps of slot i with slot
    i + draws[i, s], for i = 0, 1, ... in turn, as an (n, B)
    position-major array: column s is copy s.

    Step i copies row i and swaps it, through flat indices
    (i + draws[i, s]) * B + s, with the rows the draws name, so every
    step reads and writes whole rows.
    """
    size = draws.shape[1]
    pos = np.repeat(np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0))), size)
    slots = draws * size
    slots += np.arange(slots.size).reshape(slots.shape)
    for i in range(len(slots)):
        held = pos[i * size:(i + 1) * size].copy()
        pos[i * size:(i + 1) * size] = pos[slots[i]]
        pos[slots[i]] = held
    return pos.reshape(n, size)


def _fisher_yates_draws(rng: np.random.Generator, n: int, samples: int,
                        by_step: bool = False):
    """The draw stream of ``samples`` full Fisher-Yates shuffles of
    range(n), step i drawing ``integers(i, n)`` less i, as (B, n - 1)
    int64 blocks, or (n - 1, B) ones ``by_step``: the one stream that
    both ``permutation_blocks`` and ``permutation_codes`` consume."""
    return _draws(rng, np.arange(n, 1, -1), _block_sizes(samples, n), by_step)


def permutation_blocks(rng: np.random.Generator, n: int, samples: int):
    """Yield ``samples`` uniformly random permutations of range(n) as
    (B, n) blocks, one permutation per row (uint8 for n <= 256).  Each
    block is the transposed view of a position-major array, so
    ``blk.T`` is C-contiguous."""
    for draws in _fisher_yates_draws(rng, n, samples, by_step=True):
        yield _shuffled(n, draws).T


def _code_places(n: int) -> np.ndarray:
    """Place values (n - 1 - i)! of the shuffle codes' digits, as int64,
    refused past n = 20, where a code would not fit."""
    if n > 20:
        raise ValueError(f"shuffle codes fit int64 only for n <= 20, got n = {n}")
    return np.array([math.factorial(n - 1 - i) for i in range(max(n - 1, 0))], np.int64)


def permutation_codes(rng: np.random.Generator, n: int, samples: int):
    """Yield the shuffles of :func:`permutation_blocks`, drawn from the
    same blocks of the same stream, as int64 codes in [0, n!), n <= 20
    (a larger n is refused before any draw).

    Step i of a shuffle draws d_i in [i, n), and its code is the
    mixed-radix number sum_i (d_i - i) (n - 1 - i)!: a bijection of
    the draws onto [0, n!), which :func:`code_permutations` inverts.
    The stream's draws are the digits d_i - i themselves.
    """
    places = _code_places(n)
    for draws in _fisher_yates_draws(rng, n, samples):
        yield draws @ places


def code_permutations(n: int, codes: np.ndarray) -> np.ndarray:
    """The permutations of range(n) that ``permutation_codes`` yields as
    ``codes``, as the (B, n) block ``permutation_blocks`` yields for
    the same draws; n <= 20."""
    places = _code_places(n)
    rest = np.asarray(codes, np.int64)
    digits = np.empty((len(places), len(rest)), np.int64)  # one row per step
    for i, place in enumerate(places.tolist()):
        digits[i], rest = np.divmod(rest, place)
    return _shuffled(n, digits).T


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
    spans = np.concatenate([np.arange(rows, rows - r, -1), np.arange(cols, cols - r, -1)])
    sizes = _block_sizes(trials, max(rows, cols, r * r))
    for draws in _draws(rng, spans, sizes, by_step=True):
        yield tuple(
            _sorted_rows(_shuffled(n, draws[h * r:(h + 1) * r])[:r]).T
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
