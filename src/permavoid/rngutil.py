"""Seeded, cross-platform random streams and the exact arithmetic of
the estimators built on them.

All randomness in the package flows through numpy's PCG64 bit generator,
and every derived draw (subset selection, permutation shuffling,
Bernoulli trials) is implemented here on top of ``Generator.integers``
alone.  PCG64 produces an identical stream for a given seed on every
platform, and the algorithms below are fixed by this module, so a seed
pins all outputs bit-for-bit.

The Monte-Carlo draws come in blocks of up to ``BLOCK`` samples, each
block from one ``integers`` call with array bounds broadcast to a
(samples, steps) shape.  That call returns exactly the values of the
scalar calls ``integers(low, high)`` made one sample after another, in
row-major order: numpy bounds each element by itself and PCG64 hands
out its 32-bit halves the same way on both paths.  So the stream is
the per-sample one:

  * a permutation of range(n) is the full Fisher-Yates shuffle,
    draws ``integers(i, n)`` for i = 0 .. n-2, swapping slots i and
    the draw;
  * a row/column subset pair is a partial Fisher-Yates of r steps,
    ``integers(i, rows)`` for i = 0 .. r-1, then r steps
    ``integers(i, cols)``, each subset being its first r slots sorted.

tests/test_rngutil.py pins both against scalar loops.
"""

from __future__ import annotations

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


def mean_and_se(tally: Iterable[tuple[Fraction | int, int]]) -> tuple[Fraction, float]:
    """Exact mean and float standard error (0.0 for one sample) of a
    tally of (value, multiplicity) pairs: the reduction behind every
    estimator.  Pairs, not a mapping, since outcomes may share a value.
    """
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
    return mean, math.sqrt(max(0.0, float(var)) / m)


def _block_sizes(total: int, width: int):
    """Split ``total`` samples into blocks of ``BLOCK``, or of fewer
    when a sample spans more than 256 array cells, so that no block's
    arrays grow past about ``BLOCK`` * 256 cells."""
    step = max(1, min(BLOCK, BLOCK * 256 // max(width, 1)))
    for start in range(0, total, step):
        yield min(step, total - start)


def _shuffled(size: int, n: int, draws: np.ndarray) -> np.ndarray:
    """``size`` copies of range(n) after the Fisher-Yates swaps of slot
    i with slot draws[:, i], for i = 0, 1, ... in turn."""
    pool = np.tile(np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0))), (size, 1))
    rows = np.arange(size)
    for i in range(draws.shape[1]):
        j = draws[:, i]
        held = pool[:, i].copy()
        pool[:, i] = pool[rows, j]
        pool[rows, j] = held
    return pool


def permutation_blocks(rng: np.random.Generator, n: int, samples: int):
    """Yield ``samples`` uniformly random permutations of range(n) as
    (B, n) blocks, one permutation per row (uint8 for n <= 256)."""
    steps = np.arange(max(n - 1, 0))
    for size in _block_sizes(samples, n):
        yield _shuffled(size, n, rng.integers(steps, n, size=(size, len(steps))))


def subset_pair_blocks(
    rng: np.random.Generator, rows: int, cols: int, r: int, trials: int
):
    """Yield ``trials`` uniformly random pairs of an r-subset of
    range(rows) and an r-subset of range(cols), as blocks of two sorted
    (B, r) index arrays.  Needs 0 <= r <= min(rows, cols).

    A block's pools are B x rows and B x cols and the submatrices its
    pairs induce B x r x r, so all three bound its size.
    """
    lows = np.tile(np.arange(r), 2)
    highs = np.repeat([rows, cols], r)
    for size in _block_sizes(trials, max(rows, cols, r * r)):
        draws = rng.integers(lows, highs, size=(size, 2 * r))
        yield tuple(
            np.sort(_shuffled(size, n, draws[:, h * r:(h + 1) * r])[:, :r], axis=1)
            for h, n in enumerate((rows, cols))
        )


def bernoulli_mask(rng: np.random.Generator, p: Fraction, count: int) -> np.ndarray:
    """``count`` exact Bernoulli(p) indicators for a rational p.

    Draws integers uniform on [0, denominator) and compares against the
    numerator, so the success probability is exactly p with no floating
    rounding even for p like 1/3.
    """
    p = exact_probability(p)
    if count == 0:
        return np.zeros(0, dtype=bool)
    if p == 0:
        return np.zeros(count, dtype=bool)
    if p == 1:
        return np.ones(count, dtype=bool)
    draws = rng.integers(0, p.denominator, size=count, dtype=np.uint64)
    return draws < p.numerator
