"""Seeded, cross-platform random streams and the exact arithmetic of
the estimators built on them.

All randomness in the package flows through numpy's PCG64 bit generator,
and every derived draw (subset selection, permutation shuffling,
Bernoulli trials) is implemented here on top of ``Generator.integers``
alone.  PCG64 produces an identical stream for a given seed on every
platform, and the algorithms below are fixed by this module, so a seed
pins all outputs bit-for-bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np


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


def sample_indices(rng: np.random.Generator, n: int, r: int) -> tuple[int, ...]:
    """A uniformly random r-subset of range(n), returned sorted.

    Partial Fisher-Yates: r swap steps on [0..n-1], each consuming one
    ``integers`` draw, then the first r slots sorted.  Fixed here rather
    than delegated to ``Generator.choice`` so the draw sequence is part
    of this package's contract.
    """
    if not 0 <= r <= n:
        raise ValueError(f"cannot sample {r} of {n} indices")
    pool = list(range(n))
    for i in range(r):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:r]))


def random_permutation_zero(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    """A uniformly random permutation of range(n) (full Fisher-Yates)."""
    vals = list(range(n))
    for i in range(n - 1):
        j = int(rng.integers(i, n))
        vals[i], vals[j] = vals[j], vals[i]
    return tuple(vals)


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
