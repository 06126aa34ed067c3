"""Permutations, patterns, and occurrence counting.

A permutation is stored in one-line notation with 1-based values, so
``Permutation((2, 4, 1, 3))`` is the map 1->2, 2->4, 3->1, 4->3.  A
pattern pi of length k occurs in sigma at positions x_1 < ... < x_k
when the values sigma(x_1), ..., sigma(x_k) are order-isomorphic to
pi.  Everything downstream (hypergraph avoidance, matrix copies, the
grid formulation) reduces to the occurrence tests and counts defined
here.

Indexing is 1-based at the API surface and in all I/O; the kernels
work 0-based internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as _lex_permutations
from typing import Iterable, Iterator

from . import kernels
from .config import check_limit


def as_int(value, what: str) -> int:
    """``value`` as an int; bools, floats and strings are refused rather
    than truncated or parsed.  Numpy integers are accepted."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> p = Permutation((2, 4, 1, 3))
    >>> p(1), p(2)
    (2, 4)
    >>> len(Permutation(()))
    0
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(as_int(v, "permutation value") for v in self.values)
        object.__setattr__(self, "values", vals)
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(
                f"not a permutation of 1..{len(vals)}: {vals!r}"
            )

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation like ``"2,4,1,3"``.

        Whitespace may be used instead of (or alongside) commas.
        Blank text is rejected: the empty permutation exists as
        ``Permutation(())``, but blank input is invariably a mistake.
        """
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise ValueError("empty permutation text")
        vals = []
        for pos, tok in enumerate(tokens, start=1):
            try:
                vals.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"invalid permutation text at token {pos}: {tok!r}"
                ) from None
        return cls(tuple(vals))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.values)

    def __str__(self) -> str:
        return self.to_text()

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __call__(self, i: int) -> int:
        """Apply the permutation to a 1-based position."""
        return self.values[i - 1]

    @cached_property
    def zero_based(self) -> tuple[int, ...]:
        """The same permutation over {0..n-1}, as consumed by kernels."""
        return tuple(v - 1 for v in self.values)

    def reverse(self) -> "Permutation":
        """Read the positions right-to-left: (2,4,1,3) -> (3,1,4,2).

        Occurrences transform covariantly: sigma.reverse() contains
        pi.reverse() exactly as often as sigma contains pi.
        """
        return Permutation(self.values[::-1])


PermLike = Permutation | Iterable[int]


def as_permutation(p: PermLike) -> Permutation:
    """Coerce a Permutation, or any iterable of 1-based values, to a Permutation."""
    if isinstance(p, Permutation):
        return p
    return Permutation(tuple(p))


def _walk(sigma: PermLike, pi: PermLike):
    """The occurrence walk of pi in sigma, refused first when its
    projected work C(n,k) * k passes the cost ceiling."""
    s = as_permutation(sigma)
    p = as_permutation(pi)
    cost = math.comb(len(s), len(p)) * len(p)
    check_limit("cost_ceiling", cost)
    return kernels.occurrences(s.zero_based, p.zero_based)


def count_occurrences(sigma: PermLike, pi: PermLike) -> int:
    """Number of occurrences of pi in sigma.

    >>> count_occurrences((2, 4, 1, 3), (1, 2))
    3
    >>> count_occurrences(Permutation.identity(5), (1, 2, 3))
    10
    """
    return sum(1 for _ in _walk(sigma, pi))


def enumerate_occurrences(sigma: PermLike, pi: PermLike) -> tuple[tuple[int, ...], ...]:
    """All occurrences of pi in sigma as 1-based index tuples.

    Tuples are strictly increasing and listed in lexicographic order.

    >>> enumerate_occurrences((2, 4, 1, 3), (1, 2))
    ((1, 2), (1, 4), (3, 4))
    """
    return tuple(tuple(x + 1 for x in occ) for occ in _walk(sigma, pi))


def enumerate_permutations(n: int, prefix: Iterable[int] = ()) -> Iterator[Permutation]:
    """Yield permutations of {1..n} in lexicographic order.

    ``prefix`` restricts the stream to permutations beginning with the
    given distinct values; disjoint prefixes give disjoint blocks of
    the full stream, so a sweep of S_n can be split by prefix.
    Guarded by the enumeration cap.
    """
    check_limit("enum_cap", n)
    pre = tuple(as_int(v, "prefix value") for v in prefix)
    if len(set(pre)) != len(pre) or not all(1 <= v <= n for v in pre):
        raise ValueError(f"prefix must be distinct values in 1..{n}: {pre!r}")
    rest = [v for v in range(1, n + 1) if v not in set(pre)]
    for tail in _lex_permutations(rest):
        yield Permutation(pre + tail)


@dataclass(frozen=True)
class CopyCountDistribution:
    """Histogram of S_n by the number of copies of a pattern.

    ``histogram[c]`` is the number of sigma in S_n with exactly c
    occurrences of ``pattern``; the values partition S_n, and every
    key lies in 0..C(n,k).
    """

    n: int
    pattern: Permutation
    histogram: dict[int, int]

    def __post_init__(self) -> None:
        total = sum(self.histogram.values())
        if total != math.factorial(self.n):
            raise ValueError(
                f"histogram sums to {total}, expected {self.n}!"
            )
        top = math.comb(self.n, len(self.pattern))
        for c in self.histogram:
            if not 0 <= c <= top:
                raise ValueError(f"copy count {c} outside 0..{top}")

    def prefix_count(self, m: int) -> int:
        """Number of permutations with at most m copies."""
        return sum(v for c, v in self.histogram.items() if c <= m)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.to_text(),
            "histogram": {
                str(c): str(self.histogram[c]) for c in sorted(self.histogram)
            },
        }


def copy_count_distribution(n: int, pi: PermLike) -> CopyCountDistribution:
    """Exact copy-count histogram over all of S_n (one full pass).

    >>> copy_count_distribution(3, (1, 2)).histogram
    {0: 1, 1: 2, 2: 2, 3: 1}
    """
    check_limit("enum_cap", n)
    p = as_permutation(pi)
    hist = kernels.copy_count_histogram(n, p.zero_based)
    return CopyCountDistribution(
        n=n, pattern=p, histogram=dict(sorted(hist.items()))
    )
