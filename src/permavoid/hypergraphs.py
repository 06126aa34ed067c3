"""k-uniform hypergraphs on {1..n}: random instances, the two-part
construction with only crossing edges, and clique-cover validation.

Edges are sorted k-tuples of 1-based vertices, kept in a sorted tuple
so equality, hashing, and serialization are canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from typing import Iterable, Sequence

import numpy as np

from . import rngutil
from .config import check_limit
from .errors import CliqueCoverError, DimensionMismatchError
from .perms import as_int


def _vertices(items) -> tuple[int, ...]:
    """An edge or clique as a tuple of integer vertices."""
    try:
        return tuple(as_int(v, "vertex") for v in items)
    except TypeError:
        raise ValueError(f"{items!r} is not a list of vertices") from None


def check_dims(n: int, k: int, expected_n: int, pattern_length: int) -> None:
    """Refuse a k-uniform hypergraph on n vertices unless n is the
    permutation length ``expected_n`` and k the pattern length."""
    if n != expected_n:
        raise DimensionMismatchError(f"hypergraph has n={n}, expected {expected_n}")
    if k != pattern_length:
        raise DimensionMismatchError(
            f"hypergraph uniformity k={k} but pattern has length {pattern_length}"
        )


@dataclass(frozen=True)
class KUniformHypergraph:
    """A k-uniform hypergraph on vertex set {1..n}."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self._check_sizes()
        canon = []
        for e in self.edges:
            edge = _vertices(e)
            if len(edge) != self.k:
                raise ValueError(f"edge {edge!r} is not a {self.k}-set")
            if any(not 1 <= v <= self.n for v in edge):
                raise ValueError(f"edge {edge!r} has vertices outside 1..{self.n}")
            if list(edge) != sorted(set(edge)):
                raise ValueError(f"edge {edge!r} is not strictly increasing")
            canon.append(edge)
        canon.sort()
        for prev, cur in zip(canon, canon[1:]):
            if prev == cur:
                raise ValueError(f"duplicate edge {cur!r}")
        object.__setattr__(self, "edges", tuple(canon))

    def _check_sizes(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "n"))
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.n < 0 or self.k < 1:
            raise ValueError("need n >= 0 and k >= 1")

    @classmethod
    def _trusted(
        cls, n: int, k: int, edges: tuple[tuple[int, ...], ...]
    ) -> "KUniformHypergraph":
        """A hypergraph from edges the package took, in order, from
        ``combinations(range(1, n + 1), k)``: increasing k-tuples in
        range, distinct and in lex order, so only n and k are checked.
        Input from outside goes through the public constructor."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "k", k)
        object.__setattr__(h, "edges", edges)
        h._check_sizes()
        return h

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == math.comb(self.n, self.k)

    def zero_based_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edges shifted to 0-based vertices, for the kernels."""
        return tuple(tuple(v - 1 for v in e) for e in self.edges)

    @classmethod
    def complete(cls, n: int, k: int) -> "KUniformHypergraph":
        return cls._trusted(n, k, tuple(combinations(range(1, n + 1), k)))

    @classmethod
    def empty(cls, n: int, k: int) -> "KUniformHypergraph":
        return cls(n, k, ())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KUniformHypergraph":
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ValueError(f"edges must be a list of vertex lists, got {edges!r}")
        return cls(n=data["n"], k=data["k"], edges=tuple(edges))

    @classmethod
    def from_text(cls, text: str) -> "KUniformHypergraph":
        """Text format: a "n k" header, then one edge per line."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("line 1: missing 'n k' header")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"line 1: header must be 'n k', got {lines[0]!r}")
        try:
            n, k = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"line 1: non-integer header {lines[0]!r}") from None
        edges = []
        for i, ln in enumerate(lines[1:], start=2):
            try:
                edges.append(tuple(int(tok) for tok in ln.replace(",", " ").split()))
            except ValueError:
                raise ValueError(f"line {i}: non-integer vertex in {ln!r}") from None
        return cls(n, k, tuple(edges))


def random_uniform_hypergraph(
    n: int,
    k: int,
    alpha: "Fraction | int | str",
    rng: "np.random.Generator | int",
) -> KUniformHypergraph:
    """Include each of the C(n,k) possible edges independently with
    probability alpha.

    ``alpha`` is an exact rational (so the Bernoulli draws are exact
    integer comparisons, identical on every platform for a fixed
    seed); ``rng`` is a seed or a generator.  One indicator is drawn
    per candidate, so C(n,k) is checked against the edge ceiling first;
    the candidates themselves are streamed, never listed.
    """
    alpha = rngutil.exact_probability(alpha)
    if k > n:
        raise ValueError(f"uniformity k={k} exceeds vertex count n={n}")
    count = math.comb(n, k)
    check_limit("edge_ceiling", count)
    if isinstance(rng, int):
        rng = rngutil.generator(rng)
    mask = rngutil.bernoulli_mask(rng, alpha, count)
    edges = compress(combinations(range(1, n + 1), k), mask)
    return KUniformHypergraph._trusted(n, k, tuple(edges))


def multipartite_lambda_star(n: int, k: int) -> KUniformHypergraph:
    """The two-part hypergraph whose edges are exactly the k-sets not
    contained in a single part.

    Parts are {1..n/2} and {n/2+1..n}; the edge count is
    C(n,k) - 2*C(n/2,k).  All C(n,k) k-sets are listed, so their
    number is checked against the edge ceiling first.

    >>> multipartite_lambda_star(4, 2).edges
    ((1, 3), (1, 4), (2, 3), (2, 4))
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    half = n // 2
    if k > half:
        raise ValueError(f"k={k} exceeds part size {half}")
    check_limit("edge_ceiling", math.comb(n, k))
    edges = [
        e
        for e in combinations(range(1, n + 1), k)
        if not (e[-1] <= half or e[0] > half)
    ]
    return KUniformHypergraph._trusted(n, k, tuple(edges))


@dataclass(frozen=True)
class CliqueCover:
    """A validated collection of same-size cliques covering every vertex.

    ``min_membership``/``max_membership`` are the extremes, over
    vertices, of how many cliques contain that vertex.
    """

    clique_size: int
    cliques: tuple[tuple[int, ...], ...]
    min_membership: int
    max_membership: int


def validate_clique_cover(
    h: KUniformHypergraph, cliques: Sequence[Iterable[int]]
) -> CliqueCover:
    """Check that every claimed clique is complete in ``h`` and that
    every vertex is covered; raise CliqueCoverError (with the failing
    witness) otherwise.
    """
    if not cliques:
        raise CliqueCoverError("empty clique collection")
    canon = [tuple(sorted(_vertices(c))) for c in cliques]
    size = len(canon[0])
    for c in canon:
        if len(c) != size:
            raise CliqueCoverError(
                f"clique sizes differ: {len(c)} vs {size}", witness=c
            )
        if len(set(c)) != len(c) or any(not 1 <= v <= h.n for v in c):
            raise CliqueCoverError(
                f"clique {c!r} is not a set of vertices in 1..{h.n}", witness=c
            )
    if size < h.k:
        raise CliqueCoverError(f"clique size {size} is below uniformity {h.k}")
    for c in canon:
        for sub in combinations(c, h.k):
            if sub not in h.edge_set:
                raise CliqueCoverError(
                    f"clique {c!r} is missing edge {sub!r}", witness=sub
                )
    membership = {v: 0 for v in range(1, h.n + 1)}
    for c in canon:
        for v in c:
            membership[v] += 1
    uncovered = [v for v, m in membership.items() if m == 0]
    if uncovered:
        raise CliqueCoverError(
            f"vertex {uncovered[0]} lies in zero cliques", witness=uncovered[0]
        )
    return CliqueCover(
        clique_size=size,
        cliques=tuple(canon),
        min_membership=min(membership.values()),
        max_membership=max(membership.values()),
    )

