"""The grid-hypergraph formulation of hypergraph pattern avoidance.

Permutations of {1..n} correspond to canonical subsets of the n x n
grid (one cell per row and column, the cell (i, sigma(i))).  Build a
hypergraph H on the grid whose edges mark every placed copy of the
pattern: for each edge {x_1 < ... < x_k} of the index hypergraph and
each column choice y_1 < ... < y_k, the edge
{(x_1, y_pi(1)), ..., (x_k, y_pi(k))}.  A canonical set is independent
in H exactly when its permutation avoids the pattern over the index
hypergraph, turning avoidance questions into independent-set counting.

Grid cells are flattened to (row-1)*n + (col-1), so edges serialize as
sorted integer tuples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .config import check_limit
from .hypergraphs import KUniformHypergraph, check_dims
from .perms import PermLike, Permutation, as_permutation


def flat_index(n: int, row: int, col: int) -> int:
    """Flatten a 1-based (row, col) grid cell to 0-based row-major."""
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"cell ({row},{col}) outside the {n}x{n} grid")
    return (row - 1) * n + (col - 1)


@dataclass(frozen=True)
class PatternHypergraph:
    """A k-uniform hypergraph on the flattened n x n grid."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return self.n * self.n

    def to_json_dict(self) -> dict:
        return {
            "grid_side": self.n,
            "k": self.k,
            "edges": [list(e) for e in self.edges],
        }


def build_h(
    n: int,
    pi: PermLike,
    lam: KUniformHypergraph | None,
) -> PatternHypergraph:
    """Construct H for the pattern and index hypergraph.

    The edge count is |E(lam)| * C(n,k) exactly (one edge per index
    edge and column k-set), which is checked against the edge ceiling
    before any work happens.  ``lam=None`` stands for the complete
    hypergraph, whose C(n,k) index edges are generated on the fly.

    >>> from permavoid.hypergraphs import KUniformHypergraph
    >>> h = build_h(2, (1, 2), KUniformHypergraph.complete(2, 2))
    >>> h.edges
    ((0, 3),)
    """
    p = as_permutation(pi)
    k = len(p)
    if lam is None:
        index_edges = combinations(range(1, n + 1), k)
        projected = math.comb(n, k) ** 2  # ValueError for n < 0
    else:
        check_dims(lam.n, lam.k, n, k)
        index_edges = lam.edges
        projected = lam.edge_count * math.comb(n, k)
    check_limit("edge_ceiling", projected)
    edges = set()
    for xs in index_edges:
        for ys in combinations(range(1, n + 1), k):
            cells = tuple(
                sorted(flat_index(n, x, ys[p.values[i] - 1]) for i, x in enumerate(xs))
            )
            edges.add(cells)
    return PatternHypergraph(n=n, k=k, edges=tuple(sorted(edges)))


def canonical_set(sigma: PermLike) -> tuple[int, ...]:
    """The flattened cells {(i, sigma(i))}, sorted.

    >>> canonical_set((2, 1))
    (1, 2)
    """
    s = as_permutation(sigma)
    n = len(s)
    return tuple(flat_index(n, i, v) for i, v in enumerate(s.values, start=1))


def canonical_permutation(n: int, cells: Iterable[int]) -> Permutation:
    """Invert :func:`canonical_set`: recover the permutation from its
    cells, rejecting sets without exactly one cell per row and column.
    """
    cols_by_row: dict[int, int] = {}
    seen_cols = set()
    for cell in cells:
        if not 0 <= cell < n * n:
            raise ValueError(f"cell {cell} outside the {n}x{n} grid")
        row, col = divmod(cell, n)
        if row in cols_by_row:
            raise ValueError(f"two cells in row {row + 1}")
        if col in seen_cols:
            raise ValueError(f"two cells in column {col + 1}")
        cols_by_row[row] = col
        seen_cols.add(col)
    if len(cols_by_row) != n:
        raise ValueError(f"expected {n} cells, got {len(cols_by_row)}")
    return Permutation(tuple(cols_by_row[i] + 1 for i in range(n)))


def is_independent(h: PatternHypergraph, cells: Iterable[int]) -> bool:
    """True iff no edge of ``h`` lies entirely inside ``cells``."""
    chosen = set(cells)
    return not any(all(v in chosen for v in e) for e in h.edges)


def count_independent_of_size(h: PatternHypergraph, size: int) -> int:
    """Exact number of independent sets of the given size.

    Depth-first over cells in flat order, with the chosen cells held
    as an int bitmask.  Each edge is stored under its largest cell as
    the mask of its other cells, its stem, and checked the moment that
    cell is taken: the edge is complete when ``stem & chosen == stem``,
    so dependent branches die as early as possible.  A one-cell edge
    has an empty stem and blocks its cell always.  The candidate-subset
    count C(n^2, size) is gated by the subset ceiling.
    """
    nn = h.vertex_count
    if not 0 <= size <= nn:
        return 0
    check_limit("subset_ceiling", math.comb(nn, size))
    stems: list[list[int]] = [[] for _ in range(nn)]
    for e in h.edges:
        stems[e[-1]].append(sum(1 << u for u in e[:-1]))

    def rec(start: int, need: int, chosen: int) -> int:
        if need == 0:
            return 1
        total = 0
        for v in range(start, nn - need + 1):
            if not any(stem & chosen == stem for stem in stems[v]):
                total += rec(v + 1, need - 1, chosen | 1 << v)
        return total

    return rec(0, size, 0)


def delta_ell(h: PatternHypergraph, ell: int) -> int:
    """Max number of edges sharing a common ell-subset of vertices.

    Computed by tallying each edge's C(k, ell) vertex subsets, so the
    work is |E| * C(k, ell) instead of a sweep over all ell-subsets of
    the grid.  0 for an edgeless hypergraph.
    """
    if not 1 <= ell <= h.k:
        raise ValueError(f"ell must lie in 1..{h.k}, got {ell}")
    if not h.edges:
        return 0
    tally: Counter = Counter()
    for e in h.edges:
        for sub in combinations(e, ell):
            tally[sub] += 1
    return max(tally.values())
