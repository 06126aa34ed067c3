import math
import random
from itertools import combinations, permutations

import pytest

from permavoid import (
    CapExceededError,
    DimensionMismatchError,
    KUniformHypergraph,
    Permutation,
    build_h,
    canonical_permutation,
    canonical_set,
    count_independent_of_size,
    delta_ell,
    flat_index,
    is_independent,
    lambda_contains,
    override_limits,
)
from permavoid.gridhg import PatternHypergraph

import oracles


def test_flat_index_layout():
    assert flat_index(3, 1, 1) == 0
    assert flat_index(3, 1, 3) == 2
    assert flat_index(3, 2, 1) == 3
    assert flat_index(3, 3, 3) == 8
    with pytest.raises(ValueError):
        flat_index(3, 0, 1)
    with pytest.raises(ValueError):
        flat_index(3, 1, 4)


def test_build_h_smallest_case():
    h = build_h(2, (1, 2), KUniformHypergraph.complete(2, 2))
    assert h.n == 2 and h.k == 2
    assert h.vertex_count == 4
    assert h.edges == ((0, 3),)


def test_build_h_edge_count_formula():
    for n, k, pattern in [(3, 2, (1, 2)), (4, 2, (2, 1)), (4, 3, (1, 3, 2)),
                          (5, 3, (3, 1, 2))]:
        lam = KUniformHypergraph.complete(n, k)
        h = build_h(n, Permutation(pattern), lam)
        assert len(h.edges) == lam.edge_count * math.comb(n, k)
        assert len(set(h.edges)) == len(h.edges)
        assert build_h(n, pattern, None) == h  # None: the complete index graph
    partial = KUniformHypergraph(3, 2, ((1, 3),))
    h = build_h(3, (1, 2), partial)
    assert len(h.edges) == 1 * math.comb(3, 2)


def test_build_h_places_pattern_values_in_columns():
    # A single index pair {1,3} with pattern 2,1 and columns {1,2}
    # puts the larger value in row 1: cells (1,2) and (3,1).
    h = build_h(3, (2, 1), KUniformHypergraph(3, 2, ((1, 3),)))
    assert (flat_index(3, 1, 2), flat_index(3, 3, 1)) in h.edges


def test_build_h_validation_and_ceiling():
    with pytest.raises(DimensionMismatchError):
        build_h(3, (1, 2), KUniformHypergraph.complete(4, 2))
    with pytest.raises(DimensionMismatchError):
        build_h(3, (1, 2, 3), KUniformHypergraph.complete(3, 2))
    with override_limits(edge_ceiling=5):
        with pytest.raises(CapExceededError):
            build_h(3, (1, 2), KUniformHypergraph.complete(3, 2))
        with pytest.raises(CapExceededError):
            build_h(3, (1, 2), None)


def test_canonical_round_trip():
    for values in permutations(range(1, 5)):
        sigma = Permutation(values)
        cells = canonical_set(sigma)
        assert len(cells) == 4
        assert canonical_permutation(4, cells) == sigma


def test_canonical_permutation_rejects_non_canonical_sets():
    with pytest.raises(ValueError):
        canonical_permutation(2, (0, 1))  # two cells in row 1
    with pytest.raises(ValueError):
        canonical_permutation(2, (0,))  # not enough cells
    with pytest.raises(ValueError):
        canonical_permutation(2, (0, 2))  # column repeated


def test_independence_matches_avoidance():
    rng = random.Random(64)
    for _ in range(12):
        n = rng.randrange(2, 5)
        k = rng.randrange(2, min(n, 3) + 1)
        edges = tuple(e for e in combinations(range(1, n + 1), k)
                      if rng.random() < 0.5)
        lam = KUniformHypergraph(n, k, edges)
        pattern = list(range(1, k + 1))
        rng.shuffle(pattern)
        pi = Permutation(tuple(pattern))
        h = build_h(n, pi, lam)
        for values in permutations(range(1, n + 1)):
            sigma = Permutation(values)
            assert is_independent(h, canonical_set(sigma)) == \
                (not lambda_contains(sigma, pi, lam))


def test_count_independent_golden_and_oracle():
    h = build_h(2, (1, 2), KUniformHypergraph.complete(2, 2))
    assert count_independent_of_size(h, 2) == 5
    for size in range(0, 5):
        assert count_independent_of_size(h, size) == \
            oracles.independent_count_naive(h.vertex_count, h.edges, size)
    h3 = build_h(3, (2, 1), KUniformHypergraph.complete(3, 2))
    for size in [0, 1, 3]:
        assert count_independent_of_size(h3, size) == \
            oracles.independent_count_naive(h3.vertex_count, h3.edges, size)


def test_count_independent_matches_oracle_on_random_hypergraphs():
    # k = 1 gives one-cell edges, whose stems are empty; 0 edges and the
    # sizes 0 and n^2 are drawn too.
    rng = random.Random(2024)
    for _ in range(150):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        cells = list(combinations(range(n * n), k))
        edges = tuple(sorted(rng.sample(cells, rng.randint(0, min(len(cells), 12)))))
        h = PatternHypergraph(n=n, k=k, edges=edges)
        for size in {0, n * n, rng.randint(0, n * n)}:
            assert count_independent_of_size(h, size) == \
                oracles.independent_count_naive(h.vertex_count, edges, size)
    empty = PatternHypergraph(n=3, k=2, edges=())
    assert [count_independent_of_size(empty, s) for s in range(11)] == \
        [math.comb(9, s) for s in range(10)] + [0]
    assert count_independent_of_size(empty, -1) == 0


def test_count_independent_subset_ceiling():
    h = build_h(3, (1, 2), KUniformHypergraph.complete(3, 2))
    with override_limits(subset_ceiling=10), pytest.raises(CapExceededError):
        count_independent_of_size(h, 4)


def test_delta_golden_and_oracle():
    h = build_h(3, (1, 2), KUniformHypergraph.complete(3, 2))
    assert len(h.edges) == 9
    assert delta_ell(h, 1) == 4
    assert delta_ell(h, 2) == 1
    for ell in (1, 2):
        assert delta_ell(h, ell) == oracles.delta_naive(h.edges, ell)
    h3 = build_h(4, (1, 3, 2), KUniformHypergraph.complete(4, 3))
    assert delta_ell(h3, 3) == 1  # full edges never coincide
    for ell in (1, 2):
        assert delta_ell(h3, ell) == oracles.delta_naive(h3.edges, ell)


def test_delta_validation_and_empty():
    h = build_h(3, (1, 2), KUniformHypergraph.empty(3, 2))
    assert delta_ell(h, 1) == 0
    with pytest.raises(ValueError):
        delta_ell(h, 0)
    with pytest.raises(ValueError):
        delta_ell(h, 3)


def test_pattern_hypergraph_json_shape():
    h = build_h(2, (1, 2), KUniformHypergraph.complete(2, 2))
    data = h.to_json_dict()
    assert data == {"grid_side": 2, "k": 2, "edges": [[0, 3]]}
