import json
import math
from fractions import Fraction

import numpy as np
import pytest

from permavoid import (
    CliqueCoverError,
    KUniformHypergraph,
    multipartite_lambda_star,
    random_uniform_hypergraph,
    validate_clique_cover,
)


def test_construction_normalizes_edge_order():
    h = KUniformHypergraph(4, 2, ((2, 3), (1, 2)))
    assert h.edges == ((1, 2), (2, 3))
    assert h.edge_count == 2


def test_construction_refuses_non_integers_instead_of_truncating():
    # Integral types such as numpy ints are still accepted.
    h = KUniformHypergraph(np.int64(3), 2, [(np.int64(1), 2)])
    assert h.n == 3 and h.edges == ((1, 2),)
    for bad in [(1, 2.5), (True, 2), ("1", 2)]:
        with pytest.raises(ValueError, match="integer"):
            KUniformHypergraph(3, 2, [bad])
    with pytest.raises(ValueError, match="integer"):
        KUniformHypergraph(3.0, 2, [])
    with pytest.raises(ValueError, match="not a list of vertices"):
        KUniformHypergraph(3, 2, [1])
    with pytest.raises(ValueError, match="not a list of vertices"):
        validate_clique_cover(KUniformHypergraph.complete(3, 2), [1, 2, 3])


def test_construction_rejects_malformed_edges():
    with pytest.raises(ValueError, match="strictly increasing"):
        KUniformHypergraph(4, 2, ((2, 1),))
    with pytest.raises(ValueError, match="not a 2-set"):
        KUniformHypergraph(4, 2, ((1, 2, 3),))
    with pytest.raises(ValueError, match="outside"):
        KUniformHypergraph(4, 2, ((1, 5),))
    with pytest.raises(ValueError, match="duplicate"):
        KUniformHypergraph(4, 2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        KUniformHypergraph(4, 0, ())


def test_complete_and_empty():
    h = KUniformHypergraph.complete(4, 2)
    assert h.edge_count == 6
    assert h.is_complete()
    assert not KUniformHypergraph.empty(4, 2).is_complete()
    assert KUniformHypergraph.complete(3, 4).edge_count == 0


def test_json_and_text_round_trip():
    h = KUniformHypergraph(5, 3, ((1, 2, 4), (2, 3, 5)))
    assert KUniformHypergraph.from_json_dict(json.loads(json.dumps(h.to_json_dict()))) == h
    assert KUniformHypergraph.from_text("5 3\n2 3 5\n1,2,4\n") == h
    with pytest.raises(ValueError, match="line 1"):
        KUniformHypergraph.from_text("")
    with pytest.raises(ValueError, match="line 2"):
        KUniformHypergraph.from_text("4 2\n1 x")


def test_random_hypergraph_determinism_and_extremes():
    a = random_uniform_hypergraph(6, 2, Fraction(1, 3), 5)
    b = random_uniform_hypergraph(6, 2, Fraction(1, 3), 5)
    c = random_uniform_hypergraph(6, 2, Fraction(1, 3), 6)
    assert a == b
    assert a != c
    assert random_uniform_hypergraph(5, 2, Fraction(1), 0).is_complete()
    assert random_uniform_hypergraph(5, 2, Fraction(0), 0).edge_count == 0


def test_drawn_hypergraphs_equal_the_validated_ones():
    # Drawn edges skip revalidation; n and k are still checked.
    for n, k in [(1, 1), (4, 2), (7, 3), (6, 6), (8, 4)]:
        drawn = [KUniformHypergraph.complete(n, k),
                 random_uniform_hypergraph(n, k, Fraction(1, 2), n)]
        if n % 2 == 0 and k <= n // 2:
            drawn.append(multipartite_lambda_star(n, k))
        for h in drawn:
            public = KUniformHypergraph(n, k, h.edges[::-1])
            assert h == public and hash(h) == hash(public)
            assert h.to_json_dict() == public.to_json_dict()
    h = random_uniform_hypergraph(np.int64(5), np.int64(2), Fraction(1, 2), 1)
    assert type(h.n) is int and type(h.k) is int
    for bad in [(4, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="need n >= 0"):
            KUniformHypergraph.complete(*bad)
    with pytest.raises(ValueError, match="need n >= 0"):
        random_uniform_hypergraph(4, 0, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        random_uniform_hypergraph(5, 2, Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        random_uniform_hypergraph(2, 3, Fraction(1, 2), 0)


def test_random_hypergraph_edge_rate_is_plausible():
    h = random_uniform_hypergraph(30, 2, Fraction(1, 2), 123)
    total = math.comb(30, 2)
    # Binomial(435, 1/2): stay within five standard deviations.
    assert abs(h.edge_count - total / 2) < 5 * math.sqrt(total) / 2


def test_lambda_star_small_case():
    h = multipartite_lambda_star(4, 2)
    assert h.edges == ((1, 3), (1, 4), (2, 3), (2, 4))


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (8, 3), (10, 4)])
def test_lambda_star_edge_count_formula(n, k):
    h = multipartite_lambda_star(n, k)
    assert h.edge_count == math.comb(n, k) - 2 * math.comb(n // 2, k)
    half = n // 2
    for edge in h.edges:
        assert not (edge[-1] <= half or edge[0] > half)


def test_lambda_star_rejects_bad_shapes():
    with pytest.raises(ValueError, match="even"):
        multipartite_lambda_star(5, 2)
    with pytest.raises(ValueError, match="part size"):
        multipartite_lambda_star(4, 3)


def test_validate_clique_cover_accepts_good_covers():
    h = KUniformHypergraph.complete(4, 2)
    cover = validate_clique_cover(h, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert cover.clique_size == 3
    assert cover.min_membership == 3
    assert cover.max_membership == 3
    # Memberships may be lopsided and the cover is still a cover.
    cover = validate_clique_cover(h, [(1, 2, 3), (1, 2, 4)])
    assert (cover.min_membership, cover.max_membership) == (1, 2)
    # The whole vertex set as a single clique of a complete hypergraph.
    cover = validate_clique_cover(h, [(1, 2, 3, 4)])
    assert cover.clique_size == 4
    assert (cover.min_membership, cover.max_membership) == (1, 1)


def test_validate_clique_cover_witnesses():
    h = KUniformHypergraph.complete(4, 2)
    with pytest.raises(CliqueCoverError, match="empty"):
        validate_clique_cover(h, [])
    with pytest.raises(CliqueCoverError, match="sizes differ"):
        validate_clique_cover(h, [(1, 2, 3), (1, 4)])
    with pytest.raises(CliqueCoverError, match="below uniformity"):
        validate_clique_cover(KUniformHypergraph.complete(4, 3), [(1, 2), (3, 4)])
    with pytest.raises(CliqueCoverError) as info:
        validate_clique_cover(h, [(1, 2, 3), (1, 2)])  # ragged sizes
    assert info.value.witness == (1, 2)
    with pytest.raises(CliqueCoverError) as info:
        validate_clique_cover(h, [(1, 2, 3)])  # vertex 4 uncovered
    assert info.value.witness == 4
    star = multipartite_lambda_star(4, 2)
    with pytest.raises(CliqueCoverError) as info:
        validate_clique_cover(star, [(1, 2, 3), (2, 3, 4)])
    assert info.value.witness == (1, 2)
