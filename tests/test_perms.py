import math
import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from permavoid import (
    BinaryMatrix,
    CapExceededError,
    KUniformHypergraph,
    Permutation,
    count_lambda_occurrences,
    copy_count_distribution,
    count_occurrences,
    enumerate_occurrences,
    enumerate_permutations,
    kernels,
    override_limits,
)
import oracles


def test_construction_and_call():
    p = Permutation((2, 4, 1, 3))
    assert len(p) == 4
    assert p(1) == 2 and p(4) == 3
    assert p.zero_based == (1, 3, 0, 2)
    assert Permutation.identity(3).values == (1, 2, 3)
    assert Permutation.identity(0).values == ()


def test_construction_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 4))


def test_construction_refuses_non_integers_instead_of_truncating():
    # Each of these used to be truncated by int(): (1, 2), a count of 0,
    # and a row with bits (2,).
    with pytest.raises(ValueError, match="integer"):
        Permutation((1.7, 2.2))
    with pytest.raises(ValueError, match="integer"):
        count_occurrences((2.9, 1.2), (True, 2.0))
    with pytest.raises(ValueError, match="integer"):
        BinaryMatrix(1, 2, (2.9,))
    with pytest.raises(ValueError, match="integer"):
        next(enumerate_permutations(3, prefix=(1.0,)))
    # Integral types such as numpy ints are still accepted.
    assert Permutation((np.int64(2), 1)).values == (2, 1)
    assert BinaryMatrix(1, 2, (np.uint8(3),)).row_bits == (3,)
    first = next(enumerate_permutations(3, prefix=(np.int64(2),)))
    assert first.values == (2, 1, 3)


def test_from_text_accepts_commas_and_whitespace():
    assert Permutation.from_text("2,4,1,3").values == (2, 4, 1, 3)
    assert Permutation.from_text("2 4 1 3").values == (2, 4, 1, 3)
    assert Permutation.from_text(" 2, 4,\n1, 3 ").values == (2, 4, 1, 3)
    assert Permutation.from_text("1").to_text() == "1"


def test_from_text_reports_bad_token_position():
    with pytest.raises(ValueError, match="token 2"):
        Permutation.from_text("2,x,1")
    with pytest.raises(ValueError, match="empty"):
        Permutation.from_text("  ")


def test_text_round_trip():
    for values in [(1,), (2, 1), (2, 4, 1, 3), (5, 3, 1, 2, 4)]:
        p = Permutation(values)
        assert Permutation.from_text(p.to_text()) == p


def test_reverse():
    p = Permutation((2, 4, 1, 3))
    assert p.reverse().values == (3, 1, 4, 2)
    assert p.reverse().reverse() == p


def test_count_golden_example():
    sigma = Permutation((2, 4, 1, 3))
    assert count_occurrences(sigma, (1, 2)) == 3
    assert enumerate_occurrences(sigma, (1, 2)) == ((1, 2), (1, 4), (3, 4))


def test_empty_and_oversized_patterns():
    sigma = Permutation((2, 1, 3))
    assert count_occurrences(sigma, ()) == 1
    assert enumerate_occurrences(sigma, ()) == ((),)
    assert count_occurrences(sigma, (1, 2, 3, 4)) == 0


@pytest.mark.parametrize("pattern", [(1, 2), (2, 1), (1, 3, 2), (3, 2, 1), (2, 4, 1, 3)])
def test_counts_match_oracle_on_random_permutations(pattern):
    rng = random.Random(451)
    for _ in range(40):
        n = rng.randrange(0, 9)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        expected = oracles.occurrences_naive(sigma, pattern)
        assert count_occurrences(sigma, pattern) == len(expected)
        assert list(enumerate_occurrences(sigma, pattern)) == expected


def complement(p):
    """Flip the values: v -> n+1-v."""
    return Permutation(tuple(len(p) + 1 - v for v in p.values))


def test_symmetry_identities():
    # Reversing positions reverses the pattern; complementing values
    # complements it; occurrence counts survive both.
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 8)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = Permutation(tuple(sigma))
        for pattern in [(1, 2), (2, 1), (1, 3, 2), (3, 1, 2)]:
            pi = Permutation(pattern)
            base = count_occurrences(sigma, pi)
            assert count_occurrences(sigma.reverse(), pi.reverse()) == base
            assert count_occurrences(complement(sigma), complement(pi)) == base
            assert count_occurrences(complement(sigma.reverse()),
                                     complement(pi.reverse())) == base


def test_enumerate_permutations_is_lexicographic():
    perms = list(enumerate_permutations(3))
    assert [p.values for p in perms] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
    ]


def test_enumerate_permutations_prefix_partition():
    whole = {p.values for p in enumerate_permutations(4)}
    assert len(whole) == 24
    pieces = set()
    for first in range(1, 5):
        chunk = {p.values for p in enumerate_permutations(4, prefix=(first,))}
        assert len(chunk) == 6
        assert all(v[0] == first for v in chunk)
        pieces |= chunk
    assert pieces == whole


def test_enumerate_permutations_rejects_bad_prefix():
    with pytest.raises(ValueError):
        list(enumerate_permutations(3, prefix=(1, 1)))
    with pytest.raises(ValueError):
        list(enumerate_permutations(3, prefix=(4,)))


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_permutations(13))
    # An override raises the limit; the check runs on the first next().
    gen = enumerate_permutations(13)
    with override_limits(enum_cap=13):
        assert next(gen).values == tuple(range(1, 14))
    gen.close()


def test_distribution_golden_n3():
    assert copy_count_distribution(3, (1, 2)).histogram == {0: 1, 1: 2, 2: 2, 3: 1}
    assert copy_count_distribution(3, (1, 2, 3)).histogram == {0: 5, 1: 1}


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize("pattern", [(1, 2), (2, 1), (1, 3, 2), (3, 2, 1)])
def test_distribution_matches_oracle(n, pattern):
    dist = copy_count_distribution(n, pattern)
    assert dist.histogram == oracles.histogram_naive(n, pattern)
    assert sum(dist.histogram.values()) == math.factorial(n)


def test_distribution_prefix_counts_avoiders():
    # Zero-copy permutations of an increasing triple: the Catalan numbers.
    catalan = [1, 2, 5, 14, 42, 132, 429]
    for n, expected in enumerate(catalan, start=1):
        dist = copy_count_distribution(n, (1, 2, 3))
        assert dist.prefix_count(0) == expected
    dist = copy_count_distribution(4, (1, 2))
    assert dist.prefix_count(max(dist.histogram)) == math.factorial(4)


def test_distribution_json_round_trip():
    dist = copy_count_distribution(4, (2, 1, 3))
    data = dist.to_json_dict()
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in data["histogram"].items())
    assert {int(c): int(v) for c, v in data["histogram"].items()} == dist.histogram
    assert (data["n"], data["pattern"]) == (4, "2,1,3")


def test_count_and_enumerate_refuse_before_walking():
    big = Permutation.identity(2000)
    # C(2000, 4) * 4 is past the default ceiling of 5e9.
    with pytest.raises(CapExceededError):
        count_occurrences(big, (1, 2, 3, 4))
    with pytest.raises(CapExceededError):
        enumerate_occurrences(big, (4, 3, 2, 1))
    with override_limits(cost_ceiling=1000), pytest.raises(CapExceededError):
        count_occurrences(Permutation.identity(1000), (1, 2, 3))
    with override_limits(cost_ceiling=12):
        assert count_occurrences((2, 4, 1, 3), (1, 2)) == 3
    with override_limits(cost_ceiling=11), pytest.raises(CapExceededError):
        count_occurrences((2, 4, 1, 3), (1, 2))
    # k > n and k = 0 project no work.
    with override_limits(cost_ceiling=0):
        assert count_occurrences((2, 1), (1, 2, 3)) == 0
        assert enumerate_occurrences((2, 1), ()) == ((),)


def test_closed_forms_match_brute_force_on_s5():
    for sigma in permutations(range(1, 6)):
        for pattern, want in oracles.pattern_counts_alone(sigma).items():
            assert oracles.count_naive(sigma, pattern) == want


@pytest.mark.parametrize("n", [40, 57, 80])
def test_walk_counts_meet_closed_forms_past_brute_force(n):
    rng = random.Random(1000 + n)
    sigmas = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(2)]
    complete = {k: KUniformHypergraph.complete(n, k) for k in (2, 3)}
    blk = np.array(sigmas, np.uint8) - 1
    for patterns, want in oracles.pattern_counts_closed(sigmas[0]).items():
        assert sum(count_occurrences(sigmas[0], p) for p in patterns) == want
        lam = complete[len(patterns[0])]
        assert sum(count_lambda_occurrences(sigmas[0], p, lam) for p in patterns) == want
    # Each pattern alone: the walks on the first sigma and the block
    # kernel on both.
    alone = [oracles.pattern_counts_alone(s) for s in sigmas]
    for pattern, want in alone[0].items():
        assert count_occurrences(sigmas[0], pattern) == want
        assert count_lambda_occurrences(sigmas[0], pattern, complete[len(pattern)]) == want
        tally = kernels.occurrence_counts(blk, tuple(v - 1 for v in pattern))
        assert tally == Counter(counts[pattern] for counts in alone)
