import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from permavoid import (
    CapExceededError,
    DimensionMismatchError,
    KUniformHypergraph,
    count_lambda_occurrences,
    enumerate_avoiders,
    exact_expected_avoiders,
    kernels,
    lambda_contains,
    mc_expected_avoiders_by_lambda,
    mc_expected_avoiders_by_sigma,
    multipartite_lambda_star,
    rngutil,
)

import oracles


def random_subhypergraph(rng, n, k, density=0.5):
    edges = tuple(e for e in combinations(range(1, n + 1), k)
                  if rng.random() < density)
    return KUniformHypergraph(n, k, edges)


def test_lambda_containment_only_sees_listed_index_sets():
    # 2,4,1,3 has rising pairs at positions (1,2), (1,4), (3,4).
    sigma = (2, 4, 1, 3)
    full = KUniformHypergraph.complete(4, 2)
    assert lambda_contains(sigma, (1, 2), full)
    assert count_lambda_occurrences(sigma, (1, 2), full) == 3
    partial = KUniformHypergraph(4, 2, ((2, 3), (1, 4)))
    assert count_lambda_occurrences(sigma, (1, 2), partial) == 1
    nothing = KUniformHypergraph.empty(4, 2)
    assert not lambda_contains(sigma, (1, 2), nothing)


def test_dimension_checks():
    lam = KUniformHypergraph.complete(4, 2)
    with pytest.raises(DimensionMismatchError):
        lambda_contains((1, 2, 3), (1, 2), lam)
    with pytest.raises(DimensionMismatchError):
        lambda_contains((1, 2, 3, 4), (1, 2, 3), lam)
    with pytest.raises(DimensionMismatchError):
        enumerate_avoiders(5, (1, 2), lam)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_avoiders_match_oracle_on_random_hypergraphs(k):
    rng = random.Random(31 + k)
    for _ in range(12):
        n = rng.randrange(k, 6)
        lam = random_subhypergraph(rng, n, k)
        pattern = list(range(1, k + 1))
        rng.shuffle(pattern)
        pattern = tuple(pattern)
        expected = oracles.avoiders_naive(n, pattern, lam.edges)
        rep = enumerate_avoiders(n, pattern, lam, collect=True)
        assert rep.count == len(expected)
        assert [p.values for p in rep.avoiders] == expected
        assert rep.lambda_edge_count == lam.edge_count


def test_lambda_star_avoiders_golden():
    rep = enumerate_avoiders(4, (1, 2), multipartite_lambda_star(4, 2), collect=True)
    assert rep.count == 4
    assert {p.to_text() for p in rep.avoiders} == {
        "3,4,1,2", "3,4,2,1", "4,3,1,2", "4,3,2,1"
    }


def test_avoiders_without_collect_leaves_list_unset():
    rep = enumerate_avoiders(3, (1, 2), KUniformHypergraph.complete(3, 2))
    assert rep.count == 1
    assert rep.avoiders is None


def test_avoider_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_avoiders(13, (1, 2), KUniformHypergraph.complete(13, 2))
    with pytest.raises(CapExceededError):
        enumerate_avoiders(13, (1, 2), None)


def test_none_stands_for_the_complete_hypergraph():
    for n, pi in [(4, (1, 2)), (5, (1, 3, 2)), (3, (1, 2, 3, 4))]:
        full = enumerate_avoiders(n, pi, KUniformHypergraph.complete(n, len(pi)), True)
        assert enumerate_avoiders(n, pi, None, True) == full
        assert full.lambda_edge_count == math.comb(n, len(pi))


def test_expectation_closed_form_n2():
    for alpha in [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]:
        rep = exact_expected_avoiders(2, 2, (1, 2), alpha)
        assert rep.exact_value == 2 - alpha


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_expectation_matches_brute_force(n, alpha):
    edges = list(combinations(range(1, n + 1), 2))
    for pattern in [(1, 2), (2, 1)]:
        rep = exact_expected_avoiders(n, 2, pattern, alpha)
        assert rep.exact_value == oracles.expectation_naive(n, pattern, alpha, edges)


def test_expectation_extremes():
    # alpha=0: no index set is ever live, everything avoids.
    assert exact_expected_avoiders(4, 2, (1, 2), Fraction(0)).exact_value == 24
    # alpha=1: the complete hypergraph, so only genuine avoiders remain.
    rep = exact_expected_avoiders(4, 3, (1, 2, 3), Fraction(1))
    avoid = enumerate_avoiders(4, (1, 2, 3), KUniformHypergraph.complete(4, 3))
    assert rep.exact_value == avoid.count


def test_expectation_report_diagnostics():
    rep = exact_expected_avoiders(4, 2, (2, 1), Fraction(1, 2))
    assert rep.bound_value == pytest.approx(2.0 ** 4)
    expected_const = (math.log(float(rep.exact_value))
                      + 4 * math.log(0.5)) / 4
    assert rep.empirical_constant == pytest.approx(expected_const)
    # Uniformity below 2 has no bound shape to report.
    rep1 = exact_expected_avoiders(3, 1, (1,), Fraction(1, 2))
    assert rep1.bound_value is None
    assert rep1.empirical_constant is None
    with pytest.raises(ValueError):
        exact_expected_avoiders(3, 2, (1, 2), Fraction(3, 2))
    with pytest.raises(DimensionMismatchError):
        exact_expected_avoiders(3, 2, (1, 2, 3), Fraction(1, 2))


def test_expectation_monotone_in_alpha():
    grid = [Fraction(i, 10) for i in range(11)]
    values = [exact_expected_avoiders(5, 2, (2, 1), a).exact_value for a in grid]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_sigma_estimator_is_deterministic_and_close():
    est1 = mc_expected_avoiders_by_sigma(4, (2, 1), Fraction(1, 2), 4000, 17)
    est2 = mc_expected_avoiders_by_sigma(4, (2, 1), Fraction(1, 2), 4000, 17)
    assert est1.estimate == est2.estimate
    exact = exact_expected_avoiders(4, 2, (2, 1), Fraction(1, 2)).exact_value
    assert abs(float(est1.estimate - exact)) <= 4 * est1.std_error
    assert est1.method == "sigma"


@pytest.mark.parametrize("alpha, seed", [(Fraction(1, 1000), 31), (Fraction(1, 200), 32)])
def test_sigma_estimator_meets_q_factorial_past_brute_force(alpha, seed):
    # Copies of 21 are inversions, so E = sum over S_n of (1-alpha)^inv
    # is MacMahon's q-factorial at q = 1 - alpha; n = 50 is far past
    # any S_n pass.
    n, samples = 50, 20_000
    est = mc_expected_avoiders_by_sigma(n, (2, 1), alpha, samples, seed)
    exact = oracles.q_factorial(n, 1 - alpha)
    assert est.samples == samples and est.std_error > 0
    assert abs(float(est.estimate - exact)) <= 3 * est.std_error


def test_lambda_estimator_is_deterministic_and_close():
    est1 = mc_expected_avoiders_by_lambda(4, 2, (2, 1), Fraction(1, 2), 400, 23)
    est2 = mc_expected_avoiders_by_lambda(4, 2, (2, 1), Fraction(1, 2), 400, 23)
    assert est1.estimate == est2.estimate
    exact = exact_expected_avoiders(4, 2, (2, 1), Fraction(1, 2)).exact_value
    assert abs(float(est1.estimate - exact)) <= 4 * est1.std_error
    assert est1.method == "lambda"


def test_lambda_estimator_makes_one_pass_per_block_of_samples(monkeypatch):
    passes = []
    lex_blocks = kernels._lex_blocks
    monkeypatch.setattr(kernels, "_lex_blocks", lambda n: passes.append(n) or lex_blocks(n))
    monkeypatch.setattr(kernels, "count_avoiders", None)  # one pass per sample is gone
    samples = 2 * rngutil.BLOCK + 1
    mc_expected_avoiders_by_lambda(4, 2, (2, 1), Fraction(1, 2), samples, 23)
    assert passes == [4, 4, 4]


def test_estimators_validate_inputs():
    with pytest.raises(ValueError):
        mc_expected_avoiders_by_sigma(3, (1, 2), Fraction(2), 10, 0)
    with pytest.raises(ValueError):
        mc_expected_avoiders_by_sigma(3, (1, 2), Fraction(1, 2), 0, 0)
    with pytest.raises(CapExceededError):
        mc_expected_avoiders_by_lambda(
            6, 2, (1, 2), Fraction(1, 2), 10**6, 0
        )


def test_lambda_estimator_distinct_seeds_differ():
    a = mc_expected_avoiders_by_lambda(4, 2, (1, 2), Fraction(1, 2), 50, 1)
    b = mc_expected_avoiders_by_lambda(4, 2, (1, 2), Fraction(1, 2), 50, 2)
    assert a.estimate != b.estimate  # fixed seeds chosen to differ
