import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
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
from permavoid import avoidance

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


@pytest.mark.parametrize("pi", [(1, 2), (2, 1)])
def test_lambda_star_forces_one_half_onto_the_low_values(pi):
    # Every crossing pair is an edge, so an avoider of 12 puts the high
    # half of the values on the first half of the positions (of 21, the
    # low half), in any order within each half: ((n/2)!)^2 avoiders.
    for n in (4, 6):
        edges = multipartite_lambda_star(n, 2).edges
        assert len(oracles.avoiders_naive(n, pi, edges)) == math.factorial(n // 2) ** 2
    rep = enumerate_avoiders(10, pi, multipartite_lambda_star(10, 2))
    assert rep.count == math.factorial(5) ** 2 == 14_400


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


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7)])
def test_expectation_grid_sums_integer_powers(monkeypatch, alpha):
    # E over random histograms against the Fraction sum it replaces;
    # every histogram has a count 0, so alpha = 1 leaves E = h_0 > 0.
    rng = random.Random(2424)
    for _ in range(30):
        counts = [0] + rng.sample(range(1, 60), rng.randrange(0, 8))
        hist = {c: rng.randrange(1, 10**rng.randrange(1, 25)) for c in counts}
        monkeypatch.setattr(avoidance, "copy_count_distribution",
                            lambda n, p: SimpleNamespace(histogram=hist))
        (report,) = avoidance.exact_expected_avoiders_grid(5, 2, (2, 1), [alpha])
        want = sum((ways * (1 - alpha) ** c for c, ways in hist.items()), Fraction(0))
        assert type(report.exact_value) is Fraction
        assert report.exact_value == want
        if alpha == 1:
            assert report.exact_value == hist[0]


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


@pytest.mark.parametrize("alpha, seed", [(Fraction(1, 10), 41), (Fraction(1, 3), 42),
                                         (Fraction(2, 3), 43)])
def test_lambda_estimator_meets_q_factorial(alpha, seed):
    # Each pair of positions is an edge with probability alpha, and a
    # permutation avoids 21 on the edges iff none of its inversions is
    # one: E = sum over S_n of (1-alpha)^inv, the q-factorial at 1 - alpha.
    n, samples = 7, 2000
    est = mc_expected_avoiders_by_lambda(n, 2, (2, 1), alpha, samples, seed)
    exact = oracles.q_factorial(n, 1 - alpha)
    assert est.samples == samples and est.std_error > 0
    assert abs(float(est.estimate - exact)) <= 4 * est.std_error


def test_lambda_estimator_makes_one_pass_per_block_of_samples(monkeypatch):
    passes = []
    block_lookups = kernels._block_lookups
    monkeypatch.setattr(kernels, "_block_lookups",
                        lambda n, batch: passes.append(n) or block_lookups(n, batch))
    monkeypatch.setattr(kernels, "count_avoiders", None)  # one pass per sample is gone
    samples = 2 * rngutil.BLOCK + 1
    mc_expected_avoiders_by_lambda(4, 2, (2, 1), Fraction(1, 2), samples, 23)
    assert passes == [4, 4, 4]


SIGMA_CASES = [(n, pi) for n in (0, 1, 2, 3, 5, 8)
               for pi in ((1,), (2, 1), (1, 3, 2), (2, 4, 1, 3))]  # k > n among them


@pytest.mark.parametrize("n, pi", SIGMA_CASES)
def test_sigma_code_table_equals_the_shuffle_path(monkeypatch, n, pi):
    # 2,051 samples end in a block of 3, which numpy draws itself.
    alphas = [Fraction(0), Fraction(1), Fraction(1, 3)]
    coded = [mc_expected_avoiders_by_sigma(n, pi, a, rngutil.BLOCK + 3, 5) for a in alphas]
    monkeypatch.setattr(avoidance, "_CODED_N", -1)
    shuffled = [mc_expected_avoiders_by_sigma(n, pi, a, rngutil.BLOCK + 3, 5) for a in alphas]
    assert coded == shuffled


def test_copy_count_table_counts_every_code_and_is_shared_read_only():
    for n, pi in [(5, (0, 2, 1)), (6, (1, 0)), (4, (1, 3, 0, 2)), (2, (0, 1, 2))]:
        table = avoidance._copy_count_table(n, pi)
        assert avoidance._copy_count_table(n, pi) is table
        assert not table.flags.writeable
        assert table.dtype == np.uint8 and table.shape == (math.factorial(n),)
        perms = rngutil.code_permutations(n, np.arange(math.factorial(n))).tolist()
        assert table.tolist() == [oracles.count_naive(s, pi) for s in perms]
    # Bounded: a full cache of n = 8 tables stays under 1 MB.
    assert avoidance._CODED_N == 8
    assert avoidance._copy_count_table.cache_info().maxsize * math.factorial(8) < 2**20


def test_sigma_paths_shuffle_and_count_no_block_of_samples_twice(monkeypatch):
    calls = {"shuffles": 0, "counts": 0, "tables": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    avoidance._copy_count_table.cache_clear()
    monkeypatch.setattr(rngutil, "_shuffled", counted("shuffles", rngutil._shuffled))
    monkeypatch.setattr(kernels, "row_occurrence_counts",
                        counted("counts", kernels.row_occurrence_counts))
    monkeypatch.setattr(avoidance, "_copy_count_table",
                        counted("tables", avoidance._copy_count_table))
    monkeypatch.setattr(kernels, "occurrences", None)  # the per-sample walk
    samples = 5 * rngutil.BLOCK + 1
    # n = 7: the table's 5,040 codes take three blocks, built once.
    for _ in range(2):
        mc_expected_avoiders_by_sigma(7, (1, 3, 2), Fraction(1, 3), samples, 6)
    assert calls == {"shuffles": 3, "counts": 3, "tables": 2}
    # n = 9: no table; one shuffle and one count per block of samples.
    calls.update(shuffles=0, counts=0, tables=0)
    mc_expected_avoiders_by_sigma(9, (1, 3, 2), Fraction(1, 3), samples, 6)
    assert calls == {"shuffles": 6, "counts": 6, "tables": 0}


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
