"""Acceptance suite: twelve end-to-end checks, one per test.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to
see them as they happen).  These are the headline guarantees: oracle
equivalence, exact small-case values, statistical consistency of the
estimators, and byte-level determinism.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import combinations, islice, permutations

import numpy as np

from permavoid import (
    BinaryMatrix,
    KUniformHypergraph,
    Permutation,
    build_h,
    canonical_set,
    contract2,
    contract_b,
    count_matrix_copies,
    count_occurrences,
    delta_ell,
    densities,
    enumerate_avoiders,
    exact_expected_avoiders,
    extremal_block_diagonal,
    is_independent,
    kernels,
    lambda_contains,
    max_ones_avoiding,
    mc_expected_avoiders_by_lambda,
    mc_expected_avoiders_by_sigma,
    min_copies_brute,
    multipartite_lambda_star,
    permutation_matrix,
    sampling_estimates,
    sna_copy_budget,
    sna_family,
)
from permavoid.cli import main as cli_main

import oracles


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def test_01_avoider_counts_match_independent_oracle():
    started = time.perf_counter()
    expected_sequence = [1, 2, 5, 14, 42, 132, 429, 1430]
    sequence = []
    ok = True
    for n in range(1, 9):
        lam = KUniformHypergraph.complete(n, 3)
        counts = {}
        for pattern in [(3, 2, 1), (1, 3, 2)]:
            rep = enumerate_avoiders(n, pattern, lam)
            oracle = sum(
                1 for sigma in permutations(range(1, n + 1))
                if not oracles.contains_naive(sigma, pattern)
            )
            ok = ok and rep.count == oracle
            counts[pattern] = rep.count
        ok = ok and counts[(3, 2, 1)] == counts[(1, 3, 2)]
        sequence.append(counts[(3, 2, 1)])
    elapsed = time.perf_counter() - started
    ok = ok and sequence == expected_sequence and elapsed < 60
    _report(
        "acceptance-01 avoiders equal brute-force oracle",
        ok,
        f"sequence {sequence}, {elapsed:.1f}s",
    )


def test_02_crossing_hypergraph_avoider_family():
    started = time.perf_counter()
    rep4 = enumerate_avoiders(4, (1, 2), multipartite_lambda_star(4, 2),
                              collect=True)
    names = sorted(p.to_text() for p in rep4.avoiders)
    rep6 = enumerate_avoiders(6, (1, 2), multipartite_lambda_star(6, 2))
    elapsed = time.perf_counter() - started
    ok = (
        rep4.count == math.factorial(2) ** 2
        and names == ["3,4,1,2", "3,4,2,1", "4,3,1,2", "4,3,2,1"]
        and rep6.count == math.factorial(3) ** 2
        and elapsed < 60
    )
    _report(
        "acceptance-02 crossing-edge avoider family",
        ok,
        f"n=4 count {rep4.count}, n=6 count {rep6.count}, {elapsed:.1f}s",
    )


def test_03_estimators_agree_with_exact_expectation():
    worst = 0.0
    ok = True
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for alpha in alphas:
        ok = ok and exact_expected_avoiders(2, 2, (2, 1), alpha).exact_value == 2 - alpha
    for i, n in enumerate([4, 5, 6]):
        for j, alpha in enumerate(alphas):
            exact = exact_expected_avoiders(n, 2, (2, 1), alpha).exact_value
            sig = mc_expected_avoiders_by_sigma(n, (2, 1), alpha, 100_000,
                                                1000 + 10 * i + j)
            lam = mc_expected_avoiders_by_lambda(n, 2, (2, 1), alpha, 200,
                                                 2000 + 10 * i + j)
            for est in (sig, lam):
                gap = abs(float(est.estimate - exact))
                if est.std_error == 0:
                    ok = ok and gap == 0
                else:
                    worst = max(worst, gap / est.std_error)
                    ok = ok and gap <= 3 * est.std_error
    _report(
        "acceptance-03 estimators within 3 SE of exact",
        ok,
        f"worst deviation {worst:.2f} SE over 9 cells x 2 estimators",
    )


def test_04_expectation_shape_at_n7():
    n = 7
    grid = [Fraction(i, 10) for i in range(1, 10)]
    constants = []
    values = []
    ok = True
    for alpha in grid:
        rep = exact_expected_avoiders(n, 2, (2, 1), alpha)
        ok = ok and isinstance(rep.exact_value, Fraction)
        values.append(rep.exact_value)
        constants.append(rep.empirical_constant)
    ok = ok and all(c is not None and -3 <= c <= 3 for c in constants)
    ok = ok and all(x >= y for x, y in zip(values, values[1:]))
    lo, hi = min(constants), max(constants)
    _report(
        "acceptance-04 rate constants bounded, expectation monotone",
        ok,
        f"constants in [{lo:.3f}, {hi:.3f}]",
    )


def _entries(matrices):
    """Same-shape matrices as one (B, rows, cols) uint8 block."""
    rows = [b for m in matrices for b in m.row_bits]
    shape = (len(matrices), matrices[0].rows, matrices[0].cols)
    return kernels.unpack_rows(rows, shape[2]).reshape(shape)


def _contraction_violations(matrices, patterns):
    """Each matrix's 2- and 3/2-contractions against it: the comparisons
    made and how many found more copies in the contraction.  Copies are
    counted 4096 matrices to a kernel call."""
    violations = 0
    checked = 0
    while chunk := list(islice(matrices, 4096)):
        blocks = [
            _entries(chunk),
            _entries([contract2(m) for m in chunk]),
            _entries([contract_b(m, Fraction(3, 2)) for m in chunk]),
        ]
        for p in patterns:
            pi0 = tuple(v - 1 for v in p)
            base, *contracted = (np.array(kernels.matrix_copy_counts(blk, pi0))
                                 for blk in blocks)
            for copies in contracted:
                violations += int(np.count_nonzero(copies > base))
                checked += len(chunk)
    return violations, checked


def test_05_contraction_never_increases_copies():
    patterns = [(1, 2), (2, 1), (1, 3, 2)]

    def all_4x4():
        for mask in range(1 << 16):
            yield BinaryMatrix(4, 4, tuple((mask >> (4 * r)) & 0xF
                                           for r in range(4)))

    def random_square(n, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            bits = rng.integers(0, 1 << n, size=n, dtype=np.uint64)
            yield BinaryMatrix(n, n, tuple(int(b) for b in bits))

    v1, c1 = _contraction_violations(all_4x4(), patterns)
    v2, c2 = _contraction_violations(random_square(6, 100_000, 601), patterns)
    v3, c3 = _contraction_violations(random_square(8, 100_000, 801), patterns)
    violations = v1 + v2 + v3
    checked = c1 + c2 + c3
    _report(
        "acceptance-05 contraction monotone in copy count",
        violations == 0,
        f"{checked} comparisons (65536 exhaustive + 2x100000 random), "
        f"{violations} violations",
    )


def test_06_preimage_tallies_exhaustively():
    tallies = {}
    for mask in range(1 << 16):
        m = BinaryMatrix(4, 4, tuple((mask >> (4 * r)) & 0xF for r in range(4)))
        target = contract2(m)
        tallies[target] = tallies.get(target, 0) + 1
    ok = len(tallies) == 16
    by_ones = {}
    from permavoid import preimage_count_contract2
    for target, tally in tallies.items():
        ok = ok and tally == 15 ** target.ones
        ok = ok and tally == preimage_count_contract2(target)
        by_ones[target.ones] = tally
    expected = {0: 1, 1: 15, 2: 225, 3: 3375, 4: 50625}
    ok = ok and by_ones == expected
    _report(
        "acceptance-06 contraction preimage counts",
        ok,
        f"per-ones tallies {sorted(by_ones.values())}",
    )


def test_07_fewest_copies_floor():
    ok = True
    cells = 0
    for n in [2, 3, 4]:
        for pattern in [(1, 2), (2, 1)]:
            threshold = max_ones_avoiding(n, pattern).max_ones
            c = Fraction(threshold, n)
            for a in range(n * n + 1):
                floor = min_copies_brute(n, a, pattern).min_copies
                ok = ok and (floor == 0) == (a <= threshold)
                ok = ok and floor >= a - c * n
                cells += 1
    _report(
        "acceptance-07 zero-copy threshold and copy floor",
        ok,
        f"{cells} (n, pattern, ones) cells checked exactly",
    )


def test_08_block_diagonal_sharpness():
    m = extremal_block_diagonal(4, 8)
    copies = count_matrix_copies(m, (2, 1))
    bound = Fraction(8 ** 3, 4 ** 2)
    best = min_copies_brute(4, 8, (2, 1)).min_copies
    ok = copies == 2 and copies <= bound and best <= 2
    _report(
        "acceptance-08 sharpness of the block construction",
        ok,
        f"construction copies {copies}, brute-force minimum {best}, "
        f"reference bound {bound}",
    )


def test_09_block_permutation_family_budget():
    ok = True
    families = 0
    for pattern in [(2, 1), (3, 2, 1)]:
        k = len(pattern)
        for n in range(2, 9):
            for a in range(1, n + 1):
                fam = sna_family(n, a)
                q, r = fam.q, fam.r
                budget = sna_copy_budget(n, a, k)
                linear_cap = n * a ** (k - 1)
                size = 0
                worst = 0
                for member in fam.members():
                    size += 1
                    copies = count_occurrences(member, pattern)
                    worst = max(worst, copies)
                ok = ok and worst <= budget <= linear_cap
                ok = ok and size == math.factorial(a) ** q * math.factorial(r)
                families += 1
    _report(
        "acceptance-09 block family size and copy budget",
        ok,
        f"{families} (pattern, n, a) families streamed exhaustively",
    )


def test_10_grid_formulation_matches_avoidance():
    started = time.perf_counter()
    rng = np.random.default_rng(10_000)
    ok = True
    trials = 0
    for k in (2, 3):
        for _ in range(20):
            n = int(rng.integers(max(k, 2), 6))
            all_sets = list(combinations(range(1, n + 1), k))
            keep = rng.random(len(all_sets)) < 0.5
            lam = KUniformHypergraph(
                n, k, tuple(e for e, kept in zip(all_sets, keep) if kept)
            )
            pattern = Permutation(tuple(
                int(v) + 1 for v in rng.permutation(k)
            ))
            h = build_h(n, pattern, lam)
            ok = ok and len(h.edges) == lam.edge_count * math.comb(n, k)
            if h.edges:
                ok = ok and delta_ell(h, k) == 1
            independents = 0
            avoiders = 0
            for values in permutations(range(1, n + 1)):
                sigma = Permutation(values)
                indep = is_independent(h, canonical_set(sigma))
                avoid = not lambda_contains(sigma, pattern, lam)
                ok = ok and indep == avoid
                independents += indep
                avoiders += avoid
            ok = ok and independents == avoiders
            ok = ok and avoiders == enumerate_avoiders(n, pattern, lam).count
            trials += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    _report(
        "acceptance-10 grid independence equals avoidance",
        ok,
        f"{trials} random hypergraphs, {elapsed:.1f}s",
    )


def test_11_submatrix_sampling_identity():
    ok = True
    details = []
    for label, m, seed in [
        ("permutation", permutation_matrix((2, 4, 1, 3)), 11_001),
        ("block-diagonal", extremal_block_diagonal(4, 8), 11_002),
    ]:
        exact = densities(m, (1, 2))
        rep = sampling_estimates(m, (1, 2), r=3, trials=100_000, seed=seed)
        for mean, se, truth in [
            (rep.one_mean, rep.one_se, exact.one_density),
            (rep.pi_mean, rep.pi_se, exact.pi_density),
        ]:
            gap = abs(float(mean - truth))
            if se == 0:
                ok = ok and gap == 0
            else:
                ok = ok and gap <= 3 * se
                details.append(f"{label} {gap / se:.2f} SE")
    _report(
        "acceptance-11 submatrix sampling unbiased",
        ok,
        "; ".join(details),
    )


def test_12_manifest_replay_is_byte_identical(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    argv = ["expect-mc", "--estimator", "lambda", "--n", "5", "--pi", "2,1",
            "--alpha", "2/5", "--samples", "150", "--seed", "77",
            "--manifest", str(manifest_path)]
    code = cli_main(argv)
    first = capsys.readouterr().out
    manifest = json.loads(manifest_path.read_text())
    runs = []
    for _ in range(2):
        rc = cli_main(list(manifest["argv"]))
        runs.append((rc, capsys.readouterr().out))
    digests = {hashlib.sha256(out.encode()).hexdigest() for _, out in runs}
    ok = (
        code == 0
        and all(rc == 0 for rc, _ in runs)
        and runs[0][1] == runs[1][1] == first
        and digests == {manifest["output_sha256"]}
    )
    _report(
        "acceptance-12 manifest replay determinism",
        ok,
        f"two replays, digest {manifest['output_sha256'][:12]}…",
    )
