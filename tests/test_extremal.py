import itertools
import math
from fractions import Fraction

import pytest

from permavoid import (
    BinaryMatrix,
    CapExceededError,
    Permutation,
    count_matrix_copies,
    count_snm,
    extremal_block_diagonal,
    max_ones_avoiding,
    min_copies_brute,
    override_limits,
    permutation_matrix,
    rngutil,
    sna_copy_budget,
    sna_family,
    verify_sna_budget,
)
from permavoid.extremal import _support_blocks

import oracles


# ----------------------------------------------------------- max ones


def test_max_ones_golden_small():
    rep = max_ones_avoiding(2, (1, 2))
    assert rep.max_ones == 3
    assert rep.witness.to_lists() == [[1, 1], [1, 0]]
    assert rep.ratio == Fraction(3, 2)
    assert max_ones_avoiding(3, (1, 2)).max_ones == 5
    assert max_ones_avoiding(1, (1, 2)).max_ones == 1


@pytest.mark.parametrize("pattern", [(1, 2), (2, 1), (2, 1, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_max_ones_matches_oracle(n, pattern):
    assert max_ones_avoiding(n, pattern).max_ones == oracles.max_ones_naive(n, pattern)


def test_max_ones_methods_agree():
    for pattern in [(1, 2), (2, 1), (1, 3, 2)]:
        for n in [2, 3, 4]:
            exhaustive = max_ones_avoiding(n, pattern)
            search = max_ones_avoiding(n, pattern, method="search")
            assert exhaustive.max_ones == search.max_ones
            assert exhaustive.method == "exhaustive"
            assert search.method == "branch-and-bound"
            # Both witnesses must actually avoid the pattern.
            for rep in (exhaustive, search):
                assert count_matrix_copies(rep.witness, pattern) == 0
                assert rep.witness.ones == rep.max_ones


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_witness_is_first_optimum_in_search_order(n, k):
    for pattern in itertools.permutations(range(1, k + 1)):
        rep = max_ones_avoiding(n, pattern, method="search")
        assert rep.witness.to_lists() == oracles.max_ones_witness_naive(n, pattern)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_witness_is_least_mask_optimum(n, k):
    for pattern in itertools.permutations(range(1, k + 1)):
        rep = max_ones_avoiding(n, pattern, method="exhaustive")
        assert rep.witness.to_lists() == oracles.max_ones_least_mask_naive(n, pattern)
        assert rep.max_ones == rep.witness.ones


# The four non-monotone 3 x 3 patterns read 4n - 4 too.  That value is
# not taken from a published statement here: brute force confirms it
# through n = 4 (test_search_witness_is_first_optimum_in_search_order),
# and these rows pin the search to it at n = 5..7.
@pytest.mark.parametrize("pattern,n", [
    (p, n) for p in [(1, 2), (2, 1)] for n in (6, 7, 8)
] + [
    (p, n) for p in [(1, 2, 3), (3, 2, 1)] for n in (5, 6, 9)
] + [
    (p, n) for p in [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)] for n in (5, 6, 7)
], ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else f"n{v}")
def test_search_meets_identity_formula_past_brute_force(pattern, n):
    rep = max_ones_avoiding(n, pattern, method="search")
    want = oracles.ex_identity(n, len(pattern))
    assert rep.max_ones == rep.witness.ones == want
    assert count_matrix_copies(rep.witness, pattern) == 0


def test_search_reaches_132_at_n8_under_the_default_ceiling():
    # Without dropping dominated embeddings the program would meet
    # millions of states here; it meets a few thousand.  The value is
    # 4n - 4, the identity formula's for k = 3.
    rep = max_ones_avoiding(8, (1, 3, 2), method="search")
    assert rep.max_ones == rep.witness.ones == 28
    assert count_matrix_copies(rep.witness, (1, 3, 2)) == 0


def test_max_ones_validation_and_caps():
    with pytest.raises(ValueError):
        max_ones_avoiding(2, ())
    with pytest.raises(CapExceededError):
        max_ones_avoiding(5, (1, 2))  # 2^25 masks is past the default cap
    with override_limits(matrix_cap=2), pytest.raises(CapExceededError):
        max_ones_avoiding(3, (1, 2))  # overrides may also lower
    with override_limits(matrix_cap=4):
        assert max_ones_avoiding(4, (1, 2)).max_ones == 7  # ex = 2n-1


# ---------------------------------------------------------- min copies


def test_min_copies_golden():
    assert min_copies_brute(2, 4, (1, 2)).min_copies == 1
    assert min_copies_brute(3, 9, (1, 2)).min_copies == 9
    assert min_copies_brute(2, 3, (1, 2)).min_copies == 0
    rep = min_copies_brute(2, 4, (1, 2))
    assert rep.witness == BinaryMatrix.filled(2, 2)
    assert rep.reference_bound == Fraction(4 ** 3, 2 ** 2)


@pytest.mark.parametrize("pattern", [(1, 2), (2, 1)])
def test_min_copies_matches_oracle(pattern):
    for n in [2, 3]:
        for a in range(n * n + 1):
            rep = min_copies_brute(n, a, pattern)
            assert rep.min_copies == oracles.min_copies_naive(n, a, pattern)
            assert rep.witness.ones == a
            assert count_matrix_copies(rep.witness, pattern) == rep.min_copies


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_copies_witness_is_first_minimum(n):
    # Supports run through blocks of up to rngutil.BLOCK; C(9, 4) = 126
    # of them fit in one, so the oracle checks the first-minimum rule.
    for k in (1, 2, 3):
        for pattern in itertools.permutations(range(1, k + 1)):
            for a in range(n * n + 1):
                rep = min_copies_brute(n, a, pattern)
                best, grid = oracles.min_copies_witness_naive(n, a, pattern)
                assert (rep.min_copies, rep.witness.to_lists()) == (best, grid)


def test_min_copies_witness_across_block_boundaries():
    # C(16, 8) = 12870 supports: the first minimum lies past the first block.
    rep = min_copies_brute(4, 8, (1, 2))
    best, grid = oracles.min_copies_witness_naive(4, 8, (1, 2))
    assert (rep.min_copies, rep.witness.to_lists()) == (best, grid)


@pytest.mark.parametrize("block", [7, 2048])
def test_support_blocks_follow_combinations_row_for_row(monkeypatch, block):
    # Every a from 0 to N, blocks cut at 7 rows and at the default.
    monkeypatch.setattr(rngutil, "BLOCK", block)
    for m in range(1, 17):
        for a in range(m + 1):
            blocks = list(_support_blocks(m, a))
            assert all(1 <= len(b) <= block and b.shape[1] == a for b in blocks)
            rows = [tuple(row) for b in blocks for row in b.tolist()]
            assert rows == list(itertools.combinations(range(m), a))


def test_support_rank_tables_are_cached_read_only_binomials():
    from permavoid.extremal import _rank_tables
    for m, a in [(16, 0), (16, 8), (9, 9), (1, 1)]:
        tables = _rank_tables(m, a)
        assert _rank_tables(m, a) is tables and not tables.flags.writeable
        assert tables.shape == (a, m)
        assert tables.tolist() == [[math.comb(d, a - j) for d in range(m)] for j in range(a)]


@pytest.mark.parametrize("block", [1, 5, 1000])
def test_min_copies_witness_at_small_blocks(monkeypatch, block):
    # The first minimum and the early stop must not depend on where the
    # blocks are cut; C(16, 8) = 12870 is no multiple of 1000.
    monkeypatch.setattr(rngutil, "BLOCK", block)
    cases = [(n, a, pattern) for n in (1, 2, 3) for a in range(n * n + 1)
             for pattern in [(1, 2), (2, 1), (1, 3, 2)]]
    if block == 1000:
        cases.append((4, 8, (1, 2)))
    for n, a, pattern in cases:
        rep = min_copies_brute(n, a, pattern)
        best, grid = oracles.min_copies_witness_naive(n, a, pattern)
        assert (rep.min_copies, rep.witness.to_lists()) == (best, grid)


def test_min_copies_validation():
    with pytest.raises(ValueError):
        min_copies_brute(2, 5, (1, 2))
    with pytest.raises(CapExceededError):
        min_copies_brute(5, 10, (1, 2))


def test_min_copies_charges_its_supports_to_the_subset_ceiling():
    # C(16, 8) = 12870 supports; the ceiling is inclusive.
    with override_limits(subset_ceiling=12869), \
            pytest.raises(CapExceededError, match="subset_ceiling"):
        min_copies_brute(4, 8, (1, 2))
    with override_limits(subset_ceiling=12870):
        assert min_copies_brute(4, 8, (1, 2)).witness.ones == 8
    # C(100, 50) is past 2^63, where the int64 ranks would wrap: refused
    # whatever the ceiling, naming the rank limit rather than the ceiling.
    with override_limits(matrix_cap=10, subset_ceiling=10 ** 40), \
            pytest.raises(CapExceededError) as exc:
        min_copies_brute(10, 50, (1, 2))
    assert exc.value.limit_name == "int64_rank"
    assert str(exc.value) == (
        f"int64_rank={2 ** 63 - 1} exceeded (requested {math.comb(100, 50)}); "
        "min-copies ranks its supports in int64, and no limit lifts that")


# ------------------------------------------------------ block diagonal


def test_block_diagonal_golden():
    m = extremal_block_diagonal(4, 8)
    assert m.row_lines() == ["1100", "1100", "0011", "0011"]
    assert m.ones == 8
    assert count_matrix_copies(m, (2, 1)) == 2
    assert count_matrix_copies(m, (1, 2)) == 18
    assert extremal_block_diagonal(4, 16) == BinaryMatrix.filled(4, 4)
    assert extremal_block_diagonal(3, 3) == permutation_matrix((1, 2, 3))


def test_block_diagonal_descending_copies_stay_inside_blocks():
    # Each a/n-sided block contributes C(side,2)^2 falling pairs and
    # blocks never combine for a descent, hence the closed form.
    for n, a in [(4, 8), (6, 12), (8, 16)]:
        side = a // n
        blocks = n * n // a
        m = extremal_block_diagonal(n, a)
        assert count_matrix_copies(m, (2, 1)) == blocks * math.comb(side, 2) ** 2


def test_sharpness_sandwich_at_n4():
    # The brute-force minimum, the construction, and the reference
    # bound must nest for every ones count the construction supports.
    n, k = 4, 2
    for a in [4, 8, 16]:
        built = count_matrix_copies(extremal_block_diagonal(n, a), (2, 1))
        best = min_copies_brute(n, a, (2, 1)).min_copies
        bound = Fraction(a ** (2 * k - 1), n ** (2 * k - 2))
        assert best <= built <= bound


def test_block_diagonal_validation():
    with pytest.raises(ValueError):
        extremal_block_diagonal(4, 6)  # 4 does not divide 6
    with pytest.raises(ValueError):
        extremal_block_diagonal(4, 12)  # 12 does not divide 16
    with pytest.raises(ValueError):
        extremal_block_diagonal(0, 0)


# -------------------------------------------------- block permutations


def test_sna_family_members_golden():
    fam = sna_family(4, 2)
    assert (fam.q, fam.r, fam.size) == (2, 0, 4)
    members = [p.to_text() for p in fam.members()]
    assert members == ["1,2,3,4", "1,2,4,3", "2,1,3,4", "2,1,4,3"]


def test_sna_family_size_formula():
    for n in range(1, 8):
        for a in range(1, n + 1):
            fam = sna_family(n, a)
            q, r = divmod(n, a)
            assert fam.size == math.factorial(a) ** q * math.factorial(r)
            assert sum(1 for _ in fam.members()) == fam.size


@pytest.mark.parametrize("n,a", [(8, 7), (8, 3), (7, 2), (6, 6), (5, 1)])
def test_sna_members_and_budget_match_oracle(n, a):
    # (8, 7) has 7! = 5040 members, more than one block of rngutil.BLOCK.
    fam = sna_family(n, a)
    want = oracles.sna_members_naive(n, a)
    assert [p.values for p in fam.members()] == want
    for pattern in [(2, 1), (3, 2, 1), (3, 1, 2)]:
        rep = verify_sna_budget(n, a, pattern)
        assert rep.max_observed == max(oracles.count_naive(s, pattern) for s in want)


def test_sna_members_keep_values_past_one_byte():
    # Values 1..256 reach past a uint8 block of 0-based values plus one.
    for n in (255, 256, 257):
        with override_limits(enum_cap=n):
            assert [p.values for p in sna_family(n, 1).members()] == [tuple(range(1, n + 1))]


def test_sna_members_with_runs_past_int64_radix():
    # 21! > 2^63: a run of 21 takes its digit whole from an int64 rank.
    # The first members of one run of 21 are the first permutations of it;
    # with a remainder of 2 they step the remainder fastest.
    first = list(itertools.islice(itertools.permutations(range(1, 22)), 5))
    tails = list(itertools.permutations((22, 23)))
    want = [head + tail for head in first[:3] for tail in tails][:5]
    with override_limits(enum_cap=23):
        members = sna_family(21, 21).members()
        assert [p.values for p in itertools.islice(members, 5)] == first
        members = sna_family(23, 21).members()
        assert [p.values for p in itertools.islice(members, 5)] == want


def test_sna_family_validation():
    with pytest.raises(ValueError):
        sna_family(3, 4)
    with pytest.raises(ValueError):
        sna_family(3, 0)


def test_sna_budget_formula():
    assert sna_copy_budget(6, 3, 3) == 2 * math.comb(3, 3) + math.comb(0, 3)
    assert sna_copy_budget(7, 3, 2) == 2 * math.comb(3, 2) + math.comb(1, 2)
    q, r = divmod(9, 4)
    assert sna_copy_budget(9, 4, 2) == q * math.comb(4, 2) + math.comb(r, 2)


def test_verify_sna_budget_descending_triple():
    rep = verify_sna_budget(6, 3, (3, 2, 1))
    assert rep.family_size == 36
    assert rep.budget == 2
    assert rep.max_observed == 2
    assert rep.within_budget
    assert rep.linear_cap == 6 * 3 ** 2
    assert rep.max_observed <= rep.budget <= rep.linear_cap


def test_verify_sna_budget_requires_falling_pattern():
    with pytest.raises(ValueError, match="reverse"):
        verify_sna_budget(6, 3, (1, 2, 3))


def test_budget_is_tight_for_descents():
    # A falling pair can only occur inside a run, so the bound is an
    # equality for the member that reverses every run.
    for n, a in [(5, 2), (6, 3), (7, 3)]:
        rep = verify_sna_budget(n, a, (2, 1))
        assert rep.max_observed == rep.budget


# ------------------------------------------------------- few copies


def test_count_snm_golden():
    assert count_snm(3, 1, (1, 2)) == 3
    assert count_snm(5, 0, (3, 2, 1)) == 42
    assert count_snm(3, 3, (1, 2)) == 6


def test_count_snm_monotone_and_exhaustive():
    previous = 0
    for m in range(0, math.comb(4, 2) + 1):
        current = count_snm(4, m, (1, 2))
        assert current >= previous
        previous = current
    assert count_snm(4, math.comb(4, 2), (1, 2)) == math.factorial(4)


def test_count_snm_matches_histogram_oracle():
    hist = oracles.histogram_naive(5, (2, 1, 3))
    for m in [0, 1, 2, 5]:
        assert count_snm(5, m, (2, 1, 3)) == sum(
            v for c, v in hist.items() if c <= m
        )
