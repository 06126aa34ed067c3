import random
from fractions import Fraction

import pytest

from permavoid import (
    BinaryMatrix,
    DimensionMismatchError,
    contract2,
    contract_b,
    count_matrix_copies,
    permutation_matrix,
    preimage_count_contract2,
)

import oracles


def random_square(rng, n, density=0.5):
    return BinaryMatrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


def test_contract2_golden():
    ident4 = permutation_matrix((1, 2, 3, 4))
    assert contract2(ident4) == permutation_matrix((1, 2))
    assert contract2(BinaryMatrix.zeros(2, 2)) == BinaryMatrix.zeros(1, 1)
    assert contract2(BinaryMatrix.filled(4, 4)) == BinaryMatrix.filled(2, 2)


def test_contract2_requires_even_square():
    with pytest.raises(DimensionMismatchError):
        contract2(BinaryMatrix.zeros(3, 3))
    with pytest.raises(DimensionMismatchError):
        contract2(BinaryMatrix.zeros(2, 4))


def test_contract2_matches_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.choice([2, 4, 6, 8])
        m = random_square(rng, n, rng.random())
        assert contract2(m).to_lists() == oracles.contract2_naive(m.to_lists())


def test_contract_b_special_cases():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(1, 7)
        m = random_square(rng, n)
        assert contract_b(m, Fraction(1)) == m
        if n % 2 == 0:
            assert contract_b(m, Fraction(2)) == contract2(m)


def test_contract_b_group_boundaries():
    # Shrinking by 3/2 sends rows 1,2,3 to groups 1,2,2.
    m = BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out = contract_b(m, Fraction(3, 2))
    assert out.rows == out.cols == 2
    assert out.to_lists() == [[1, 0], [0, 1]]
    big = contract_b(BinaryMatrix.filled(5, 5), Fraction(5, 2))
    assert big == BinaryMatrix.filled(2, 2)


@pytest.mark.parametrize("b", [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2),
                               Fraction(5, 2), Fraction(7, 3)], ids=str)
def test_contract_b_matches_group_or_oracle(b):
    # Two matrices per side: the second call of a side of at most 8 reads
    # the cached byte plan.  Sides 16 and 17 walk their rows bit by bit.
    rng = random.Random(55)
    for n in [*range(10), 16, 17]:
        for _ in range(2):
            m = random_square(rng, n, rng.random())
            out = contract_b(m, b)
            want = oracles.contract_b_naive(m.to_lists(), b)
            assert out.to_lists() == want
            assert out.rows == out.cols == len(want)
            # Built without revalidation, it is still the public matrix.
            public = BinaryMatrix.from_rows(want)
            assert out == public and hash(out) == hash(public)
            assert out.ones == public.ones == sum(map(sum, want))
            assert all(type(row) is int for row in out.row_bits)


def test_contract_b_matches_the_oracle_across_the_side_8_boundary():
    # Sides up to 8 merge rows as bytes of one int, past 8 bit by bit.
    # The factors give uneven groups (3/2, 5/3, 7/2) and a side of 1
    # (b = n, n + 1); b arrives as an int, a Fraction and a string.
    rng = random.Random(808)
    for n in range(11):
        grids = [[[0] * n for _ in range(n)], [[1] * n for _ in range(n)]]
        grids += [[[int(rng.random() < d) for _ in range(n)] for _ in range(n)]
                  for d in (0.1, 0.3, 0.6)]
        matrices = [BinaryMatrix.from_rows(grid) if n else BinaryMatrix.zeros(0, 0)
                    for grid in grids]
        for b in {1, 2, 3, Fraction(3, 2), Fraction(5, 3), Fraction(7, 2), max(n, 1), n + 1}:
            forms = [b, Fraction(b), str(b)] + ([int(b)] if b == int(b) else [])
            for grid, m in zip(grids, matrices):
                want = oracles.contract_b_naive(grid, Fraction(b))
                for form in forms:
                    out = contract_b(m, form)
                    assert out.to_lists() == want
                    assert out.rows == out.cols == len(want)
                    assert type(out.row_bits) is tuple
                    assert all(type(row) is int for row in out.row_bits)
        assert all(contract_b(m, True) == m for m in matrices)


def test_contract_b_reads_b_the_same_in_every_type():
    rng = random.Random(31)
    for n in range(0, 10):
        m = random_square(rng, n)
        for b in (1, 2, 3, 5):
            want = contract_b(m, Fraction(b))
            assert contract_b(m, b) == contract_b(m, str(b)) == want
        for b in (Fraction(3, 2), Fraction(7, 3)):
            assert contract_b(m, f"{b.numerator}/{b.denominator}") == contract_b(m, b)
        # True is Fraction(1), as before: the matrix comes back unchanged.
        assert contract_b(m, True) == m
    for b in (0, -2, Fraction(1, 2), "1/2", False):
        with pytest.raises(ValueError, match=f"contraction factor must be >= 1, got {Fraction(b)}"):
            contract_b(BinaryMatrix.zeros(2, 2), b)


def test_contract_b_validation():
    with pytest.raises(ValueError):
        contract_b(BinaryMatrix.zeros(2, 2), Fraction(1, 2))
    with pytest.raises(DimensionMismatchError):
        contract_b(BinaryMatrix.zeros(2, 3), Fraction(3, 2))


@pytest.mark.parametrize("pattern", [(1, 2), (2, 1), (1, 3, 2)])
def test_contraction_never_creates_copies(pattern):
    # Spot check; the exhaustive sweep lives in the acceptance suite.
    rng = random.Random(88)
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        m = random_square(rng, n, rng.random())
        base = count_matrix_copies(m, pattern)
        assert count_matrix_copies(contract2(m), pattern) <= base
        assert count_matrix_copies(contract_b(m, Fraction(3, 2)), pattern) <= base


def test_preimage_counts():
    assert preimage_count_contract2(BinaryMatrix.zeros(1, 1)) == 1
    assert preimage_count_contract2(BinaryMatrix.filled(1, 1)) == 15
    assert preimage_count_contract2(BinaryMatrix.filled(2, 2)) == 15 ** 4


def test_preimage_counts_by_enumeration():
    # Every 2x2 matrix contracts to a 1x1 target; tally them directly.
    tallies = {0: 0, 1: 0}
    for mask in range(16):
        grid = [[(mask >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        target = oracles.contract2_naive(grid)[0][0]
        tallies[target] += 1
    assert tallies[0] == preimage_count_contract2(BinaryMatrix.zeros(1, 1))
    assert tallies[1] == preimage_count_contract2(BinaryMatrix.filled(1, 1))
