"""Pattern avoidance restricted to hypergraph edges.

A permutation sigma avoids pi over a k-uniform hypergraph when no
occurrence of pi sits on an index set that is an edge; the complete
hypergraph recovers classical avoidance, the empty one forbids
nothing.  Also here: the exact expected number of avoiders over a
random hypergraph with edge probability alpha,

    E = sum over sigma in S_n of (1 - alpha)^(#copies of pi in sigma),

evaluated from one copy-count distribution pass and compared against
two Monte-Carlo estimators (sampling sigma, and sampling the
hypergraph itself).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from . import kernels, rngutil
from .config import check_limit
from .hypergraphs import KUniformHypergraph, check_dims
from .perms import (
    PermLike,
    Permutation,
    as_permutation,
    copy_count_distribution,
)


def _kernel_edges(lam: KUniformHypergraph | None):
    """Λ's 0-based edges for the kernels, or None when every index set
    is an edge (``lam`` complete, or None for the complete one): the
    kernels then take all C(n,k) index sets without listing them."""
    return None if lam is None or lam.is_complete() else lam.zero_based_edges()


def _lambda_walk(sigma: PermLike, pi: PermLike, lam: KUniformHypergraph):
    """The occurrences of pi in sigma whose index set is an edge of Λ."""
    s = as_permutation(sigma)
    p = as_permutation(pi)
    check_dims(lam.n, lam.k, len(s), len(p))
    return kernels.occurrences(s.zero_based, p.zero_based, _kernel_edges(lam))


def lambda_contains(sigma: PermLike, pi: PermLike, lam: KUniformHypergraph) -> bool:
    """True iff some occurrence of pi in sigma has an edge as its index set."""
    return next(_lambda_walk(sigma, pi, lam), None) is not None


def count_lambda_occurrences(
    sigma: PermLike, pi: PermLike, lam: KUniformHypergraph
) -> int:
    """Number of occurrences of pi in sigma whose index set is an edge."""
    return sum(1 for _ in _lambda_walk(sigma, pi, lam))


@dataclass(frozen=True)
class AvoiderReport:
    """Exact census of the permutations avoiding pi over one hypergraph."""

    n: int
    k: int
    pattern: Permutation
    lambda_edge_count: int
    count: int
    avoiders: tuple[Permutation, ...] | None = None


def enumerate_avoiders(
    n: int,
    pi: PermLike,
    lam: KUniformHypergraph | None,
    collect: bool = False,
) -> AvoiderReport:
    """Count (and with ``collect``, list) the sigma in S_n with no
    occurrence of pi on an edge of ``lam``.  One pass over S_n in
    lexicographic order, gated by the enumeration cap.

    ``lam=None`` stands for the complete hypergraph, which is never
    built: its C(n,k) edges are only counted.
    """
    check_limit("enum_cap", n)
    p = as_permutation(pi)
    if lam is None:
        edge_count = math.comb(n, len(p))  # ValueError for n < 0
    else:
        check_dims(lam.n, lam.k, n, len(p))
        edge_count = lam.edge_count
    count, raw = kernels.count_avoiders(n, p.zero_based, _kernel_edges(lam), collect)
    avoiders = None
    if collect:
        avoiders = tuple(Permutation(tuple(v + 1 for v in s)) for s in raw)
    return AvoiderReport(
        n=n,
        k=len(p),
        pattern=p,
        lambda_edge_count=edge_count,
        count=count,
        avoiders=avoiders,
    )


@dataclass(frozen=True)
class ExpectationReport:
    """Exact E[#avoiders] over the random hypergraph, with the paper
    trail needed to eyeball the exponential bound at small n.

    ``bound_value`` is alpha^(-n/(k-1)) and ``empirical_constant`` is
    (log E + (n/(k-1)) log alpha)/n; both are None when k < 2 (the
    exponent is undefined there) and follow IEEE conventions at
    alpha = 0 (bound inf, constant -inf).
    """

    n: int
    k: int
    alpha: Fraction
    exact_value: Fraction
    bound_value: float | None
    empirical_constant: float | None


def exact_expected_avoiders(
    n: int,
    k: int,
    pi: PermLike,
    alpha: "Fraction | int | str",
) -> ExpectationReport:
    """Evaluate E = sum_sigma (1-alpha)^(#copies) exactly in rationals:
    the one-alpha case of :func:`exact_expected_avoiders_grid`.

    >>> exact_expected_avoiders(2, 2, (1, 2), "1/2").exact_value
    Fraction(3, 2)
    """
    return next(exact_expected_avoiders_grid(n, k, pi, (alpha,)))


def exact_expected_avoiders_grid(
    n: int,
    k: int,
    pi: PermLike,
    alphas: "Iterable[Fraction | int | str]",
) -> Iterator[ExpectationReport]:
    """Yield the exact E for each alpha in turn from one S_n pass: the
    copy-count histogram h, evaluated as E = sum_c h_c (1-alpha)^c, an
    integer sum of the ``_power_tally`` numerators over its denominator.
    Each alpha is checked when its turn comes, the first one before the
    dimensions and the cap; an empty grid makes no pass."""
    hist = None
    for alpha in alphas:
        alpha = rngutil.exact_probability(alpha)
        if hist is None:
            p = as_permutation(pi)
            check_dims(n, k, n, len(p))
            hist = copy_count_distribution(n, p).histogram
        terms, scale = _power_tally(alpha, hist)
        exact = Fraction(sum(value * ways for value, ways in terms), scale)
        yield ExpectationReport(
            n=n,
            k=k,
            alpha=alpha,
            exact_value=exact,
            bound_value=_bound_value(n, k, alpha),
            empirical_constant=_empirical_constant(n, k, alpha, exact),
        )


def _power_tally(alpha: Fraction, tally: dict[int, int]) -> tuple[list[tuple[int, int]], int]:
    """(1-alpha)^c for each count c of a {c: multiplicity} tally, as
    (numerator, multiplicity) pairs over one denominator: with
    1 - alpha = a/b and C the largest count, a^c b^(C-c) over b^C."""
    (a, b), top = (1 - alpha).as_integer_ratio(), max(tally)
    return [(a**c * b**(top - c), ways) for c, ways in tally.items()], b**top


def _bound_value(n: int, k: int, alpha: Fraction) -> float | None:
    if k < 2:
        return None
    if alpha == 0:
        return math.inf
    return float(alpha) ** (-n / (k - 1))


def _empirical_constant(
    n: int, k: int, alpha: Fraction, exact: Fraction
) -> float | None:
    if k < 2 or n == 0:
        return None
    if alpha == 0:
        return -math.inf
    return (math.log(exact) + (n / (k - 1)) * math.log(alpha)) / n


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with its standard error.

    ``estimate`` is kept as an exact rational (the sample mean of
    exact per-sample values); only the standard error is a float.
    """

    method: str
    n: int
    k: int
    alpha: Fraction
    samples: int
    seed: int
    estimate: Fraction
    std_error: float


def mc_expected_avoiders_by_sigma(
    n: int,
    pi: PermLike,
    alpha: "Fraction | int | str",
    samples: int,
    seed: int,
) -> MCEstimate:
    """Estimate E by sampling sigma uniformly: the estimator is
    n! times the sample mean of (1-alpha)^(#copies of pi in sigma).

    Each sample counts over C(n,k) index sets, so the projected work
    samples * C(n,k) * k is refused above the cost ceiling; n! must be
    a float (n <= 170) for the standard error.

    For n <= 8 (``_CODED_N``) no permutation is built: each block of samples
    is drawn as Fisher-Yates codes (``rngutil.permutation_codes``), and
    one ``take`` from ``_copy_count_table`` (n! entries, 40,320 bytes at
    n = 8) gives their copy counts.  Larger n shuffle each block and
    count it with ``kernels.occurrence_counts``.  Both consume the same
    stream, so a seed gives the same estimate on either path.
    """
    alpha = rngutil.exact_probability(alpha)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = as_permutation(pi)
    cost = samples * max(1, math.comb(n, len(p))) * max(1, len(p))
    check_limit("cost_ceiling", cost)
    if n > 170:  # 171! overflows a float
        raise ValueError(f"n! exceeds float range for n = {n}; the sigma estimator "
                         "needs n <= 170")
    rng = rngutil.generator(seed)
    pi0 = p.zero_based
    if n <= _CODED_N:
        table = _copy_count_table(n, pi0)
        tally = np.zeros(math.comb(n, len(pi0)) + 1, np.int64)
        for codes in rngutil.permutation_codes(rng, n, samples):
            tally += np.bincount(table.take(codes), minlength=len(tally))
        copies = {c: m for c, m in enumerate(tally.tolist()) if m}
    else:
        copies = Counter()
        for blk in rngutil.permutation_blocks(rng, n, samples):
            copies.update(kernels.occurrence_counts(blk, pi0))
    mean, se = rngutil.mean_and_se(*_power_tally(alpha, copies))
    nfact = math.factorial(n)
    return MCEstimate(
        method="sigma",
        n=n,
        k=len(p),
        alpha=alpha,
        samples=samples,
        seed=seed,
        estimate=nfact * mean,
        std_error=nfact * se,
    )


# The sigma estimator looks copy counts up by shuffle code up to this n.
# At n = 9 a table would hold 362,880 entries, take about ten times as
# long to build as the 40,320 of n = 8, and no workload would repay it.
_CODED_N = 8


@functools.lru_cache(maxsize=16)
def _copy_count_table(n: int, pi: tuple[int, ...]) -> np.ndarray:
    """The copies of pi in the permutation of each shuffle code in
    [0, n!), as a read-only array of the type
    ``kernels.row_occurrence_counts`` gives (uint8 for n <= 8).

    Built from blocks of ``rngutil.BLOCK`` codes, each decoded by
    ``rngutil.code_permutations`` and counted by the kernel.  At
    n <= 8 a table is at most 40,320 bytes, so the cache holds at most
    16 * 40,320 bytes, about 645 KB.
    """
    total = math.factorial(n)
    table = np.concatenate([
        kernels.row_occurrence_counts(
            rngutil.code_permutations(n, np.arange(start, min(start + rngutil.BLOCK, total))),
            pi)
        for start in range(0, total, rngutil.BLOCK)])
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def mc_expected_avoiders_by_lambda(
    n: int,
    k: int,
    pi: PermLike,
    alpha: "Fraction | int | str",
    samples: int,
    seed: int,
) -> MCEstimate:
    """Estimate E directly: draw random hypergraphs and average the
    exact avoider count of each.

    One S_n pass serves a whole block of hypergraphs, which are tested
    against the index sets each permutation carries pi on.  The
    projected work is still samples * n! * C(n,k) * k, as if every
    sample were its own pass: a deliberate upper bound, refused above
    the cost ceiling.
    """
    alpha = rngutil.exact_probability(alpha)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_limit("enum_cap", n)
    p = as_permutation(pi)
    check_dims(n, k, n, len(p))
    cost = samples * math.factorial(n) * max(1, math.comb(n, k)) * max(1, k)
    check_limit("cost_ceiling", cost)
    rng = rngutil.generator(seed)
    candidates = tuple(combinations(range(n), k))
    avoiders = Counter()
    for lam in rngutil.bernoulli_blocks(rng, alpha, len(candidates), samples):
        avoiders.update(kernels.avoider_counts(n, p.zero_based, candidates, lam))
    mean, se = rngutil.mean_and_se(avoiders.items())
    return MCEstimate(
        method="lambda",
        n=n,
        k=k,
        alpha=alpha,
        samples=samples,
        seed=seed,
        estimate=mean,
        std_error=se,
    )
