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

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from typing import Iterable, Iterator

from . import kernels, rngutil
from .config import LIMITS, check_ceiling, check_enum_cap
from .hypergraphs import KUniformHypergraph, check_dims
from .perms import (
    PermLike,
    Permutation,
    as_permutation,
    copy_count_distribution,
)


def lambda_contains(sigma: PermLike, pi: PermLike, lam: KUniformHypergraph) -> bool:
    """True iff some occurrence of pi in sigma has an edge as its index set."""
    s = as_permutation(sigma)
    p = as_permutation(pi)
    check_dims(lam.n, lam.k, len(s), len(p))
    if not lam.edges:
        return False
    if lam.is_complete():
        return kernels.contains(s.zero_based, p.zero_based)
    return kernels.hits_edge(s.zero_based, p.zero_based, lam.zero_based_edges())


def count_lambda_occurrences(
    sigma: PermLike, pi: PermLike, lam: KUniformHypergraph
) -> int:
    """Number of occurrences of pi in sigma whose index set is an edge."""
    s = as_permutation(sigma)
    p = as_permutation(pi)
    check_dims(lam.n, lam.k, len(s), len(p))
    if not lam.edges:
        return 0
    return kernels.count_edge_hits(s.zero_based, p.zero_based, lam.zero_based_edges())


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
    cap: int | None = None,
) -> AvoiderReport:
    """Count (and with ``collect``, list) the sigma in S_n with no
    occurrence of pi on an edge of ``lam``.  One pass over S_n in
    lexicographic order, gated by the enumeration cap.

    ``lam=None`` stands for the complete hypergraph, which is never
    built: its C(n,k) edges are only counted.
    """
    check_enum_cap(n, cap)
    p = as_permutation(pi)
    if lam is None:
        edge_count = math.comb(n, len(p))  # ValueError for n < 0
    else:
        check_dims(lam.n, lam.k, n, len(p))
        edge_count = lam.edge_count
    # The complete hypergraph makes the edge condition vacuous, and the
    # plain containment test short-circuits much earlier.
    edges = None if lam is None or lam.is_complete() else lam.zero_based_edges()
    count, raw = kernels.count_avoiders(n, p.zero_based, edges, collect)
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
    cap: int | None = None,
) -> ExpectationReport:
    """Evaluate E = sum_sigma (1-alpha)^(#copies) exactly in rationals:
    the one-alpha case of :func:`exact_expected_avoiders_grid`.

    >>> exact_expected_avoiders(2, 2, (1, 2), "1/2").exact_value
    Fraction(3, 2)
    """
    return next(exact_expected_avoiders_grid(n, k, pi, (alpha,), cap))


def exact_expected_avoiders_grid(
    n: int,
    k: int,
    pi: PermLike,
    alphas: "Iterable[Fraction | int | str]",
    cap: int | None = None,
) -> Iterator[ExpectationReport]:
    """Yield the exact E for each alpha in turn from one S_n pass: the
    copy-count histogram h, evaluated as E = sum_c h_c (1-alpha)^c.
    Each alpha is checked when its turn comes, the first one before the
    dimensions and the cap; an empty grid makes no pass."""
    hist = None
    for alpha in alphas:
        alpha = rngutil.exact_probability(alpha)
        if hist is None:
            p = as_permutation(pi)
            check_dims(n, k, n, len(p))
            hist = copy_count_distribution(n, p, cap).histogram
        beta = 1 - alpha
        exact = sum((ways * beta**c for c, ways in hist.items()), Fraction(0))
        yield ExpectationReport(
            n=n,
            k=k,
            alpha=alpha,
            exact_value=exact,
            bound_value=_bound_value(n, k, alpha),
            empirical_constant=_empirical_constant(n, k, alpha, exact),
        )


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
    cost_ceiling: int | None = None,
) -> MCEstimate:
    """Estimate E by sampling sigma uniformly: the estimator is
    n! times the sample mean of (1-alpha)^(#copies of pi in sigma).

    Each sample counts over C(n,k) index sets, so the projected work
    samples * C(n,k) * k is refused above the cost ceiling; n! must be
    a float (n <= 170) for the standard error.
    """
    alpha = rngutil.exact_probability(alpha)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = as_permutation(pi)
    cost = samples * max(1, math.comb(n, len(p))) * max(1, len(p))
    check_ceiling("cost_ceiling", cost, cost_ceiling, LIMITS.mc_cost_ceiling)
    if n > 170:  # 171! overflows a float
        raise ValueError(f"n! exceeds float range for n = {n}; the sigma estimator "
                         "needs n <= 170")
    rng = rngutil.generator(seed)
    pi0 = p.zero_based
    copies = Counter()
    for blk in rngutil.permutation_blocks(rng, n, samples):
        copies.update(kernels.occurrence_counts(blk, pi0))
    mean, se = rngutil.mean_and_se(((1 - alpha) ** c, m) for c, m in copies.items())
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


def mc_expected_avoiders_by_lambda(
    n: int,
    k: int,
    pi: PermLike,
    alpha: "Fraction | int | str",
    samples: int,
    seed: int,
    cap: int | None = None,
    cost_ceiling: int | None = None,
) -> MCEstimate:
    """Estimate E directly: draw random hypergraphs and average the
    exact avoider count of each.

    Every sample costs a full S_n enumeration, so the projected work
    samples * n! * C(n,k) * k is refused above the cost ceiling.
    """
    alpha = rngutil.exact_probability(alpha)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_enum_cap(n, cap)
    p = as_permutation(pi)
    check_dims(n, k, n, len(p))
    cost = samples * math.factorial(n) * max(1, math.comb(n, k)) * max(1, k)
    check_ceiling("cost_ceiling", cost, cost_ceiling, LIMITS.mc_cost_ceiling)
    rng = rngutil.generator(seed)
    candidates = list(combinations(range(n), k))
    pi0 = p.zero_based
    avoiders = Counter()
    for _ in range(samples):
        mask = rngutil.bernoulli_mask(rng, alpha, len(candidates))
        edges = tuple(compress(candidates, mask))
        avoiders[kernels.count_avoiders(n, pi0, edges, False)[0]] += 1
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
