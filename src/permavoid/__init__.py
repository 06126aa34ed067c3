"""permavoid: exact combinatorics of pattern avoidance over hypergraphs.

Permutation patterns, 0-1 matrix containment, avoidance restricted to
hypergraph edge sets, block contractions, extremal searches, and the
grid-hypergraph formulation — all exact, seeded, and desk-scale.

The counting kernels are Python and numpy, all in one module,
``permavoid.kernels``.
"""

from .avoidance import (
    AvoiderReport,
    ExpectationReport,
    MCEstimate,
    count_lambda_occurrences,
    enumerate_avoiders,
    exact_expected_avoiders,
    lambda_contains,
    mc_expected_avoiders_by_lambda,
    mc_expected_avoiders_by_sigma,
)
from .config import LIMITS, Limits
from .contraction import contract2, contract_b, preimage_count_contract2
from .errors import CapExceededError, CliqueCoverError, DimensionMismatchError
from .extremal import (
    MaxOnesReport,
    MinCopiesReport,
    SnaBudgetReport,
    SnaFamily,
    count_snm,
    easy_bound_check,
    extremal_block_diagonal,
    max_ones_avoiding,
    min_copies_brute,
    sna_copy_budget,
    sna_family,
    verify_sna_budget,
)
from .gridhg import (
    PatternHypergraph,
    build_h,
    canonical_permutation,
    canonical_set,
    count_independent_of_size,
    delta_ell,
    flat_index,
    is_independent,
)
from .hypergraphs import (
    CliqueCover,
    KUniformHypergraph,
    max_clique_size,
    multipartite_lambda_star,
    random_uniform_hypergraph,
    validate_clique_cover,
)
from .matrices import (
    BinaryMatrix,
    DensityPair,
    SamplingReport,
    count_matrix_copies,
    densities,
    matrix_contains,
    permutation_matrix,
    random_submatrix,
    sampling_estimates,
)
from .perms import (
    CopyCountDistribution,
    Permutation,
    as_permutation,
    contains,
    copy_count_distribution,
    count_occurrences,
    enumerate_occurrences,
    enumerate_permutations,
)

__version__ = "0.1.0"

__all__ = [
    "AvoiderReport",
    "BinaryMatrix",
    "CapExceededError",
    "CliqueCover",
    "CliqueCoverError",
    "CopyCountDistribution",
    "DensityPair",
    "DimensionMismatchError",
    "ExpectationReport",
    "KUniformHypergraph",
    "LIMITS",
    "Limits",
    "MCEstimate",
    "MaxOnesReport",
    "MinCopiesReport",
    "PatternHypergraph",
    "Permutation",
    "SamplingReport",
    "SnaBudgetReport",
    "SnaFamily",
    "as_permutation",
    "build_h",
    "canonical_permutation",
    "canonical_set",
    "contains",
    "contract2",
    "contract_b",
    "copy_count_distribution",
    "count_independent_of_size",
    "count_lambda_occurrences",
    "count_matrix_copies",
    "count_occurrences",
    "count_snm",
    "delta_ell",
    "densities",
    "easy_bound_check",
    "enumerate_avoiders",
    "enumerate_occurrences",
    "enumerate_permutations",
    "exact_expected_avoiders",
    "extremal_block_diagonal",
    "flat_index",
    "is_independent",
    "lambda_contains",
    "matrix_contains",
    "max_clique_size",
    "max_ones_avoiding",
    "mc_expected_avoiders_by_lambda",
    "mc_expected_avoiders_by_sigma",
    "min_copies_brute",
    "multipartite_lambda_star",
    "permutation_matrix",
    "preimage_count_contract2",
    "random_submatrix",
    "random_uniform_hypergraph",
    "sampling_estimates",
    "sna_copy_budget",
    "sna_family",
    "validate_clique_cover",
    "verify_sna_budget",
]
