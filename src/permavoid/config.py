"""Work limits for the exhaustive operations.

Every full pass over S_n or over a matrix/subset space is gated by one
of these limits so a typo'd CLI argument fails fast instead of running
for days.  Defaults can be overridden per call (every gated function
takes an explicit ``cap=``/``ceiling=`` argument) or process-wide via
environment variables:

    PERMAVOID_ENUM_CAP        max n for full S_n passes        (default 12)
    PERMAVOID_MATRIX_CAP      max n for the exhaustive n x n
                              matrix searches (min-copies and
                              max-ones --mode exhaustive)      (default 4)
    PERMAVOID_EDGE_CEILING    max edge count when building the
                              grid pattern hypergraph, and max
                              C(n,k) candidate edges listed by
                              hypergraph and lambda-star       (default 500000)
    PERMAVOID_SUBSET_CEILING  max candidate-subset count for
                              exact independent-set counting,
                              max n^2 cells of the extremal
                              matrix                           (default 5000000)
    PERMAVOID_COST_CEILING    max C(n,k) * k for the occurrences
                              of one permutation, samples * n!
                              * C(n,k) * k for hypergraph
                              sampling, samples * C(n,k) * k
                              for sigma sampling, trials *
                              C(r,k) * k * r for submatrix
                              sampling, C(rows,k) * k * cols
                              for the exact copy density of a
                              matrix and the copies counted by
                              extremal --pi, the sum over states
                              of 2^n plus the state's bytes
                              for the max-ones row transfer    (default 5e9)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not an integer") from exc


@dataclass
class Limits:
    enum_cap: int = 12
    matrix_cap: int = 4
    edge_ceiling: int = 500_000
    subset_ceiling: int = 5_000_000
    mc_cost_ceiling: int = 5_000_000_000

    @classmethod
    def from_env(cls) -> "Limits":
        return cls(
            enum_cap=_env_int("PERMAVOID_ENUM_CAP", cls.enum_cap),
            matrix_cap=_env_int("PERMAVOID_MATRIX_CAP", cls.matrix_cap),
            edge_ceiling=_env_int("PERMAVOID_EDGE_CEILING", cls.edge_ceiling),
            subset_ceiling=_env_int("PERMAVOID_SUBSET_CEILING", cls.subset_ceiling),
            mc_cost_ceiling=_env_int("PERMAVOID_COST_CEILING", cls.mc_cost_ceiling),
        )


LIMITS = Limits.from_env()


def check_enum_cap(n: int, cap: int | None = None) -> None:
    """Refuse a full S_n pass when n exceeds the enumeration cap."""
    limit = LIMITS.enum_cap if cap is None else cap
    if n > limit:
        raise CapExceededError("enum_cap", limit, n)


def check_matrix_cap(n: int, cap: int | None = None) -> None:
    limit = LIMITS.matrix_cap if cap is None else cap
    if n > limit:
        raise CapExceededError("matrix_cap", limit, n)


def check_ceiling(name: str, value: int, ceiling: int | None, default: int) -> None:
    limit = default if ceiling is None else ceiling
    if value > limit:
        raise CapExceededError(name, limit, value)
