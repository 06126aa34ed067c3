"""Work limits for the exhaustive operations.

Every full pass over S_n or over a matrix/subset space is gated by one
of five limits, so a typo'd CLI argument fails fast instead of running
for days.  Each limit has one name: it is the ``Limits`` field, the
label of the refusal, the CLI flag (``enum_cap`` is ``--enum-cap``)
and the environment variable (``PERMAVOID_ENUM_CAP``).  There is one
gate, :func:`check_limit`, and one way to change a limit for a stretch
of code, :func:`override_limits`.  The environment is read once, on
first use, not at import, so a malformed value is an error of the run
that meets it.

    enum_cap        max n for full S_n passes                  (default 12)
    matrix_cap      max n for the exhaustive n x n matrix
                    searches (min-copies and max-ones
                    --mode exhaustive)                         (default 4)
    edge_ceiling    max edge count when building the grid
                    pattern hypergraph, and max C(n,k)
                    candidate edges listed by hypergraph and
                    lambda-star                                (default 500000)
    subset_ceiling  max candidate-subset count for exact
                    independent-set counting, max C(n^2, a)
                    supports of min-copies (never 2^63 or
                    more), max n^2 cells of the extremal
                    matrix                                     (default 5000000)
    cost_ceiling    max C(n,k) * k for the occurrences of one
                    permutation, samples * n! * C(n,k) * k for
                    hypergraph sampling, samples * C(n,k) * k
                    for sigma sampling, trials * C(r,k) * k * r
                    for submatrix sampling, C(rows,k) * k *
                    cols for the exact copy density of a matrix
                    and the copies counted by extremal --pi,
                    the sum over states of 2^n plus the
                    state's bytes for the max-ones row
                    transfer                                   (default 5e9)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Iterator

from .errors import CapExceededError


@dataclass(frozen=True)
class Limits:
    """The five limits; each field's ``help`` is the help of its CLI flag."""

    enum_cap: int = field(default=12, metadata={
        "help": "override the S_n enumeration cap for this run"})
    matrix_cap: int = field(default=4, metadata={
        "help": "override the exhaustive matrix-search cap"})
    edge_ceiling: int = field(default=500_000, metadata={
        "help": "override the edge ceiling of the grid hypergraph and of the C(n,k) "
                "candidates that hypergraph and lambda-star list"})
    subset_ceiling: int = field(default=5_000_000, metadata={
        "help": "override the subset ceiling of independents, of the C(n^2,a) supports "
                "of min-copies and of the n^2 cells of the extremal report"})
    cost_ceiling: int = field(default=5_000_000_000, metadata={
        "help": "override the work ceiling of count, occurrences, the Monte-Carlo "
                "estimators, both max-ones modes, the exact pass of sample-density and "
                "the copy count of extremal --pi"})

    @classmethod
    def from_env(cls) -> "Limits":
        """The defaults, each replaced by its ``PERMAVOID_<NAME>``
        variable where that is set."""
        values = {}
        for limit in fields(cls):
            var = f"PERMAVOID_{limit.name.upper()}"
            raw = os.environ.get(var)
            if raw is not None:
                try:
                    values[limit.name] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"environment variable {var}={raw!r} is not an integer"
                    ) from None
        return cls(**values)


_env_limits = cache(Limits.from_env)
_override: ContextVar["Limits | None"] = ContextVar("permavoid_limits", default=None)


def check_limit(name: str, requested: int) -> None:
    """Refuse work of size ``requested`` above the limit ``name``."""
    limit = getattr(_override.get() or _env_limits(), name)
    if requested > limit:
        raise CapExceededError(name, limit, requested)


@contextmanager
def override_limits(**values: int) -> Iterator[Limits]:
    """Replace the named limits for the body of a ``with``.

    The other limits keep the values in force: the enclosing
    override's, or the environment's outside any.  Yields the limits in
    force inside.  An unknown name raises TypeError.  Overrides nest,
    and each restores the one outside it on exit, also on an exception.

    Generators (``enumerate_permutations``, ``SnaFamily.members`` and
    ``member_blocks``, ``exact_expected_avoiders_grid``) check their
    limit on the first ``next()``, so the ``with`` must span the
    iteration, not just the call.
    """
    token = _override.set(replace(_override.get() or _env_limits(), **values))
    try:
        yield _override.get()
    finally:
        _override.reset(token)
