"""Exception types shared across the package.

CapExceededError is deliberately not a ValueError: the CLI maps
validation failures to exit code 2 and cap/ceiling refusals to exit
code 3, so the two must stay distinguishable.
"""


class CapExceededError(Exception):
    """An enumeration cap or cost ceiling refused the requested work.

    The message names the limit and its value.  For a configured limit
    that tells the caller which knob to raise; a fixed limit of the
    implementation passes a ``remedy`` that says no knob lifts it.
    """

    def __init__(self, limit_name: str, limit_value, requested,
                 remedy: str = "raise the limit explicitly to proceed"):
        self.limit_name = limit_name
        self.limit_value = limit_value
        self.requested = requested
        super().__init__(
            f"{limit_name}={limit_value} exceeded (requested {requested}); {remedy}"
        )


class DimensionMismatchError(ValueError):
    """Inputs whose sizes must agree (e.g. hypergraph vs permutation) do not."""


class CliqueCoverError(ValueError):
    """A claimed clique cover failed validation.

    ``witness`` carries the offending object: a vertex k-set missing
    from the edge set, or a vertex with zero memberships.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)
