"""Run the usage examples embedded in the library docstrings, and pin
the library surface they document."""

import doctest

import pytest

import permavoid
from permavoid import (
    avoidance,
    config,
    contraction,
    extremal,
    gridhg,
    hypergraphs,
    kernels,
    matrices,
    perms,
)

MODULES = [perms, matrices, hypergraphs, avoidance, contraction, extremal, gridhg,
           kernels]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


# Names that were deleted, none of which may come back by accident: those
# no subcommand, README line or acceptance test reached, and the limit
# globals and gates that ``override_limits`` and ``check_limit`` replace.
DELETED = [
    (permavoid, ("contains", "matrix_contains", "random_submatrix", "max_clique_size",
                 "LIMITS")),
    (config, ("LIMITS", "check_enum_cap", "check_matrix_cap", "check_ceiling")),
    (contraction, ("_group_tables",)),
    (kernels, ("matrix_contains_perm",)),
    (perms, ("contains",)),
    (perms.Permutation, ("complement", "inverse")),
    (perms.CopyCountDistribution, ("max_count", "from_json_dict")),
    (matrices, ("matrix_contains", "_pattern_of", "random_submatrix")),
    (matrices.BinaryMatrix, ("set_entry",)),
    (hypergraphs, ("max_clique_size",)),
    (hypergraphs.KUniformHypergraph, ("has_edge", "to_text")),
    (extremal.SnaFamily, ("contains_member",)),
]


def test_public_surface_is_all():
    names = permavoid.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(permavoid, name) for name in names)
    bound = {}
    exec("from permavoid import *", bound)
    assert set(bound) - {"__builtins__"} == set(names)
    for owner, gone in DELETED:
        assert not [name for name in gone if hasattr(owner, name)], owner
