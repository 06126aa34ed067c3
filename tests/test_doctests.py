"""Run the usage examples embedded in the library docstrings."""

import doctest

import pytest

from permavoid import (
    avoidance,
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
