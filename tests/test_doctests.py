"""Run the usage examples embedded in the library docstrings."""

import doctest

import pytest

from permavoid import (
    _kernels_py,
    avoidance,
    contraction,
    extremal,
    gridhg,
    hypergraphs,
    matrices,
    perms,
)

MODULES = [perms, matrices, hypergraphs, avoidance, contraction, extremal, gridhg,
           _kernels_py]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
