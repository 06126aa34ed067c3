import argparse
import dataclasses

import pytest

from permavoid import CapExceededError, cli, copy_count_distribution
from permavoid.config import Limits, check_limit, override_limits


def test_default_limits():
    limits = Limits()
    assert limits.enum_cap == 12
    assert limits.matrix_cap == 4


def test_limits_from_env(monkeypatch):
    monkeypatch.setenv("PERMAVOID_ENUM_CAP", "15")
    monkeypatch.setenv("PERMAVOID_EDGE_CEILING", "1000")
    limits = Limits.from_env()
    assert limits.enum_cap == 15
    assert limits.edge_ceiling == 1000
    assert limits.matrix_cap == Limits().matrix_cap
    monkeypatch.setenv("PERMAVOID_ENUM_CAP", "abc")
    with pytest.raises(ValueError, match="PERMAVOID_ENUM_CAP='abc'"):
        Limits.from_env()


def test_check_enum_cap():
    check_limit("enum_cap", 12)
    with pytest.raises(CapExceededError) as info:
        check_limit("enum_cap", 13)
    err = info.value
    assert err.limit_name == "enum_cap"
    assert err.requested == 13
    assert "raise the limit" in str(err)
    with override_limits(enum_cap=13):
        check_limit("enum_cap", 13)


def test_check_matrix_cap_and_ceiling():
    check_limit("matrix_cap", 4)
    with pytest.raises(CapExceededError):
        check_limit("matrix_cap", 5)
    with override_limits(edge_ceiling=10):
        check_limit("edge_ceiling", 10)
        with pytest.raises(CapExceededError):
            check_limit("edge_ceiling", 11)


def test_cap_errors_are_not_validation_errors():
    # Exit-code mapping depends on this distinction.
    assert not issubclass(CapExceededError, ValueError)


def test_overrides_nest_and_restore():
    with override_limits(enum_cap=13) as outer:
        assert outer.enum_cap == 13
        with override_limits(enum_cap=3, cost_ceiling=7) as inner:
            assert (inner.enum_cap, inner.cost_ceiling) == (3, 7)
            with pytest.raises(CapExceededError):
                check_limit("enum_cap", 4)
        check_limit("enum_cap", 13)
        check_limit("cost_ceiling", 8)
        with pytest.raises(RuntimeError), override_limits(enum_cap=2):
            raise RuntimeError
        check_limit("enum_cap", 13)
    with pytest.raises(CapExceededError):
        check_limit("enum_cap", 13)


def test_override_rejects_an_unknown_name():
    with pytest.raises(TypeError):
        with override_limits(enum_caps=13):
            pass


def test_a_cli_override_ends_with_the_run(capsys):
    argv = ["distribution", "--n", "4", "--pi", "1,2", "--enum-cap", "3"]
    assert cli.main(argv) == 3
    assert "enum_cap=3" in capsys.readouterr().err
    assert sum(copy_count_distribution(4, (1, 2)).histogram.values()) == 24


def test_every_limit_has_one_env_var_and_one_flag(monkeypatch):
    names = [field.name for field in dataclasses.fields(Limits)]
    for i, name in enumerate(names):
        monkeypatch.setenv(f"PERMAVOID_{name.upper()}", str(100 + i))
    assert dataclasses.astuple(Limits.from_env()) == tuple(range(100, 100 + len(names)))
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for sub, sub_parser in subparsers.choices.items():
        dests = {opt: action.dest for action in sub_parser._actions
                 for opt in action.option_strings}
        assert all(dests.get(f"--{name.replace('_', '-')}") == name for name in names), sub
