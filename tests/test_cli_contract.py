"""The CLI's exit-code contract and resource bounds on `verify`."""

import inspect
import os

import pytest

from dichordal import verify
from dichordal.cli import CHECKS, build_parser, main


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("table corrupted")

    monkeypatch.setitem(CHECKS, "theorem4", broken)
    code = main(["verify", "--check", "theorem4", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("internal error: RuntimeError: table corrupted")
    assert "Traceback" in err


@pytest.mark.parametrize("flag", ["--workers", "--shards"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_nonpositive_parallelism(capsys, flag, value):
    code = main(["verify", "--check", "theorem4", "--n", "3", flag, value])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_pool_size_clamps_without_starting_processes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify._pool_size(1000, 8) == 4
    assert verify._pool_size(1000, 3) == 3
    assert verify._pool_size(2, 8) == 2
    assert verify._pool_size(1, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._pool_size(16, 8) == 1
    with pytest.raises(ValueError):
        verify._pool_size(0, 8)


def test_n_random_default_matches_check_theorem5():
    args = build_parser().parse_args(["verify", "--check", "theorem5"])
    default = inspect.signature(verify.check_theorem5).parameters["n_random"].default
    assert args.n_random == default == 8
