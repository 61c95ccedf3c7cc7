"""The CLI's exit-code contract, resource bounds on `verify`, and the
vertex-count bound on parsed files."""

import inspect
import io
import os

import pytest

from dichordal import verify
from dichordal.cli import CHECKS, build_parser, main
from dichordal.digraph import MAX_VERTICES, parse_labeled


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


def test_parse_rejects_oversized_vertex_count(capsys, monkeypatch):
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_labeled("100000 0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("100000 0\n"))
    assert main(["recognize", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: vertex count 100000 exceeds the limit of {MAX_VERTICES}")
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_labeled(f"{MAX_VERTICES + 1} 0\n")
    assert parse_labeled("500 0\n")[0].n == 500


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "recognizers", "--n", "5", "--samples", "-5"],
        ["--check", "theorem5", "--n", "3", "--n-random", "5", "--samples", "-7"],
        ["--check", "knotting-deletion", "--samples", "-3"],
        ["--check", "recognizers", "--n", "3", "--samples", "-4"],
    ],
)
def test_verify_rejects_negative_samples(capsys, argv):
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: sample count must be non-negative")


def test_verify_keeps_an_explicit_zero_sample_count(capsys):
    code = main(["verify", "--check", "knotting-deletion", "--n", "3", "--samples", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "samples=0" in out.splitlines()[1]
    assert "instances: total=0 " in out
