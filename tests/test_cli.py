import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from dichordal import chordality, cli
from dichordal.chordality import Variant
from dichordal.classes import (
    _FLAG_CHECKS,
    classify,
    is_extended_semicomplete,
    is_locally_semicomplete,
    is_oriented,
    is_quasi_transitive,
    is_semicomplete,
    is_symmetric,
    is_transitive_oriented,
    is_weakly_quasi_transitive,
)
from dichordal.cli import build_parser, main
from dichordal.digraph import enumerate_digraphs, parse, serialize

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
EX1 = str(DATA / "example1.dg")
EX2 = str(DATA / "example2.dg")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_recognize_example1_negative(capsys):
    code, out, _ = run(capsys, "recognize", EX1, "--variant", "semi-strict")
    assert code == 1
    assert "semi-strict: NO" in out
    assert "witness" in out and "stalled" in out


def test_recognize_example2_positive(capsys):
    code, out, _ = run(capsys, "recognize", EX2)
    assert code == 0
    assert "semi-strict: YES" in out
    assert "ordering: a b d c e" in out


def test_recognize_all_variants(capsys):
    # example1 is chordal in the plain sense but not semi-strict or strict
    code, out, _ = run(capsys, "recognize", EX1, "--variant", "all")
    assert code == 1
    assert "chordal: YES" in out
    assert "semi-strict: NO" in out
    assert "strict: NO" in out


def test_recognize_runs_the_greedy_loop_once_per_variant(capsys, monkeypatch):
    # one run gives the ordering on YES and the stalled set on NO; every
    # binding of the loop is counted, wherever the CLI reaches it from
    greedy = chordality._greedy
    runs = []

    def counting(*masks):
        runs.append(len(masks[0]))
        return greedy(*masks)

    monkeypatch.setattr(chordality, "_greedy", counting)
    monkeypatch.setattr(cli, "_greedy", counting, raising=False)
    code, out, _ = run(capsys, "recognize", EX1, "--variant", "all")
    assert code == 1
    verdicts = [line for line in out.splitlines() if line.endswith((": YES", ": NO"))]
    assert verdicts == ["chordal: YES", "semi-strict: NO", "strict: NO"]
    assert runs == [4, 4, 4]


def test_recognize_empty_digraph(capsys, tmp_path):
    f = tmp_path / "empty.dg"
    f.write_text("0 0\n")
    code, out, _ = run(capsys, "recognize", str(f))
    assert code == 0 and "YES" in out


def test_recognize_json(capsys):
    code, out, _ = run(capsys, "recognize", EX1, "--json")
    payload = json.loads(out)
    assert payload["chordal"] is False
    assert len(payload["witness"]) == 3


def test_order_subcommand(capsys):
    code, out, _ = run(capsys, "order", EX2)
    assert code == 0 and out.strip() == "a b d c e"
    code, out, _ = run(capsys, "order", EX1)
    assert code == 1 and out.strip() == "NONE"


def test_order_json(capsys):
    code, out, _ = run(capsys, "order", EX2, "--json")
    want = chordality.elimination_ordering(parse(Path(EX2).read_text()), Variant.SEMI_STRICT)
    assert (code, out) == (0, "[0, 1, 3, 2, 4]\n")  # "a b d c e" by vertex number
    assert json.loads(out) == list(want.order)
    code, out, _ = run(capsys, "order", EX1, "--json")
    assert (code, out) == (1, "null\n")


def test_knot_example1(capsys):
    code, out, _ = run(capsys, "knot", EX1)
    assert code == 0
    assert "7 classes, 6 edges" in out
    assert "d^1 = {c->d, d->a, d->b}" in out


def test_knot_example2_counts(capsys):
    code, out, _ = run(capsys, "knot", EX2)
    assert "11 classes, 10 edges" in out


def test_knot_single_arc(capsys, tmp_path):
    f = tmp_path / "arc.dg"
    f.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, "knot", str(f))
    assert "2 classes, 1 edges" in out


def test_knot_dot(capsys):
    code, out, _ = run(capsys, "knot", EX1, "--dot")
    assert out.startswith("graph K {") and "cluster_0" in out


def test_classify_cycle(capsys, tmp_path):
    f = tmp_path / "c3.dg"
    f.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "classify", str(f))
    assert "semicomplete: yes" in out
    assert "weakly-quasi-transitive: yes" in out
    assert "oriented: yes" in out


@pytest.mark.parametrize("path", [EX1, EX2, "c3"])
def test_classify_json(capsys, tmp_path, path):
    if path == "c3":
        path = tmp_path / "c3.dg"
        path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "classify", str(path), "--json")
    report = classify(parse(Path(path).read_text()))
    payload = json.loads(out)
    assert code == 0 and out.count("\n") == 1
    assert list(payload["flags"]) == list(_FLAG_CHECKS)  # catalogue order
    assert payload["flags"] == report.flags
    assert list(payload["witnesses"]) == list(report.witnesses)
    assert payload["witnesses"] == {k: list(v) for k, v in report.witnesses.items()}
    assert all(isinstance(w, list) for w in payload["witnesses"].values())
    assert set(payload["witnesses"]) == {k for k, ok in report.flags.items() if not ok}


def test_classify_example1_witness(capsys):
    code, out, _ = run(capsys, "classify", EX1)
    assert "weakly-quasi-transitive: no   (violated by a, b, c)" in out


def test_forbidden_cycle(capsys, tmp_path):
    f = tmp_path / "c3.dg"
    f.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "forbidden", str(f))
    assert code == 1
    assert out.startswith("fig1d:")


def test_forbidden_example2_none(capsys):
    code, out, _ = run(capsys, "forbidden", EX2)
    assert code == 0 and out.strip() == "none"


def test_forbidden_lollipop(capsys, tmp_path):
    from dichordal.digraph import serialize
    from dichordal.patterns import expand_template, lollipop_template

    host = expand_template(lollipop_template(3))[0]
    f = tmp_path / "lol.dg"
    f.write_text(serialize(host))
    code, out, _ = run(capsys, "forbidden", str(f))
    assert code == 1 and "lollipop3:" in out


def test_forbidden_jsonl(capsys, tmp_path):
    f = tmp_path / "c3.dg"
    f.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "forbidden", str(f), "--json")
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["name"] == "fig1d"


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--check", "theorem4", "--n", "4")
    assert code == 0
    assert "failures=0" in out and "status: PASS" in out


@pytest.mark.parametrize("check", ["theorem4", "nesting"])
def test_verify_timing_adds_only_the_wall_time_line(capsys, check):
    code, plain, _ = run(capsys, "verify", "--check", check, "--n", "3")
    timed_code, timed, _ = run(capsys, "verify", "--check", check, "--n", "3", "--timing")
    assert code == timed_code == 0
    lines = timed.splitlines(keepends=True)
    assert re.fullmatch(r"wall_time: \d+\.\d{3}s\n", lines[-2])
    assert lines[-1] == "status: PASS\n"
    del lines[-2]
    assert "".join(lines) == plain


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "nonsense")
    assert code == 2 and "unknown check" in err


def test_verify_json_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--check", "nesting", "--n", "3", "--json")
    code, out2, _ = run(capsys, "verify", "--check", "nesting", "--n", "3", "--json")
    assert out1 == out2
    assert json.loads(out1)["status"] == "PASS"


def test_gen_wqt(capsys):
    from dichordal.classes import is_weakly_quasi_transitive
    from dichordal.digraph import parse

    code, out, _ = run(capsys, "gen", "--class", "wqt", "--seed", "7")
    assert code == 0
    assert is_weakly_quasi_transitive(parse(out))
    code, out2, _ = run(capsys, "gen", "--class", "wqt", "--seed", "7")
    assert out == out2


def test_gen_lsc(capsys):
    from dichordal.classes import is_locally_semicomplete
    from dichordal.digraph import parse

    code, out, _ = run(capsys, "gen", "--class", "locally-semicomplete", "--n", "6", "--seed", "3")
    assert is_locally_semicomplete(parse(out))


def test_enumerate_n2(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 4


def test_enumerate_filtered(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--filter", "semicomplete")
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 27  # 3 kinds per pair, 3 pairs


# every --filter choice, in parser order (`--help` and the invalid-choice error print it)
FILTER_PREDICATES = {
    "semicomplete": is_semicomplete,
    "locally-semicomplete": is_locally_semicomplete,
    "wqt": is_weakly_quasi_transitive,
    "quasi-transitive": is_quasi_transitive,
    "extended-semicomplete": is_extended_semicomplete,
    "symmetric": is_symmetric,
    "oriented": is_oriented,
    "transitive-oriented": is_transitive_oriented,
}


def test_enumerate_every_filter_keeps_what_its_predicate_accepts(capsys):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    enumerate_parser = subparsers.choices["enumerate"]
    choices = next(a for a in enumerate_parser._actions if a.dest == "filter").choices
    assert tuple(choices) == tuple(FILTER_PREDICATES)
    for choice, pred in FILTER_PREDICATES.items():
        for k in range(4):
            code, out, err = run(capsys, "enumerate", "--n", str(k), "--filter", choice)
            kept = [serialize(d) for d in enumerate_digraphs(k) if pred(d)]
            assert (code, err) == (0, "")
            assert out == "\n".join(kept), (choice, k)


# sha256 of `dichordal enumerate --n 3 [--filter wqt]` stdout, captured from the
# code that decoded `itertools.product` code tuples
ENUMERATE_DIGESTS = {
    (): "f8f45de217d1142cb42097bc841d8110ce27f98f189a652738a8602bf7252cdb",
    ("--filter", "wqt"): "90fd78f72e8b0ba135b98401218141c8744364b743875920f45a7ac7cb2865ee",
}


@pytest.mark.parametrize("extra", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(capsys, extra):
    code, out, err = run(capsys, "enumerate", "--n", "3", *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[extra]


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "6")
    assert code == 2 and "cap" in err


def test_parse_error_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.dg"
    f.write_text("bogus\n")
    code, _, err = run(capsys, "recognize", str(f))
    assert code == 2 and "error:" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "recognize", "/nonexistent/file.dg")
    assert code == 2


def test_dot_labels_escape_quotes_and_backslashes(capsys, tmp_path):
    import re

    from dichordal.digraph import parse_labeled, to_dot

    f = tmp_path / "names.dg"
    f.write_text('2 1\n0 1\n# 0 a"b\n# 1 c\\\n')
    code, out, _ = run(capsys, "knot", str(f), "--dot")
    assert code == 0
    assert '    label="a\\"b";' in out
    assert '    c0_1 [label="a\\"b^1"];' in out
    assert '    label="c\\\\";' in out
    assert '    c1_1 [label="c\\\\^1"];' in out
    d, names = parse_labeled(f.read_text())
    dot = to_dot(d, names)
    assert '  0 [label="a\\"b"];' in dot and '  1 [label="c\\\\"];' in dot
    # every quoted string closes where it should: a label is one DOT string
    string = r'"(?:[^"\\]|\\.)*"'
    for text in (out, dot):
        for line in text.splitlines():
            if "label=" in line:
                assert re.fullmatch(rf'\s*(\w+ \[)?label={string}(\];|;)', line), line
