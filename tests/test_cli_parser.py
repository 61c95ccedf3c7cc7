"""`cli.main` builds only the subparser of the command it runs.

Every argv must print and exit exactly as it does through the full parser,
which `reference_parser` keeps as it was before the parser became a table
of commands: help at both levels, a missing or unknown command, a leading
"--", leftover arguments and every command's own errors.
"""

import argparse
import io

import pytest

from dichordal import cli

TEXT = "4 5\n0 1\n1 2\n2 0\n2 3\n3 2\n# 0 a\n"  # the dicycle a->1->2->a and the digon 2-3


def reference_parser(command=None) -> argparse.ArgumentParser:
    """The full parser, built as `build_parser` built it before the command
    table; `command` is ignored."""
    parser = argparse.ArgumentParser(
        prog="dichordal",
        description="Chordality variants of digraphs: recognition, knotting "
        "graphs, forbidden patterns, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="digraph file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("recognize", help="test a digraph for (variant-)chordality")
    add_input(p)
    p.add_argument(
        "--variant",
        choices=[*cli._VARIANTS, "all"],
        default="semi-strict",
    )
    p.set_defaults(func=cli.cmd_recognize)

    p = sub.add_parser("order", help="print a perfect elimination ordering")
    add_input(p)
    p.add_argument("--variant", choices=list(cli._VARIANTS), default="semi-strict")
    p.set_defaults(func=cli.cmd_order)

    p = sub.add_parser("knot", help="print the knotting graph")
    add_input(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=cli.cmd_knot)

    p = sub.add_parser("classify", help="report digraph class memberships")
    add_input(p)
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("forbidden", help="search for forbidden induced patterns")
    add_input(p)
    p.set_defaults(func=cli.cmd_forbidden)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("--check", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--n-random", type=int, default=8, help="theorem5 random size cap")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include wall time in output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("gen", help="generate a class instance")
    p.add_argument("--class", dest="klass", required=True,
                   choices=["wqt", "locally-semicomplete", "random"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=2, help="wqt recursion depth")
    p.add_argument("--width", type=int, default=3, help="wqt base-digraph size cap")
    p.add_argument("--weights", default="1,1,1,1",
                   help="random pair-kind weights: none,forward,backward,digon")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cli.cmd_gen)

    p = sub.add_parser("enumerate", help="stream all digraphs of a given order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=5)
    p.add_argument("--filter", choices=list(cli._FILTERS))
    p.set_defaults(func=cli.cmd_enumerate)

    return parser


COMMANDS = ["recognize", "order", "knot", "classify", "forbidden", "verify", "gen", "enumerate"]
F = "<file>"  # replaced by the small digraph file's path

# valid calls of every command, on the small file and on stdin
VALID = [
    ["recognize", F],
    ["recognize", "-", "--json", "--variant", "all"],
    ["recognize", F, "--var", "all"],
    ["recognize", F, "--variant=chordal"],
    ["order", F],
    ["order", "-", "--json", "--var", "strict"],
    ["knot", F],
    ["knot", "-", "--json"],
    ["knot", F, "--dot"],
    ["knot", F, "--js"],
    ["classify", F],
    ["classify", "-", "--json"],
    ["forbidden", F],
    ["forbidden", "-", "--json"],
    ["verify", "--check", "theorem4", "--n", "2"],
    ["verify", "--check", "nesting", "--n", "2", "--json"],
    ["gen", "--class", "random", "--n", "5", "--seed", "3"],
    ["gen", "--class", "wqt", "--dot"],
    ["enumerate", "--n", "2"],
    ["enumerate", "--n", "2", "--filter", "wqt"],
]

# help, and every kind of usage, input or check error
CORPUS = VALID + [
    ["verify", "--check", "bogus"],
    ["recognize", "/nonexistent/file.dg"],
    [],
    ["-h"],
    ["--help"],
    *[[command, "--help"] for command in COMMANDS],
    ["knot", "-h", F],
    ["-h", "knot"],
    ["bogus"],
    ["bogus", F],
    ["Knot", F],
    ["--"],
    ["--", "knot", F],
    ["knot", "--", F],
    ["--json", "knot", F],
    ["knot"],
    ["knot", F, "--bogus"],
    ["knot", F, "--bogus", "extra"],
    ["knot", F, "extra"],
    ["classify", F, "--variant", "all"],
    ["recognize", F, "--variant", "bogus"],
    ["recognize", F, "--variant"],
    ["gen", "--class", "bogus"],
    ["enumerate", "--n", "2", "--filter", "bogus"],
    ["enumerate", "--n", "two"],
    ["verify"],
    ["gen"],
    ["enumerate"],
]

# the argvs that leave arguments over: the one parse of their command's
# parser must report them as the full parser did
LEFTOVERS = [
    ["knot", F, "--bogus"],
    ["knot", F, "--bogus", "extra"],
    ["knot", F, "extra"],
    ["classify", F, "--variant", "all"],
    ["knot", "--", F, "extra"],
]


def _argv(argv, path):
    return [str(path) if a == F else a for a in argv]


def _run(capsys, monkeypatch, main, argv):
    """(exit code, stdout, stderr) of main(argv), with the small digraph on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(TEXT))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def small(tmp_path):
    path = tmp_path / "small.dg"
    path.write_text(TEXT)
    return path


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(a) or "(none)" for a in CORPUS])
def test_main_prints_and_exits_as_through_the_full_parser(capsys, monkeypatch, small, argv):
    argv = _argv(argv, small)
    got = _run(capsys, monkeypatch, cli.main, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", reference_parser)
        want = _run(capsys, monkeypatch, cli.main, argv)
    assert got == want


@pytest.mark.parametrize("argv", VALID, ids=[" ".join(a) for a in VALID])
def test_valid_calls_run_their_command(capsys, monkeypatch, small, argv):
    code, out, err = _run(capsys, monkeypatch, cli.main, _argv(argv, small))
    assert code in (0, 1) and out and not err


@pytest.mark.parametrize("argv", LEFTOVERS, ids=[" ".join(a) for a in LEFTOVERS])
def test_leftover_arguments_are_argparse_errors_under_every_command(
    capsys, monkeypatch, small, argv
):
    argv = _argv(argv, small)
    want = _run(capsys, monkeypatch, lambda a: reference_parser().parse_args(a), argv)
    assert want[0] == 2 and "error: unrecognized arguments: " in want[2]
    assert "{recognize,order,knot,classify,forbidden,verify,gen,enumerate}" in want[2]
    assert _run(capsys, monkeypatch, cli.main, argv) == want


def test_build_parser_without_a_command_is_the_full_parser():
    parser = cli.build_parser()
    assert parser.format_help() == reference_parser().format_help()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    ref = next(
        a for a in reference_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(sub.choices) == COMMANDS
    for name in COMMANDS:
        assert sub.choices[name].format_help() == ref.choices[name].format_help()
        assert sub.choices[name]._defaults == ref.choices[name]._defaults


@pytest.fixture
def built(monkeypatch):
    """The name of every subparser built, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


def test_a_command_builds_only_its_own_subparser(capsys, small, built):
    assert cli.main(["knot", str(small)]) == 0
    assert built == ["knot"]
    for command in COMMANDS:
        built.clear()
        cli.build_parser(command)
        assert built == [command]


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=["none", "--help", "bogus"])
def test_no_known_command_builds_every_subparser(capsys, built, argv):
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert built == COMMANDS


def test_every_call_builds_its_own_parser(capsys, small, built):
    assert cli.main(["knot", str(small)]) == 0
    assert cli.main(["knot", str(small)]) == 0
    assert built == ["knot", "knot"]


@pytest.mark.parametrize("argv", LEFTOVERS, ids=[" ".join(a) for a in LEFTOVERS])
def test_leftover_arguments_build_only_their_command(capsys, small, built, argv):
    with pytest.raises(SystemExit):
        cli.main(_argv(argv, small))
    assert built == [argv[0]]


def test_an_unknown_check_is_a_usage_error(capsys, monkeypatch):
    assert _run(capsys, monkeypatch, cli.main, ["verify", "--check", "bogus"]) == (
        2,
        "",
        "error: unknown check 'bogus'; choose from "
        "knotting-deletion, nesting, recognizers, theorem4, theorem5\n",
    )
