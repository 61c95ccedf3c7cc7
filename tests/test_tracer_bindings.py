"""Every name the benchmark's tracer wraps must exist in the package.

`perfbench/tracer.py` rebinds entry points on the modules that call them,
including imports a module does not otherwise use (such as
`dichordal.verify.find_any_fig1`).  Removing one of those names breaks
`perfbench/run.py --trace 1`, so each binding is resolved here.  The
tracer is only loaded, never installed.

A binding can also resolve and still time nothing, when the code stops
calling through it.  The `query` workload's spans on the knotting graph,
the parser and the stalled-subdigraph printout are therefore wrapped the
way the tracer wraps them, and `cli.main` must call each once per use;
the printout is built once per distinct stalled set of a command.  `knot`
writes its text from the class table (`knotting._class_table`), which no
span wraps, and builds no knotting graph, so the `knotting_graph` span
reads 0 there.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, attr, span", tracer.BINDINGS)
def test_binding_resolves(module, attr, span):
    assert callable(getattr(import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, span", tracer.METHODS)
def test_method_binding_resolves(module, cls, attr, span):
    assert callable(getattr(import_module(module), cls).__dict__[attr])


# -- the `query` spans stay live -------------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

QUERY_SPANS = (
    ("dichordal.knotting", "knotting_graph"),
    ("dichordal.cli", "parse_labeled"),
    ("dichordal.cli", "induced"),
    ("dichordal.cli", "serialize"),
)


@pytest.fixture
def query_calls(monkeypatch):
    """Wrap the bindings that the `query` workload's spans time, as the
    tracer does, and count the calls that go through each."""
    calls = dict.fromkeys((attr for _, attr in QUERY_SPANS), 0)
    for module, attr in QUERY_SPANS:
        fn = getattr(import_module(module), attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(import_module(module), attr, counted)
    return calls


def test_knot_reaches_the_graph_and_the_parser_once(query_calls, capsys, monkeypatch):
    from dichordal import knotting
    from dichordal.cli import main

    tables = []
    table = knotting._class_table
    monkeypatch.setattr(knotting, "_class_table", lambda d: tables.append(d) or table(d))
    assert main(["knot", str(DATA / "example1.dg")]) == 0
    assert "classes" in capsys.readouterr().out
    assert len(tables) == 1
    assert query_calls == {"knotting_graph": 0, "parse_labeled": 1, "induced": 0, "serialize": 0}


def test_each_distinct_stalled_set_prints_one_induced_copy(query_calls, capsys):
    from dichordal.cli import main

    # example1: chordal YES, semi-strict and strict NO, both stalled on all four vertices
    assert main(["recognize", "--variant", "all", str(DATA / "example1.dg")]) == 1
    out = capsys.readouterr().out
    assert out.count(": NO\n") == 2 and out.count(": YES\n") == 1
    assert query_calls == {"knotting_graph": 0, "parse_labeled": 1, "induced": 1, "serialize": 1}


def test_variants_stalled_on_different_sets_print_two_copies(query_calls, capsys, tmp_path):
    from dichordal import build, serialize
    from dichordal.cli import main

    # chordal and semi-strict stall on {1, 2, 3}, strict on all four vertices
    path = tmp_path / "two_sets.dg"
    path.write_text(serialize(build(4, [(0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])))
    assert main(["recognize", "--variant", "all", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count(": NO\n") == 3
    assert out.count("stalled subdigraph on {1, 2, 3}:") == 2
    assert out.count("stalled subdigraph on {0, 1, 2, 3}:") == 1
    assert query_calls == {"knotting_graph": 0, "parse_labeled": 1, "induced": 2, "serialize": 2}
