"""`tools/mutants.py`, the mutation runner, on a fixture repository whose
mutants are killed, survive or are marked equivalent by hand, and the
committed mutant list against the tree."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402
from mutants import Mutant  # noqa: E402

MODULE = '''def double(x):
    return 2 * x


def clamp(x):
    return max(x, 0)
'''

TESTS = '''from fixpkg.mod import double


def test_double():
    assert double(3) == 6


def test_double_negative():
    assert double(-1) == -2
'''

FIXTURE_MUTANTS = [
    Mutant("triple", "src/fixpkg/mod.py", "2 * x", "3 * x", "double triples"),
    Mutant("clamp-at-one", "src/fixpkg/mod.py", "max(x, 0)", "max(x, 1)", "no test calls clamp"),
    Mutant("commuted", "src/fixpkg/mod.py", "2 * x", "x * 2", "the product commutes", True),
]


def _fixture_repo(tmp_path):
    root = tmp_path / "repo"
    (root / "src" / "fixpkg").mkdir(parents=True)
    (root / "src" / "fixpkg" / "__init__.py").write_text("")
    (root / "src" / "fixpkg" / "mod.py").write_text(MODULE)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(TESTS)
    return root


def test_runner_reports_each_outcome(tmp_path, capsys):
    root = _fixture_repo(tmp_path)
    lines = mutants.report(root, FIXTURE_MUTANTS, ["-x", "-q", "-p", "no:cacheprovider", "tests"])
    assert lines == [
        "killed      triple: tests/test_mod.py::test_double",
        "survived    clamp-at-one",
        "equivalent  commuted: the product commutes",
        "killed 1, survived 1, equivalent 1",
    ]
    assert capsys.readouterr().out.splitlines() == lines
    assert (root / "src" / "fixpkg" / "mod.py").read_text() == MODULE  # only copies are mutated


def test_a_mutant_must_name_its_text_exactly_once(tmp_path):
    root = _fixture_repo(tmp_path)
    with pytest.raises(ValueError, match="found 0"):
        mutants.apply(root, Mutant("absent", "src/fixpkg/mod.py", "4 * x", "5 * x", "absent"))
    with pytest.raises(ValueError, match="found 2"):
        mutants.apply(root, Mutant("twice", "src/fixpkg/mod.py", "return", "yield", "twice"))


def test_every_committed_mutant_applies_to_the_tree():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.reason
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
