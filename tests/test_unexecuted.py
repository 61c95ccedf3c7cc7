"""`tools/unexecuted.py`, the statement tracer behind the never-run
statements that ROADMAP.md records, on a fixture module whose never-run
statements are marked by hand."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "unexecuted.py"
sys.path.insert(0, str(TOOLS))

import unexecuted  # noqa: E402

# the calls below never reach the lines marked "# never runs"; docstrings,
# the import and the def and class lines are not listed at all
FIXTURE = '''"""Module docstring."""

import os

LIMIT = 3


def used(x):
    """Function docstring."""
    if x > LIMIT:
        return "big"
    else:
        return "small"  # never runs


def sometimes(flag):
    try:
        value = int(flag)
    except ValueError:
        value = 0  # never runs
    total = (
        value
        + 1
    )
    return total


def never():
    return os.sep  # never runs


class Box:
    """Class docstring."""

    size = 2

    @staticmethod
    def unused():
        return Box.size  # never runs


if __name__ == "__main__":
    print(used(10))  # never runs
'''

CALLS = '''from fixpkg import mod


def test_calls():
    assert mod.used(10) == "big"
    assert mod.sometimes("4") == 5
'''

NEVER = [i for i, line in enumerate(FIXTURE.splitlines(), start=1) if line.endswith("# never runs")]


def _fixture_package(tmp_path):
    package = tmp_path / "fixpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    return package


def test_tracer_lists_exactly_the_marked_statements(tmp_path):
    package = _fixture_package(tmp_path)

    def run():
        spec = importlib.util.spec_from_file_location("fixpkg_mod", package / "mod.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.used(10), mod.sometimes("4")

    result, ran = unexecuted.trace_lines(package, run)
    assert result == ("big", 5)
    assert unexecuted.unexecuted(package, ran) == [(package / "mod.py", line) for line in NEVER]


def test_statements_skip_docstrings_defs_classes_and_imports():
    listed = [first for first, _ in unexecuted.statements(FIXTURE)]
    lines = FIXTURE.splitlines()
    assert not [first for first in listed if lines[first - 1].lstrip().startswith(
        ('"""', "def ", "class ", "import ", "@")
    )]
    # the try statement owns its try and except lines, not its bodies
    (own,) = [own for first, own in unexecuted.statements(FIXTURE) if lines[first - 1] == "    try:"]
    assert [lines[i - 1].strip() for i in sorted(own)] == ["try:", "except ValueError:"]


def test_tool_reports_after_a_pytest_run(tmp_path):
    package = _fixture_package(tmp_path)
    (tmp_path / "test_calls.py").write_text(CALLS)
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--package", str(package),
         "-q", "-p", "no:cacheprovider", str(tmp_path / "test_calls.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = FIXTURE.splitlines()
    report = [f"mod.py:{line}: {lines[line - 1].strip()}" for line in NEVER]
    report.append(f"never ran: {len(NEVER)}")
    assert proc.stdout.splitlines()[-len(report):] == report
    assert "1 passed" in proc.stdout
