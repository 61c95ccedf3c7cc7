"""List the statements of a package that a pytest run never executes.

No coverage package is needed.  The run goes under `sys.settrace` (and
`threading.settrace`), and only frames whose code lies in the package
are traced line by line.  A statement counts as run when any of its own
lines got a line event; its own lines are its span less the spans of the
statements nested in it.  Docstrings, `def` and `class` statements
(decorators included) and imports are not listed.  Code run in another
process is not followed, so a module's `if __name__ == "__main__":`
body, reached only by running the module as a script, is listed.

Usage: python tools/unexecuted.py [--package DIR] [PYTEST_ARG ...]

DIR is a directory whose *.py files are read (not its subdirectories);
the default is the package, src/dichordal.  The pytest arguments default
to "-q -p no:cacheprovider tests".  Run it from the repository root with
the package importable (PYTHONPATH=src).  After pytest's own output it
prints one "module.py:LINE: source" line per statement that never ran,
in module and line order, then "never ran: COUNT".  The exit code is
pytest's.  The whole test suite takes several times its plain wall time
this way.  Docstring lines are found by `tools/code_lines.py`, imported
from this script's own directory.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections.abc import Callable
from pathlib import Path
from types import CodeType
from typing import Optional, TypeVar

from code_lines import PACKAGE, _docstring_lines

PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]

_UNLISTED = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Import, ast.ImportFrom)

T = TypeVar("T")


def _span(node: ast.stmt) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def statements(source: str) -> list[tuple[int, set[int]]]:
    """Each listed statement of `source` as (first line, own lines), in
    source order."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _UNLISTED) or node.lineno in docstrings:
            continue
        own = _span(node)
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= _span(inner)
        found.append((node.lineno, own))
    return sorted(found, key=lambda item: item[0])


def trace_lines(package: Path, run: Callable[[], T]) -> tuple[T, dict[str, set[int]]]:
    """Call `run()` with line tracing on the code of `package`'s modules;
    return its result and the lines that ran, keyed by resolved file name."""
    root = str(package.resolve()) + os.sep
    ran: dict[str, set[int]] = {}
    tracers: dict[CodeType, Optional[Callable]] = {}

    def local_tracer(lines: set[int]) -> Callable:
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            name = os.path.realpath(code.co_filename)
            inside = name.startswith(root)
            tracers[code] = local_tracer(ran.setdefault(name, set())) if inside else None
        return tracers[code]

    before, before_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return result, ran


def unexecuted(package: Path, ran: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """The (module, first line) of every listed statement of `package`
    that has no line in `ran`."""
    missed = []
    for path in sorted(package.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        missed += [(path, first) for first, own in statements(path.read_text()) if not own & lines]
    return missed


def main(argv: list[str]) -> int:
    package = PACKAGE
    if argv[:1] == ["--package"]:
        package, argv = Path(argv[1]), argv[2:]
    import pytest

    code, ran = trace_lines(package, lambda: pytest.main(argv or PYTEST_ARGS))
    missed = unexecuted(package, ran)
    sources = {}
    for path, line in missed:
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1]
        print(f"{path.name}:{line}: {text.strip()}")
    print(f"never ran: {len(missed)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
