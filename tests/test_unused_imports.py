"""No module of the package imports a name it does not use, and no
module defines a private top-level name that no module of the package
reads.

The one exception is a name that the benchmark's tracer rebinds on that
module (`perfbench/tracer.py` `BINDINGS`): such an import is kept so that
the tracer can wrap it, and `tests/test_tracer_bindings.py` checks that it
resolves.  It must sit alone on its own line, marked with `MARKER`; and
conversely a marked import must be unread and bound by the tracer, so a
stale marker fails too.  `__init__.py` is the package's re-export list and
is skipped.  The checks read the source with `ast`, so they need no
linter.

A private name is one with a single leading underscore, other than `_`
itself (which marks an unpacked value as unused).  It is read where a
module loads it, imports it or reads it as an attribute; a private
function, class or assignment target that nothing reads is dead.
"""

import ast
from pathlib import Path

import pytest

from test_tracer_bindings import tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "dichordal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MARKER = "# noqa: F401  -- perfbench's tracer binds this name"


def _imports(tree: ast.AST):
    """(statement, names it binds) for each import statement of `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield node, [a.asname or a.name for a in node.names]


def _read(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement of `source` that no name in it reads."""
    tree = ast.parse(source)
    return {name for _, names in _imports(tree) for name in names} - _read(tree)


def marker_problems(source: str, bound: set[str]) -> list[str]:
    """Where `source` breaks the marker rule, given the names `bound` by the
    tracer: an unread import not alone on a marked line, or a marker on
    anything but a one-line import of one unread name in `bound`."""
    tree = ast.parse(source)
    read = _read(tree)
    lines = source.splitlines()
    marked = {i for i, line in enumerate(lines, start=1) if line.endswith(MARKER)}
    problems = []
    for node, names in _imports(tree):
        alone = len(names) == 1 and node.lineno == node.end_lineno
        if alone and node.lineno in marked:
            marked.discard(node.lineno)
            if names[0] in read or names[0] not in bound:
                problems.append(f"line {node.lineno}: stale marker on {names[0]}")
        elif not alone or set(names) - read:
            problems.extend(
                f"line {node.lineno}: unread {name} not alone on a marked line"
                for name in names
                if name not in read
            )
    problems.extend(f"line {i}: marker off a one-name import" for i in sorted(marked))
    return problems


def test_unused_imports_finds_a_dead_import():
    source = "from typing import Iterator, Optional\nimport os.path\nx: Optional[int] = None\n"
    assert unused_imports(source) == {"Iterator", "os"}


def test_marker_problems_finds_unmarked_shared_and_stale_imports():
    source = (
        "from a import used, traced\n"  # traced is unread but shares a line
        "from b import spare\n"  # unread and unmarked
        f"from c import kept  {MARKER}\n"  # correct
        f"from d import used  {MARKER}\n"  # stale: read below
        f"from e import gone  {MARKER}\n"  # stale: the tracer binds no such name
        f"from f import (one,  {MARKER}\n    two)\n"  # marker on two names
        f"x = used  {MARKER}\n"
    )
    assert marker_problems(source, {"traced", "kept", "used", "one", "two"}) == [
        "line 1: unread traced not alone on a marked line",
        "line 2: unread spare not alone on a marked line",
        "line 4: stale marker on used",
        "line 5: stale marker on gone",
        "line 6: unread one not alone on a marked line",
        "line 6: unread two not alone on a marked line",
        "line 6: marker off a one-name import",
        "line 8: marker off a one-name import",
    ]


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names bound at the top level of `tree`: functions,
    classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and n != "_" and not n.startswith("__")}


def _reads_anywhere(tree: ast.AST) -> set[str]:
    """Names that `tree` loads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def dead_private_names(sources: list[str]) -> set[str]:
    """Private top-level names defined in some of `sources` and read in none."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(_private_definitions, trees))
    return defined - set().union(*map(_reads_anywhere, trees))


def test_dead_private_names_finds_unread_definitions():
    a = (
        "from b import _shared\n"
        "_, _SEEN, _UNSEEN = range(3)\n"
        "_table: dict = {}\n"
        "__all__ = []\n"
        "def _helper(): return _SEEN\n"
        "def _orphan(): return _table\n"
        "class _Kept: pass\n"
        "def public(): return _helper()\n"
    )
    b = "import a\n_shared = 1\n_spare = 2\nclass _Box: pass\nx = a._Kept\n_spare = 3\n"
    assert dead_private_names([a, b]) == {"_UNSEEN", "_orphan", "_spare", "_Box"}


def test_every_private_top_level_name_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_private_names(sources) == set()


def _bound(path: Path) -> set[str]:
    module = f"dichordal.{path.stem}"
    return {attr for mod, attr, _ in tracer.BINDINGS if mod == module}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_bound_by_the_tracer(path):
    assert unused_imports(path.read_text()) <= _bound(path)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_tracer_only_imports_are_marked_alone_and_every_marker_is_live(path):
    assert marker_problems(path.read_text(), _bound(path)) == []
