"""No module of the package imports a name it does not use.

The one exception is a name that the benchmark's tracer rebinds on that
module (`perfbench/tracer.py` `BINDINGS`): such an import is kept so that
the tracer can wrap it, and `tests/test_tracer_bindings.py` checks that it
resolves.  `__init__.py` is the package's re-export list and is skipped.
The check reads the source with `ast`, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

from test_tracer_bindings import tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "dichordal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement of `source` that no name in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_imports_finds_a_dead_import():
    source = "from typing import Iterator, Optional\nimport os.path\nx: Optional[int] = None\n"
    assert unused_imports(source) == {"Iterator", "os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_bound_by_the_tracer(path):
    module = f"dichordal.{path.stem}"
    bound = {attr for mod, attr, _ in tracer.BINDINGS if mod == module}
    assert unused_imports(path.read_text()) <= bound
