"""Count the code lines of Python modules.

A line counts when it holds a token other than a comment or a
NL/NEWLINE/INDENT/DEDENT/ENDMARKER token, and it is not part of a module,
class or function docstring.  A token that spans several lines, such as a
multi-line string, holds each line it spans.  Blank lines, comment lines
and docstrings therefore count for nothing, and a call written over five
lines counts five.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a module or a directory, whose *.py files are read (not its
subdirectories); the default is the package, src/dichordal.  Prints one
"count  module" line per module, largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dichordal"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`, by the rule above."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [PACKAGE]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    counts = {f: code_lines(f.read_text()) for f in files}
    for f, count in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{count:6d}  {f.stem}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
