"""`tools/code_lines.py`, the code-line counter behind the code sizes
that ROADMAP.md records, on a fixture whose count is known by hand."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# nine code lines: the import, the def, the four lines of the call that
# hold a token, the class line and the two lines of the assigned string
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def join(x):
    """Function docstring."""
    return os.path.join(
        x,

        "y",  # a comment inside the call
    )


class Holder:
    """Class docstring."""

    text = """not a docstring:
    an assigned string over two lines"""
'''


def test_counter_counts_the_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(path)], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "     9  fixture\n     9  total\n"
