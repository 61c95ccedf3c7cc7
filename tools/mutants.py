"""Run the committed mutants of the package against the test suite.

A mutant replaces one exact piece of text, which must occur exactly once,
in one file of the repository.  For each mutant the repository (without
.git and caches) is copied to a temporary directory, the mutant is
applied there, and the test suite is run in the copy with `-x`.  The
tool prints one line per mutant:

  killed      NAME: the first failing test (or collection error)
  survived    NAME
  equivalent  NAME: why no test can see it (not run)

then "killed K, survived S, equivalent E".  The exit code is 1 when a
mutant survived, else 0.  Each mutant that is run costs up to one full
suite run (a survivor costs exactly one), so the whole list takes about
ten minutes; it is not part of the test suite.

Usage: python tools/mutants.py

It runs every mutant in MUTANTS on this script's repository.  The suite
runs as `python -m pytest -x -q -p no:cacheprovider
--continue-on-collection-errors tests` with PYTHONPATH=src in the copy,
less the one test that checks this list against the tree: in a mutated
copy the mutant's text is gone, so that test would kill every mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIST_CHECK = "tests/test_mutants.py::test_every_committed_mutant_applies_to_the_tree"
PYTEST_ARGS = [
    "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--deselect", LIST_CHECK, "tests",
]
TIMEOUT_S = 1800
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_out", ".bench_build")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    reason: str  # what the mutant breaks, or why it is equivalent
    equivalent: bool = False


VERIFY = "src/dichordal/verify.py"
TABLES = "src/dichordal/tables.py"
CHORDALITY = "src/dichordal/chordality.py"
PATTERNS = "src/dichordal/patterns.py"

MUTANTS = [
    Mutant(
        "nesting-symmetric-always-true", VERIFY,
        "ok = semi == underlying_SD_is_chordal(d)",
        "ok = semi == underlying_SD_is_chordal(d) or ok",
        "the nesting judge's symmetric restriction never fails",
    ),
    Mutant(
        "nesting-without-strict-link", VERIFY,
        "ok = (not strict or semi) and (not semi or chordal)",
        "ok = not semi or chordal",
        "the nesting judge drops strict => semi-strict",
    ),
    Mutant(
        "recognizers-without-knotting-oracle", VERIFY,
        "greedy == subset_oracle == knot_iter == knot_oracle",
        "greedy == subset_oracle == knot_iter",
        "the recognizer judge leaves the knotting oracle out of its equality",
    ),
    Mutant(
        "table-rule-reads-an-arc", TABLES,
        "(out[v] & ~(out[u] & inn[u] | 1 << u))",
        "(out[v] & ~(out[u] | 1 << u))",
        "the semi-strict table asks for the arc u -> w instead of a digon",
    ),
    Mutant(
        "tail-fig1-on-3-subsets", VERIFY,
        "k = min(d.n, 4)",
        "k = min(d.n, 3)",
        "the theorem-5 tail looks fig1 up on 3-subsets only",
    ),
    Mutant(
        "probe-counts-empty-classes", VERIFY,
        "if max(len(old), 1) != max(len(new), 1):",
        "if len(old) != len(new):",
        "the deletion probe counts no class for an arcless vertex",
    ),
    Mutant(
        "probe-split-needs-three", VERIFY,
        "or new_out & old_out) > 1:",
        "or new_out & old_out) > 2:",
        "the deletion probe sees a class split only into three or more",
    ),
    Mutant(
        "verify-ordering-accepts-all", CHORDALITY,
        "        if _witness(*masks, v, alive) is not None:",
        "        if False:",
        "verify_ordering accepts every permutation",
    ),
    Mutant(
        "nine-counterexamples", VERIFY,
        "COUNTEREXAMPLE_RECORD_LIMIT = 10",
        "COUNTEREXAMPLE_RECORD_LIMIT = 9",
        "reports keep nine counterexamples instead of ten",
    ),
    Mutant(
        "tail-smallest-size-only", VERIFY,
        "sizes[i % len(sizes)]",
        "sizes[0]",
        "the theorem-5 tail draws only its smallest size",
    ),
    Mutant(
        "table-scan-counts-blocks", VERIFY,
        "return ((last - first) * block_size(n), filtered, passed, cx)",
        "return (last - first, filtered, passed, cx)",
        "a table scan reports its blocks, not its instances",
    ),
    Mutant(
        "block-rows-one-parent-past", TABLES,
        "np.searchsorted(parents, (first, last))",
        "np.searchsorted(parents, (first, last + 1))",
        "the block source reads one member parent past its range",
    ),
    Mutant(
        "small-order-rows-shifted", TABLES,
        "np.arange(first * size, last * size, dtype=np.int64)",
        "np.arange((first + 1) * size, (last + 1) * size, dtype=np.int64)",
        "below order 4 the block source reads the next block's rows",
    ),
    Mutant(
        "split-range-off-by-one", VERIFY,
        "yield total * s // pieces, total * (s + 1) // pieces",
        "yield total * s // pieces, total * (s + 1) // pieces - 1",
        "each shard range stops one instance short",
    ),
    Mutant(
        "fold-without-record-cap", VERIFY,
        "cx[: COUNTEREXAMPLE_RECORD_LIMIT - len(report.counterexamples)]",
        "cx",
        "_check keeps every part's counterexamples, not the first ten",
    ),
    Mutant(
        "fold-passed-into-filtered", VERIFY,
        "report.filtered += filtered",
        "report.filtered += passed",
        "_check adds each part's passed count into filtered",
    ),
    Mutant(
        "pool-window-grows", VERIFY,
        "window.extend(itertools.islice(futures, 1))",
        "window.extend(itertools.islice(futures, 2))",
        "a pool run submits two parts per result taken, so its futures pile up",
    ),
    Mutant(
        "isomorphism-template-from-d2", PATTERNS,
        "zip(pair_slots(d1.n), d1.codes)",
        "zip(pair_slots(d1.n), d2.codes)",
        "are_isomorphic embeds d2 into itself whenever the degrees agree",
    ),
    Mutant(
        "isomorphism-by-degrees-alone", PATTERNS,
        "return _embed(_Masks(d2), ",
        "return True or _embed(_Masks(d2), ",
        "are_isomorphic answers from the sorted degree triples, with no search",
    ),
    Mutant(
        "isomorphism-without-degree-restriction", PATTERNS,
        "restrict = {v: hosts[deg] for v, deg in enumerate(deg1)}",
        "restrict = {}",
        "an embedding between digraphs of one order is a bijection that keeps every"
        " pair's kind, so it keeps each vertex's degrees: the restriction only drops"
        " hosts that no embedding uses",
        equivalent=True,
    ),
    Mutant(
        "isomorphism-forward-arcs-either-way", PATTERNS,
        "if len(kinds) == 1}",
        "if len(kinds) < 3}",
        "the forward arcs (lower label to higher) that a degree-keeping bijection"
        " reversed would keep every in- and out-degree, so they would hold a"
        " directed cycle, and forward arcs hold none",
        equivalent=True,
    ),
    Mutant(
        "greedy-rescans-from-vertex-0", CHORDALITY,
        "cand = alive & ~stuck",
        "cand = alive",
        "a stuck vertex stays not di-simplicial until a neighbour is deleted,"
        " so rescanning it only repeats a failing test: same order, same verdict",
        equivalent=True,
    ),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's text in its file under `root`; the text must
    occur exactly once."""
    path = root / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: expected the text once in {mutant.path}, found {found}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "no failing test named; see the pytest output"


def run(root: Path, mutant: Mutant, pytest_args: list[str]) -> tuple[str, str]:
    """(outcome, detail) of one mutant: ("equivalent", reason),
    ("killed", first failing test) or ("survived", "")."""
    if mutant.equivalent:
        return "equivalent", mutant.reason
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=_IGNORED)
        apply(copy, mutant)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *pytest_args],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", f"the suite ran past {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", ""
    return "killed", _first_failure(proc.stdout)


def report(root: Path, mutants: list[Mutant], pytest_args: list[str]) -> list[str]:
    """The tool's output lines for `mutants`, printed as each one finishes."""
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    lines = []
    for mutant in mutants:
        outcome, detail = run(root, mutant, pytest_args)
        counts[outcome] += 1
        lines.append(f"{outcome:<11} {mutant.name}" + (f": {detail}" if detail else ""))
        print(lines[-1], flush=True)
    lines.append(", ".join(f"{outcome} {count}" for outcome, count in counts.items()))
    print(lines[-1])
    return lines


def main() -> int:
    return int(any(line.startswith("survived ") for line in report(ROOT, MUTANTS, PYTEST_ARGS)))


if __name__ == "__main__":
    sys.exit(main())
