"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py      # from the repository root

For each workload, at the tiny scale of `workloads.py`:
  1. an unperturbed pass has no failed operation;
  2. the gate fails the pass when one golden output is perturbed;
  3. the gate fails the pass when an invariant is perturbed (batch
     workloads: an exact count; query: the exit-code contract and the
     golden-free certificate checks);
  4. a traced pass: the aggregated self times of all spans sum to the
     traced wall time, and uninstalling restores every wrapped binding.
Exits 1 if any of these does not hold.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import shutil
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(name: str, golden: dict, workdir: Path) -> wl.Workload:
    work = wl.Workload(name, SEED, "tiny", golden, workdir)
    work.make_inputs()
    return work


def check_batch(name: str, golden: dict, workdir: Path) -> None:
    work = tiny(name, golden, workdir)
    res = work.run_pass(0)
    expect(res.failed == 0 and res.ops > 0, f"{name}: clean pass, {res.ops} instances")

    label = work.calls[-1].label
    bad = copy.deepcopy(golden)
    bad["reports"][label]["passed"] += 1
    work.golden = bad
    res = work.run_pass(1)
    expect(res.failed > 0, f"{name}: perturbed golden report {label} fails {res.failed}")
    work.golden = golden

    desc, labels, attr, want = work.invariants[0]
    work.invariants = [(desc, labels, attr, want + 1)] + work.invariants[1:]
    res = work.run_pass(2)
    expect(res.failed == res.ops > 0, f"{name}: perturbed invariant '{desc}' fails the pass")


def check_query(golden: dict, workdir: Path) -> None:
    work = tiny("query", golden, workdir)
    res = work.run_pass(0)
    extra, notes = work.independent_failures()
    expect(res.failed == 0 and extra == 0 and res.ops > 0,
           f"query: clean pass, {res.ops} commands {notes}")

    input_id, cmd = work.round[0]
    bad = copy.deepcopy(golden)
    digest, rc = bad["commands"][input_id][cmd]
    bad["commands"][input_id][cmd] = ["0" * len(digest), rc]
    work.golden = bad
    res = work.run_pass(1)
    expect(res.failed == 1, f"query: perturbed golden digest of {input_id} {cmd} fails 1")
    work.golden = golden

    out = work.first_outputs[(input_id, cmd)]
    for rc, error in ((2, ""), (None, "RuntimeError()")):
        broken = wl.CommandResult(rc, out.stdout, out.start, out.end, error)
        expect(bool(wl.gate_command(golden, input_id, cmd, broken)),
               f"query: exit code {rc} / exception is a failure")

    # certificate checks: a YES ordering with its first two vertices swapped
    # (the path's second vertex is interior, so not di-simplicial), and a
    # wrong knotting edge count
    d = wl.make_digraph("dp-20")
    rec = work.first_outputs[("dp-20", "recognize")]
    lines = rec.stdout.splitlines()
    order = lines[1].split()[1:]
    lines[1] = "ordering: " + " ".join([order[1], order[0], *order[2:]])
    forged = wl.CommandResult(rec.rc, "\n".join(lines) + "\n", 0.0, 0.0)
    expect(bool(wl.independent_check(d, "recognize", forged)),
           "query: a non-perfect ordering fails verify_ordering")
    knot = work.first_outputs[("dp-20", "knot")]
    forged = wl.CommandResult(knot.rc, knot.stdout.replace(" edges", "0 edges"), 0.0, 0.0)
    expect(bool(wl.independent_check(d, "knot", forged)),
           "query: a knotting edge count other than arc_count fails")


def check_trace(name: str, golden: dict, workdir: Path) -> None:
    work = tiny(name, golden, workdir)
    originals = [getattr(import_module(m), a) for m, a, _ in tr.BINDINGS]
    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass", "0"):
            res = work.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    wall = tracer.stats["bench.pass"][1]
    self_sum = sum(v[2] for v in tracer.stats.values())
    spans = sum(v[0] for v in tracer.stats.values())
    expect(res.failed == 0 and abs(self_sum - wall) <= 1e-9 * spans + 1e-9,
           f"{name}: {spans} traced spans, self times sum {self_sum:.6f}s = wall {wall:.6f}s")
    restored = [getattr(import_module(m), a) for m, a, _ in tr.BINDINGS]
    expect(all(a is b for a, b in zip(originals, restored)),
           f"{name}: uninstall restores every wrapped binding")


def main() -> int:
    golden = wl.load_golden()
    workdir = ROOT / ".bench_out" / "selfcheck"
    try:
        for name in wl.WORKLOADS:
            if name == "query":
                check_query(golden, workdir)
            else:
                check_batch(name, golden, workdir)
            check_trace(name, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} self-check failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
