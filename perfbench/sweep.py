"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads query,lsc-mixed] [--trace 1]
                               [--out sweep.json]

Run from the repository root.  Each run is `python3 perfbench/run.py` with
`--seconds` from BENCHMARK.json, one at a time.  For every workload and
metric it prints the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (Q3 - Q1) / median, and, with tracing off, compares the
spread with the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance

ROOT = Path.cwd()


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {
        "provenance": provenance(ROOT, ["python3", "perfbench/sweep.py", *sys.argv[1:]]),
        "runs": {},
        "summary": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        report["runs"][workload] = runs
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed {failed}")
        summary = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name] = stats
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if stats["spread"] < bound / 3 else (
                    "within bound" if stats["spread"] <= bound else "TOO WIDE")
            print(f"  {name:48s} median {stats['median']:14.6g}  "
                  f"spread {stats['spread']:.3f}  {verdict}")
        report["summary"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
