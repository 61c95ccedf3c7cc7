"""Print the end-to-end benchmark medians of a run of records, in order.

For each workload of BENCHMARK.json, one table: a row per record that
measured the workload, a column per end-to-end metric, each cell the
`summary` median of that metric (`-` where the record has none).  A
record without a `summary` is listed as skipped.

Usage: python tools/trajectory.py [RECORD ...]

The default records are perfbench/results/BENCH_baseline_e2e.json, then
each bench/BENCH_*_change.json in the order git first added it (files git
does not know yet come last, by name).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "results" / "BENCH_baseline_e2e.json"


def default_records() -> list[Path]:
    """The baseline, then the change records in the order git first added them."""
    log = subprocess.run(
        ["git", "log", "--diff-filter=A", "--reverse", "--format=", "--name-only", "--",
         "bench/BENCH_*_change.json"],
        cwd=ROOT, capture_output=True, text=True,
    )
    added = [ROOT / line for line in log.stdout.splitlines() if line] if log.returncode == 0 else []
    on_disk = sorted((ROOT / "bench").glob("BENCH_*_change.json"))
    order = list(dict.fromkeys(p for p in added + on_disk if p.exists()))
    return [BASELINE] + order


def trajectory(paths: list[Path], workloads: list[str], metrics: list[str]) -> list[str]:
    """The report lines for the records at `paths`, in that order."""
    summaries = {}
    lines = []
    for path in paths:
        summary = json.loads(Path(path).read_text()).get("summary")
        if summary is None:
            lines.append(f"skipped (no summary): {path}")
        else:
            summaries[Path(path).stem.removeprefix("BENCH_")] = summary
    width = max(map(len, summaries), default=0)
    for workload in workloads:
        rows = []
        for name, summary in summaries.items():
            cells = summary.get(workload, {})
            if any(m in cells for m in metrics):
                values = [f"{cells[m]['median']:.4g}" if m in cells else "-" for m in metrics]
                rows.append((name, values))
        if rows:
            lines.append(f"== {workload}")
            lines.append(" ".join([f"{'record':<{width}}"] + [f"{m:>12}" for m in metrics]))
            lines.extend(
                " ".join([f"{name:<{width}}"] + [f"{v:>12}" for v in values])
                for name, values in rows
            )
    return lines


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    paths = [Path(p) for p in argv] or default_records()
    print("\n".join(trajectory(paths, workloads, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
