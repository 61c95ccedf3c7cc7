"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of this repository.  Workloads:
exhaustive-wqt, lsc-mixed, cross-check, query (see perfbench/README.md).

The workload runs in a fresh child process (`worker.py run`), which sets
up, measures passes for about S seconds and checks every output against the
golden file and the exact invariants.  Set-up is also measured in
SETUP_SAMPLES further fresh processes (`worker.py setup`); `setup_s` is the
median over all of them.  With `--trace 0` the last line of stdout holds the
end-to-end metrics; with `--trace 1` a traced run holds the per-layer
metrics; names and units are those declared in BENCHMARK.json.  The line
before it records provenance, and the full record, including the trace, is
written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

SETUP_SAMPLES = 4
# a run must end within 180 s: 120 + SETUP_SAMPLES * 10 leaves a margin
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 10
HERE = Path(__file__).resolve().parent


def _child(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout}s: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1])


def commit_id(root: Path) -> str:
    """The checked-out commit, read from .git without running git; a
    checkout that is not a repository gives 'unknown'."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def provenance(root: Path, command: list[str]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit_id(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "command": command,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dichordal" / "__init__.py").is_file():
        print("error: run from the root of a dichordal checkout (src/dichordal missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        result = _child(
            ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(out_dir / f"work-{tag}")],
            RUN_TIMEOUT_S,
        )
        setups = [result["setup"]]
        for i in range(SETUP_SAMPLES):
            setups.append(
                _child(["setup", *common, "--workdir", str(out_dir / f"work-{tag}-{i}")],
                       SETUP_TIMEOUT_S)
            )
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = dict(result["layers"])
        for key in ("import_s", "fig1_tables_s", "inputs_s"):
            metrics[f"setup.{key}"] = setup_median(key)
    else:
        metrics = {
            "setup_s": setup_median("setup_s"),
            "ops_per_s": result["ops_per_s"],
            "query_ms_p50": result["query_ms_p50"],
            "query_ms_p90": result["query_ms_p90"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    record = {
        "provenance": provenance(root, ["python3", "perfbench/run.py", *argv]),
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples": setups,
        "metrics": metrics,
        **{k: v for k, v in result.items() if k not in ("setup", "layers")},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
