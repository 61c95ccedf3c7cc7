"""One fresh benchmark process: set-up, then (in `run` mode) the timed passes.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; `dichordal` is imported from its `src/`.
Prints one JSON object on the last line of stdout.  `run.py` starts these
processes and turns their output into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (perfbench/ is the script directory)
from calibrate import REFERENCE_S, Sampler, burst, calibrate  # noqa: E402


def setup(workload: str, seed: int, workdir: Path) -> tuple[wl.Workload, dict]:
    """Import, lazy one-time tables, inputs; each step timed on its own and
    scaled by the calibration taken just before and after set-up."""
    calibrate()  # warm-up: the first run in a fresh interpreter is slower
    cals = burst(5)
    t0 = time.perf_counter()
    importlib.import_module("dichordal")
    verify = importlib.import_module("dichordal.verify")
    importlib.import_module("dichordal.cli")
    t1 = time.perf_counter()
    from dichordal import digraph_from_index

    # contains_fig1 builds the 3- and 4-vertex lookup tables on first use
    verify.contains_fig1(digraph_from_index(3, 0))
    verify.contains_fig1(digraph_from_index(4, 0))
    t2 = time.perf_counter()
    work = wl.Workload(workload, seed, "full", wl.load_golden(), workdir)
    work.make_inputs()
    t3 = time.perf_counter()
    scale = REFERENCE_S / statistics.median(cals + burst(5))
    raw = {"import_s": t1 - t0, "fig1_tables_s": t2 - t1, "inputs_s": t3 - t2,
           "setup_s": t3 - t0}
    times = {k: v * scale for k, v in raw.items()}
    times["raw"] = raw
    return work, times


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) density over each rank's slice of [0, 1].
    A mixed workload's latencies have gaps between command kinds; the plain
    sample percentile jumps across such a gap when one command's noise
    swaps two ranks, while this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoint rule per rank slice
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((j + 0.5) / (n * steps) for j in range(n * steps))
    ]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def normal_p90(values: list[float]) -> float:
    """p90 as mean + z(0.9) * standard deviation.

    A batch run makes one to five passes: an order statistic from so few is
    the slowest pass and swings with every hiccup of the host, while the
    normal-quantile estimate moves only by a fraction of the spread.
    """
    if len(values) == 1:
        return values[0]
    return statistics.fmean(values) + 1.2816 * statistics.stdev(values)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: list, untraced: list) -> dict:
    """Per-layer metrics per traced pass, from the aggregated spans."""
    k = len(passes)
    out = {}
    for name in (
        "digraph.from_index", "digraph.induced", "digraph.build",
        "classes.generate_locally_semicomplete", "chordality.is_chordal",
        "chordality.elimination_ordering", "knotting.knotting_graph",
        "patterns.find_induced", "patterns.find_lollipop", "verify.contains_fig1",
    ):
        out[f"{name}.calls"] = tracer.calls(name) / k
        out[f"{name}.self_s"] = tracer.self_s(name) / k
    for name in (
        "digraph.symmetric_subdigraph", "digraph.parse", "chordality.stalled_subdigraph",
        "chordality.oracle_is_chordal", "knotting.theorem2_oracle",
        "knotting.ss_chordal_via_knotting", "patterns.find_nonsym_induced_dicycle",
        "verify.prefilter", "verify.check", "cli.main",
    ):
        out[f"{name}.self_s"] = tracer.self_s(name) / k
    for name in ("knotting.knot_classes", "knotting.group"):
        out[f"{name}.calls"] = tracer.calls(name) / k
    # inclusive times, for the share of a pass each of these entry points takes
    for name in (
        "classes.generate_locally_semicomplete", "knotting.theorem2_oracle",
        "knotting.ss_chordal_via_knotting", "chordality.oracle_is_chordal",
    ):
        out[f"{name}.total_s"] = tracer.total_s(name) / k
    gen = "classes.generate_locally_semicomplete"
    out["classes.builds_per_instance"] = _share(
        tracer.edge_calls(gen, "digraph.build"), tracer.calls(gen)
    )
    out["chordality.true_share"] = _share(
        tracer.true_count("chordality.is_chordal"), tracer.calls("chordality.is_chordal")
    )
    out["patterns.rhs_lollipop_share"] = _share(
        tracer.edge_calls("verify.check", "patterns.find_lollipop"),
        sum(p.theorem5_filtered for p in passes),
    )
    totals = sum(p.totals for p in passes)
    filtered = sum(p.filtered for p in passes)
    out["verify.prefilter.keep_ratio"] = _share(filtered, totals)
    out["verify.instances_total"] = totals / k
    out["verify.instances_filtered"] = filtered / k
    out["cli.stdout_bytes"] = sum(p.stdout_bytes for p in passes) / k
    out["trace.overhead_ratio"] = statistics.median(p.wall_s for p in passes) / (
        statistics.median(p.wall_s for p in untraced)
    )
    # every span's self time, summed, against the wall time of the traced passes
    out["trace.self_time_share"] = sum(v[2] for v in tracer.stats.values()) / (
        tracer.stats["bench.pass"][1]
    )
    return out


def run(args, workdir: Path) -> dict:
    work, setup_times = setup(args.workload, args.seed, workdir)
    untraced, traced = [], []
    calibrations = burst(5)
    start = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        untraced.append(work.run_pass(0))
        tracer = Tracer()
        tracer.install()
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                with tracer.span("bench.pass", f"{len(untraced) + len(traced)}"):
                    traced.append(work.run_pass(len(untraced) + len(traced), tracer))
        finally:
            tracer.uninstall()
    else:
        with Sampler() as sampler:
            while not untraced or time.perf_counter() - start < args.seconds:
                untraced.append(work.run_pass(len(untraced)))
        for p in untraced:
            p.op_s = [sampler.scaled(a, b) for a, b in p.spans]
        calibrations += [r for _, r, _ in sampler.samples]
    calibrations += burst(5)
    passes = untraced + traced
    failed = sum(p.failed for p in passes)
    notes = [n for p in passes for n in p.notes]
    if args.workload == "query":
        extra, extra_notes = work.independent_failures()
        failed += extra
        notes += extra_notes
    result = {
        "setup": setup_times,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "notes": notes[:20],
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_ms": 1000.0 * statistics.median(calibrations),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, traced, untraced)
        result["layers"]["machine.calibration_ms"] = result["calibration_ms"]
        result["trace"] = tracer.dump()
        return result
    if args.workload == "query":  # latency of one CLI command
        latencies = [1000.0 * s for p in passes for s in p.op_s]
        p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    else:  # latency of one pass, the checks a `dichordal verify` user waits for
        latencies = [1000.0 * p.timed_s for p in passes]
        p50, p90 = statistics.median(latencies), normal_p90(latencies)
    result.update(
        ops_per_s=statistics.median(p.ops / p.timed_s for p in passes),
        raw_ops_per_s=statistics.median(p.ops / p.raw_timed_s for p in passes),
        query_ms_p50=p50,
        query_ms_p90=p90,
        latencies_ms=latencies,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory for inputs")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    try:
        if args.mode == "setup":
            _, result = setup(args.workload, args.seed, workdir)
        else:
            result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
