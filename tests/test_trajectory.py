"""`tools/trajectory.py` on small records passed in explicitly: rows in the
order given, `-` for a metric a record lacks, no row where a record did not
measure the workload, and a record without a summary listed as skipped."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"


def _summary(**medians):
    return {metric: {"median": value, "q1": 0.0, "q3": 0.0} for metric, value in medians.items()}


BASELINE = {
    "summary": {
        "lsc-mixed": _summary(
            setup_s=0.4915, ops_per_s=85_690.0, query_ms_p50=12_690.0,
            query_ms_p90=12_694.5, peak_rss_mb=79.07,
        ),
        "query": _summary(setup_s=0.18, ops_per_s=189.04, peak_rss_mb=41.73),
    }
}
CHANGE = {
    "summary": {
        "lsc-mixed": _summary(
            setup_s=0.16, ops_per_s=869_600.0, query_ms_p50=1_251.0,
            query_ms_p90=1_349.0, peak_rss_mb=40.9,
        ),
        "query": {"cli.main.self_s": {"median": 0.25}},  # per-layer only: no row
    }
}
TRACE_ONLY = {"runs": []}


def test_trajectory_prints_each_record_in_the_order_given(tmp_path):
    paths = []
    for name, record in (("baseline", BASELINE), ("x_change", CHANGE), ("y_change", TRACE_ONLY)):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, str(TOOL), *paths], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"skipped (no summary): {paths[2]}\n"
        "== lsc-mixed\n"
        "record        setup_s    ops_per_s query_ms_p50 query_ms_p90  peak_rss_mb\n"
        "baseline       0.4915    8.569e+04    1.269e+04    1.269e+04        79.07\n"
        "x_change         0.16    8.696e+05         1251         1349         40.9\n"
        "== query\n"
        "record        setup_s    ops_per_s query_ms_p50 query_ms_p90  peak_rss_mb\n"
        "baseline         0.18          189            -            -        41.73\n"
    )
