"""Capture the golden outputs that the benchmark's correctness gate compares with.

    python3 perfbench/capture_golden.py      # from the repository root

Runs every batch call of every workload (both scales) and every CLI command
on every input any seed can draw, at the current commit, and writes
`perfbench/golden.json`.  Seeded batch calls are run at two seeds to confirm
that their reports differ only in `params.seed`.  Every captured command
output must also pass the golden-free checks in `workloads.independent_check`.
Takes about two minutes on one core.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from run import commit_id  # noqa: E402


def main() -> int:
    import numpy
    from dichordal import cli, serialize, verify

    reports = {}
    for workload in wl.WORKLOADS[:3]:
        for scale in wl.SCALES:
            for call in wl.batch_calls(workload, 0, scale):
                fn = getattr(verify, call.check)
                got = fn(**call.kwargs).to_json_dict()
                assert got["failures"] == 0, (call.label, got)
                if "seed" in call.kwargs:
                    other = fn(**{**call.kwargs, "seed": 1}).to_json_dict()
                    other["params"]["seed"] = 0
                    assert other == got, f"{call.label}: report depends on the seed"
                reports[call.label] = got
                print(f"report {call.label}: total={got['total']}", file=sys.stderr)

    commands = {}
    tmp = ROOT / ".bench_out" / "golden-inputs"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for input_id in wl.pool_inputs(wl.wqt_pool()):
            d = wl.make_digraph(input_id)
            path = tmp / f"{input_id}.dg"
            path.write_text(serialize(d))
            commands[input_id] = {}
            for cmd in wl.commands_for(input_id):
                res = wl.run_command(cli.main, wl.COMMANDS[cmd] + [str(path)])
                assert res.rc in (0, 1), (input_id, cmd, res.rc, res.error)
                why = wl.independent_check(d, cmd, res)
                assert not why, (input_id, cmd, why)
                commands[input_id][cmd] = [res.digest, res.rc]
            print(f"commands {input_id}: n={d.n}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    golden = {
        "commit": commit_id(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reports": reports,
        "commands": commands,
    }
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
