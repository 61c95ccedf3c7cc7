"""Every command of the benchmark's query pool against its golden digest.

`perfbench/golden.json` records the stdout digest and exit code of every
command the `query` workload can run.  The `recognize` commands run on
digon paths up to 500 vertices and print NO verdicts on random digraphs
up to 200 vertices, with large stalled subdigraphs, which the labelled
inputs of `test_cli_text` do not reach.  The test runs every pool
command, `knot` and `forbidden` included, and each one must reproduce its
recorded digest and exit code.
The pool and the digest come from `perfbench/workloads.py`, which is only
loaded here; nothing under `perfbench/` is written.
"""

import importlib.util
import sys
from pathlib import Path

from dichordal import cli, serialize

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_pool_command_matches_its_golden_digest(tmp_path, monkeypatch):
    # `recognize`, `knot` and `forbidden`: every command any seed can draw
    wl = _workloads(monkeypatch)
    golden = wl.load_golden()["commands"]
    inputs = wl.pool_inputs(wl.wqt_pool())
    assert len(inputs) == 192
    assert "dp-500" in inputs and "rnd200-g15" in inputs
    commands = {(input_id, cmd) for input_id in inputs for cmd in wl.commands_for(input_id)}
    assert {i for i, cmd in commands if cmd == "recognize"} == set(inputs)
    assert commands == {(i, cmd) for i, cmds in golden.items() for cmd in cmds}
    assert len(commands) == 412
    wrong = []
    for input_id, cmd in sorted(commands):
        path = tmp_path / f"{input_id}.dg"
        if not path.exists():
            path.write_text(serialize(wl.make_digraph(input_id)))
        res = wl.run_command(cli.main, wl.COMMANDS[cmd] + [str(path)])
        if [res.digest, res.rc] != golden[input_id][cmd]:
            wrong.append((input_id, cmd, res.rc, res.error))
    assert not wrong
