"""The CLI's exit-code contract, resource bounds on `verify`, and the
vertex-count bound on parsed files and generated digraphs."""

import concurrent.futures
import hashlib
import inspect
import io
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from dichordal import classes, cli, verify
from dichordal.classes import generate_locally_semicomplete, generate_wqt
from dichordal.cli import build_parser, main
from dichordal.digraph import (
    MAX_VERTICES,
    Digraph,
    bits,
    digraph_count,
    dot_chunks,
    dot_quote,
    from_out_masks,
    parse_labeled,
    random_digraph,
    serialize,
    serialize_chunks,
    to_dot,
)
from dichordal.verify import CHECKS

from conftest import traced

ROOT = Path(__file__).resolve().parent.parent


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("table corrupted")

    monkeypatch.setitem(CHECKS, "theorem4", broken)
    code = main(["verify", "--check", "theorem4", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("internal error: RuntimeError: table corrupted")
    assert "Traceback" in err


@pytest.mark.parametrize("flag", ["--workers", "--shards"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_nonpositive_parallelism(capsys, flag, value):
    code = main(["verify", "--check", "theorem4", "--n", "3", flag, value])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("flag", ["shards", "workers"])
def test_every_check_rejects_nonpositive_parallelism(capsys, check, flag):
    # theorem5 at orders 0..0 has no jobs, and still rejects the count
    message = f"{flag[:-1]} count must be positive"
    kwargs = {"n_exhaustive": 0, "n_random": 0} if check == "theorem5" else {"n": 2}
    with pytest.raises(ValueError, match=message):
        CHECKS[check](**kwargs, **{flag: 0})
    n = "0" if check == "theorem5" else "2"
    argv = ["verify", "--check", check, "--n", n, "--n-random", "0", f"--{flag}", "0"]
    assert _rejected(capsys, argv) == f"error: {message}\n"


def test_pool_size_clamps_without_starting_processes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify._pool_size(1000, 8) == 4
    assert verify._pool_size(1000, 3) == 3
    assert verify._pool_size(2, 8) == 2
    assert verify._pool_size(1, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._pool_size(16, 8) == 1
    with pytest.raises(ValueError):
        verify._pool_size(0, 8)


# 4**6 is the order-5 table job's count: its extension blocks
@pytest.mark.parametrize("total", [0, 1, 7, 64, 70, 4**6])
def test_split_range_gives_nonempty_even_ranges(total):
    for shards in (1, 2, 3, 7, 200_000, 10**8):
        ranges = list(verify._split_range(total, shards))
        assert len(ranges) == min(shards, total)
        assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
        assert all(a < b for a, b in ranges)
        assert (ranges[0][0], ranges[-1][1]) == (0, total) if ranges else (total == 0)
        sizes = [b - a for a, b in ranges]
        assert not sizes or max(sizes) - min(sizes) <= 1


# a table job's block ranges read as rows; (64, 16) and (4**10, 4**4) are the
# orders 3 and 5, whose rows fill whole extension blocks
@pytest.mark.parametrize(
    "total, unit", [(0, 1), (1, 1), (7, 1), (64, 1), (64, 16), (4**10, 4**4)]
)
def test_split_range_gives_nonempty_whole_unit_ranges(total, unit):
    for shards in (1, 2, 3, 7, 200_000, 10**8):
        blocks = verify._split_range(total // unit, shards)
        ranges = [(a * unit, b * unit) for a, b in blocks]
        assert len(ranges) == min(shards, total // unit)
        assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
        assert all(a < b and a % unit == 0 for a, b in ranges)
        assert (ranges[0][0], ranges[-1][1]) == (0, total) if ranges else (total == 0)
        sizes = [b - a for a, b in ranges]
        assert not sizes or max(sizes) - min(sizes) <= unit


@pytest.mark.parametrize("n", range(6))
def test_table_jobs_count_extension_blocks(n):
    # one block per order-(n-1) parent, and the single row at n=0
    job = verify._table_job(verify.wqt_mask, ("fig1",), False, n)
    assert job.count == (4 ** ((n - 1) * (n - 2) // 2) if n else 1)


def test_huge_shard_count_runs_one_part_per_block(monkeypatch):
    assert len(list(verify._split_range(5, 200_000))) == 5  # before asking for 10**8
    single = verify.check_theorem5(5, 6, samples=2, shards=1).to_json()
    parts = []
    scan = verify._table_scan

    def counting(*args):
        parts.append(args[3])
        return scan(*args)

    monkeypatch.setattr(verify, "_table_scan", counting)
    assert verify.check_theorem5(5, 6, samples=2, shards=10**8).to_json() == single
    # one part per extension block: 4^(n-1) rows each, one row at order 1
    assert [parts.count(n) for n in range(1, 6)] == [1, 1, 4, 64, 4096]


def _count_instances(start, stop):
    """A worker whose every instance passes, with one record per part from
    99,980 on: twenty records, of which the report keeps the first ten."""
    return (stop - start, stop - start, stop - start, [{"i": start}] if start >= 99_980 else [])


def test_serial_check_holds_one_part_at_a_time():
    # 10**5 one-instance parts: a _check that lists its ranges, parts and
    # results first traces tens of MB here (10**8 shards would not fit at all)
    job = verify.Job(_count_instances, (), 10**5)
    report, _, peak = traced(verify._check, "count", {}, [job], shards=10**8, workers=1)
    assert (report.total, report.filtered, report.passed) == (10**5, 10**5, 10**5)
    assert report.counterexamples == [{"i": i} for i in range(99_980, 99_990)]
    assert peak < 1 << 20


def test_pool_run_keeps_a_window_of_futures(monkeypatch):
    # threads stand in for the worker processes; a future is outstanding
    # from its submission until its result is taken
    executors = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.outstanding = self.most = 0
            executors.append(self)

        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            self.outstanding += 1
            self.most = max(self.most, self.outstanding)
            result = future.result

            def take():
                self.outstanding -= 1
                return result()

            future.result = take
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    job = verify.Job(_count_instances, (), 1000)
    report = verify._check("count", {}, [job], shards=10**8, workers=2)
    assert (report.total, report.filtered, report.passed) == (1000, 1000, 1000)
    [pool] = executors
    assert pool.outstanding == 0
    # one future per part up front would reach 1,000
    assert pool.most == 2 * verify._FUTURES_PER_WORKER


def test_verify_output_is_the_same_for_a_huge_shard_count(capsys):
    runs = []
    for shards in ("1", "200000"):
        code = main(["verify", "--check", "theorem4", "--n", "3", "--shards", shards])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_n_random_default_matches_check_theorem5():
    args = build_parser().parse_args(["verify", "--check", "theorem5"])
    default = inspect.signature(verify.check_theorem5).parameters["n_random"].default
    assert args.n_random == default == 8


@pytest.mark.parametrize("n, n_random", [(5, 3), (5, 5), (3, 3), (0, 0)])
def test_theorem5_rejects_samples_without_a_random_size(capsys, n, n_random):
    # the samples were dropped: a PASS with samples=10 that checked none
    argv = ["verify", "--check", "theorem5", "--n", str(n), "--n-random", str(n_random)]
    err = _rejected(capsys, [*argv, "--samples", "10"])
    assert err == (
        "error: theorem5 samples need n_random > n_exhaustive,"
        f" got n_random={n_random} and n_exhaustive={n}\n"
    )
    assert main([*argv, "--samples", "0"]) == 0
    assert "status: PASS" in capsys.readouterr().out


def test_theorem5_huge_n_random_samples_the_smallest_size():
    # the sizes stay a range: n_random=10**9 with one sample checks one
    # digraph of order 4, as n_random=4 does, without a list of 10**9 sizes
    huge = verify.check_theorem5(3, 10**9, samples=1, seed=5)
    small = verify.check_theorem5(3, 4, samples=1, seed=5)
    assert (huge.total, huge.filtered, huge.passed) == (small.total, small.filtered, small.passed)
    assert huge.total == sum(digraph_count(k) for k in range(1, 4)) + 1
    assert huge.params == {**small.params, "n_random": 10**9}


def test_parse_rejects_oversized_vertex_count(capsys, monkeypatch):
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_labeled("100000 0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("100000 0\n"))
    assert main(["recognize", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: vertex count 100000 exceeds the limit of {MAX_VERTICES}")
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_labeled(f"{MAX_VERTICES + 1} 0\n")
    assert parse_labeled("500 0\n")[0].n == 500


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "recognizers", "--n", "5", "--samples", "-5"],
        ["--check", "theorem5", "--n", "3", "--n-random", "5", "--samples", "-7"],
        ["--check", "knotting-deletion", "--samples", "-3"],
        ["--check", "recognizers", "--n", "3", "--samples", "-4"],
        ["--check", "theorem4", "--n", "3", "--samples", "-4"],
        ["--check", "nesting", "--n", "3", "--samples", "-4"],
    ],
)
def test_verify_rejects_negative_samples(capsys, argv):
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: sample count must be non-negative")


def test_deletion_probe_defaults_to_1000_samples(capsys):
    assert main(["verify", "--check", "knotting-deletion", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "params: n=3 samples=1000 seed=0"
    assert out == verify.probe_knotting_deletion(3).to_text()


def test_verify_keeps_an_explicit_zero_sample_count(capsys):
    code = main(["verify", "--check", "knotting-deletion", "--n", "3", "--samples", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "samples=0" in out.splitlines()[1]
    assert "instances: total=0 " in out


def _rejected(capsys, argv) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv", [["enumerate", "--n", "-1"], ["gen", "--class", "random", "--n", "-3"]]
)
def test_negative_vertex_counts_exit_2(capsys, argv):
    assert _rejected(capsys, argv) == "error: vertex count must be nonnegative\n"
    with pytest.raises(ValueError, match="nonnegative"):
        Digraph(-1, [0])
    with pytest.raises(ValueError, match="nonnegative"):
        digraph_count(-1)


@pytest.mark.parametrize("check", ["theorem4", "theorem5", "nesting", "recognizers"])
def test_verify_negative_orders_exit_2(capsys, check):
    # theorem5 used to print a PASS over 0 instances for --n -1
    err = _rejected(capsys, ["verify", "--check", check, "--n", "-1"])
    assert err.startswith("error: ")
    if check == "theorem5":
        assert err == "error: theorem5 exhaustive orders are 0..5, got n_exhaustive=-1\n"
        with pytest.raises(ValueError, match="n_exhaustive=-1"):
            verify.check_theorem5(n_exhaustive=-1)
        assert main(["verify", "--check", "theorem5", "--n", "0"]) == 0
        assert "instances: total=0 " in capsys.readouterr().out


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_deletion_probe_rejects_orders_below_two(capsys, n):
    # its digraphs have 2..n vertices: n=-1 probed order-2 digraphs and
    # reported n=-1
    argv = ["verify", "--check", "knotting-deletion", "--n", str(n), "--samples", "3"]
    err = _rejected(capsys, argv)
    assert err == f"error: knotting-deletion probe needs n >= 2, got n={n}\n"
    with pytest.raises(ValueError, match="n >= 2"):
        verify.probe_knotting_deletion(n, 3)
    assert main([*argv[:3], "--n", "2", "--samples", "3"]) == 0
    assert "params: n=2 samples=3 seed=0" in capsys.readouterr().out


@pytest.mark.parametrize("klass", ["random", "locally-semicomplete"])
def test_gen_rejects_more_vertices_than_the_parser(capsys, klass):
    n = MAX_VERTICES + 1
    err = _rejected(capsys, ["gen", "--class", klass, "--n", str(n)])
    assert err == f"error: vertex count {n} exceeds the limit of {MAX_VERTICES}\n"


def test_gen_wqt_stops_at_the_vertex_limit(capsys):
    # both ran for more than 20 s before the limit; the parts are drawn
    # and counted before anything is substituted
    err = _rejected(capsys, ["gen", "--class", "wqt", "--depth", "40", "--width", "40"])
    assert err == f"error: generated digraph exceeds the limit of {MAX_VERTICES} vertices\n"
    width = MAX_VERTICES * 4
    assert random.Random(0).randint(1, width) > MAX_VERTICES  # seed 0's base order
    with pytest.raises(ValueError, match="exceeds the limit"):
        generate_wqt(0, depth=1, width=width)


@pytest.mark.parametrize("seed, width", [(1, 4000), (2, MAX_VERTICES)])
def test_gen_wqt_builds_no_base_past_the_vertex_limit(monkeypatch, seed, width):
    # the order is counted when a base's size is drawn, before the base is
    # built: no builder call may take the order above the limit
    orders = [1]  # the order after each builder call, starting from one vertex
    for name in ("_random_transitive_oriented", "_random_semicomplete", "_random_symmetric"):

        def counted(rng, n, build=getattr(classes, name)):
            orders.append(orders[-1] + n - 1)
            return build(rng, n)

        monkeypatch.setattr(classes, name, counted)
    with pytest.raises(ValueError, match="exceeds the limit"):
        generate_wqt(seed, depth=2, width=width)
    assert len(orders) > 1 and max(orders) <= MAX_VERTICES


def test_gen_wqt_output_below_the_limit_unchanged():
    h = hashlib.sha256()
    for depth, width in [(1, 5), (2, 3), (3, 4), (4, 3), (2, 8)]:
        for seed in range(40):
            h.update(serialize(generate_wqt(seed, depth=depth, width=width)).encode())
    # captured before the limit was added
    assert h.hexdigest() == "4d9bfb577f496acc37e1476b1d37c542a891f5ba02ce92c068b93513d25e6620"


@pytest.mark.parametrize("weights", ["nan,1,1,1", "1,inf,1,1", "1,1,-inf,1", "1,1,1,nan"])
def test_gen_rejects_non_finite_weights(capsys, weights):
    err = _rejected(capsys, ["gen", "--class", "random", "--n", "4", f"--weights={weights}"])
    assert err == "error: kind_weights must be 4 finite nonnegative numbers\n"
    with pytest.raises(ValueError, match="finite"):
        random_digraph(4, tuple(float(w) for w in weights.split(",")))


def test_gen_rejects_weights_whose_sum_overflows(capsys):
    # 1e308 + 1e308 is inf as a float: every cumulative weight read 0 and
    # every pair was drawn as a digon, of weight 0
    err = _rejected(capsys, ["gen", "--class", "random", "--n", "4", "--weights=1e308,1e308,0,0"])
    assert err == "error: kind_weights must have a positive sum within the float range\n"


def _old_serialize(d, names=None):
    lines = [f"{d.n} {d.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    if names:
        lines.extend(f"# {v} {names[v]}" for v in sorted(names))
    return "\n".join(lines) + "\n"


def test_serialize_chunks_join_to_the_old_text():
    for n in range(0, 9):
        for seed in range(10):
            d = random_digraph(n, (3, 1, 1, 1), seed=seed)
            names = {v: f"v{v}" for v in range(0, n, 2)}
            for labels in (None, names):
                assert "".join(serialize_chunks(d, labels)) == _old_serialize(d, labels)
                assert serialize(d, labels) == _old_serialize(d, labels)


@pytest.mark.parametrize(
    "argv, make",
    [
        (["--class", "wqt", "--depth", "2", "--width", "6"], lambda: generate_wqt(4, 2, 6)),
        (["--class", "locally-semicomplete", "--n", "30"],
         lambda: generate_locally_semicomplete(4, 30)),
        (["--class", "random", "--n", "25"], lambda: random_digraph(25, seed=4)),
    ],
)
def test_gen_streams_the_serialized_text(capsys, monkeypatch, argv, make):
    def refuse(*args, **kwargs):
        raise AssertionError("gen joined the whole text")

    monkeypatch.setattr(cli, "serialize", refuse)
    assert main(["gen", *argv, "--seed", "4"]) == 0
    assert capsys.readouterr().out == _old_serialize(make())


def _digest_and_size(chunks_of, d):
    """The sha256 hex digest and the length of the text that chunks_of(d)
    yields, read one chunk at a time."""
    h = hashlib.sha256()
    size = 0
    for chunk in chunks_of(d):
        h.update(chunk.encode())
        size += len(chunk)
    return h.hexdigest(), size


def test_serialize_chunks_hold_one_vertex_at_a_time():
    # transitive tournament: 44,850 arc lines, about 300 per chunk
    n = 300
    full = (1 << n) - 1
    d = from_out_masks([full & ~((2 << u) - 1) for u in range(n)])
    (digest, size), _, peak = traced(_digest_and_size, serialize_chunks, d)
    assert digest == hashlib.sha256(_old_serialize(d).encode()).hexdigest()
    assert size > 300_000
    # the joined text alone is `size` bytes; the list of lines was ~10x that
    assert peak < size // 10


def _old_to_dot(d, names=None):
    def label(v):
        return dot_quote(names[v] if names and v in names else str(v))

    lines = ["digraph D {"]
    for v in range(d.n):
        lines.append(f'  {v} [label="{label(v)}"];')
    for j in range(1, d.n):
        to_j, from_j = d.in_masks[j], d.out_masks[j]
        for i in bits((to_j | from_j) & ((1 << j) - 1)):
            if not from_j >> i & 1:
                lines.append(f"  {i} -> {j};")
            elif not to_j >> i & 1:
                lines.append(f"  {j} -> {i};")
            else:
                lines.append(f"  {i} -> {j} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_dot_chunks_join_to_the_old_text(ex1, ex2):
    names = {0: "a", 1: 'b "quoted"', 2: "c\\d", 3: "d"}
    for d in (ex1, ex2):
        for labels in (None, names):
            assert "".join(dot_chunks(d, labels)) == _old_to_dot(d, labels)
            assert to_dot(d, labels) == _old_to_dot(d, labels)
    for n in range(0, 9):
        for seed in range(10):
            d = random_digraph(n, (3, 1, 1, 1), seed=seed)
            labels = {v: f"v{v}" for v in range(0, n, 2)}
            assert "".join(dot_chunks(d, labels)) == _old_to_dot(d, labels)
            assert to_dot(d) == _old_to_dot(d)


def test_gen_dot_text_unchanged(capsys):
    assert main(["gen", "--class", "wqt", "--depth", "2", "--width", "6", "--seed", "4",
                 "--dot"]) == 0
    assert capsys.readouterr().out == _old_to_dot(generate_wqt(4, 2, 6))


def test_dot_chunks_hold_one_column_at_a_time():
    # transitive tournament: 44,850 edge lines, up to 299 per chunk
    n = 300
    full = (1 << n) - 1
    d = from_out_masks([full & ~((2 << u) - 1) for u in range(n)])
    (digest, size), _, peak = traced(_digest_and_size, dot_chunks, d)
    assert digest == hashlib.sha256(_old_to_dot(d).encode()).hexdigest()
    assert size > 500_000
    # the joined text alone is `size` bytes; the list of lines was ~10x that
    assert peak < size // 10


NUMPY_PROBE = """
import contextlib, io, sys
from dichordal import cli
loaded = ["numpy" in sys.modules]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv.split())
    loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_commands_other_than_verify_load_no_numpy():
    # numpy is most of the CLI's import time; only `verify` reads the tables
    ex1 = ROOT / "demos" / "data" / "example1.dg"
    commands = [
        f"recognize --variant all {ex1}",
        f"knot --dot {ex1}",
        f"classify {ex1}",
        f"forbidden {ex1}",
        "gen --class wqt --seed 3",
        "enumerate --n 3 --filter wqt",
        "verify --check theorem4 --n 2",  # the probe sees numpy once it loads
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *commands],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str([False] * len(commands) + [True]) + "\n"
