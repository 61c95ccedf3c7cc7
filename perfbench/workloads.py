"""The four benchmark workloads: inputs from the seed, one pass, and the
correctness gate of each pass.

Batch workloads (`exhaustive-wqt`, `lsc-mixed`, `cross-check`) call
`dichordal.verify.check_*` with `shards=1, workers=1`; an operation is one
instance decided by a check, so a pass attempts the sum of its reports'
`total`.  The `query` workload calls `dichordal.cli.main` in-process with
stdout captured; an operation is one CLI command.

Correctness is judged against `golden.json`, captured at a reference commit
by `capture_golden.py`, plus exact invariants that hold independently of
it.  A batch report must equal its golden `to_json()` (timing excluded); a
CLI command must reproduce its golden stdout digest and exit code.  The
`dichordal` package is imported lazily, so that the worker can time the
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SCALES = ("full", "tiny")

# -- batch workloads --------------------------------------------------------------

# Generated theorem-5 tail: chosen so that the tail (sizes 6..8, cycled) takes
# at least half of a lsc-mixed pass; the exhaustive part over n<=5 is fixed.
LSC_SAMPLES = {"full": 35_000, "tiny": 200}
# Sampled n=5 recognizer cross-check on top of the exhaustive n<=4 part.
CROSS_SAMPLES = {"full": 1_000, "tiny": 20}


@dataclass(frozen=True)
class Call:
    label: str  # key into the golden reports
    check: str  # name of a dichordal.verify check function
    kwargs: dict


def batch_calls(workload: str, seed: int, scale: str) -> list[Call]:
    one = {"shards": 1, "workers": 1}
    if workload == "exhaustive-wqt":
        top = 5 if scale == "full" else 4
        return [
            Call(f"theorem4(n={n})", "check_theorem4", {"n": n, **one})
            for n in range(1, top + 1)
        ]
    if workload == "lsc-mixed":
        n_exh, n_rand = (5, 8) if scale == "full" else (3, 6)
        samples = LSC_SAMPLES[scale]
        label = f"theorem5(n_exhaustive={n_exh},n_random={n_rand},samples={samples})"
        kwargs = {"n_exhaustive": n_exh, "n_random": n_rand, "samples": samples}
        return [Call(label, "check_theorem5", {**kwargs, "seed": seed, **one})]
    if workload == "cross-check":
        top = 4 if scale == "full" else 3
        calls = [
            Call(f"recognizers(n={n})", "check_recognizer_equivalence", {"n": n, **one})
            for n in range(1, top + 1)
        ]
        samples = CROSS_SAMPLES[scale]
        calls.append(
            Call(
                f"recognizers(n=5,samples={samples})",
                "check_recognizer_equivalence",
                {"n": 5, "samples": samples, "seed": seed, **one},
            )
        )
        return calls
    raise ValueError(f"not a batch workload: {workload}")


def batch_invariants(workload: str, scale: str) -> list[tuple[str, tuple[str, ...], str, int]]:
    """(description, call labels, report field, expected sum over the labels).

    These are exact facts about the exhaustive ranges, stated independently
    of the golden file.
    """
    if workload == "exhaustive-wqt":
        if scale == "full":
            five = ("theorem4(n=5)",)
            return [
                ("theorem4 n=5 instances", five, "total", 4**10),
                ("theorem4 n=5 weakly quasi-transitive", five, "filtered", 82_012),
                ("theorem4 n=5 failures", five, "failures", 0),
            ]
        four = ("theorem4(n=4)",)
        return [
            ("theorem4 n=4 instances", four, "total", 4**6),
            ("theorem4 n=4 weakly quasi-transitive", four, "filtered", 1_246),
            ("theorem4 n=4 failures", four, "failures", 0),
        ]
    if workload == "lsc-mixed":
        (call,) = batch_calls(workload, 0, scale)
        samples = LSC_SAMPLES[scale]
        # exhaustive part: every digraph of order 1..n_exhaustive, and the
        # locally semicomplete ones among them
        total, lsc = (1_052_741, 72_413) if scale == "full" else (69, 48)
        return [
            ("theorem5 instances", (call.label,), "total", total + samples),
            ("theorem5 exhaustive locally semicomplete + samples", (call.label,),
             "filtered", lsc + samples),
            ("theorem5 failures", (call.label,), "failures", 0),
        ]
    if workload == "cross-check":
        calls = batch_calls(workload, 0, scale)
        exhaustive = tuple(c.label for c in calls[:-1])
        every = tuple(c.label for c in calls)
        total = 4_165 if scale == "full" else 69  # sum of 4^(n(n-1)/2)
        return [
            ("recognizers exhaustive instances", exhaustive, "total", total),
            ("recognizers failures", every, "failures", 0),
        ]
    raise ValueError(f"not a batch workload: {workload}")


def expected_report(golden: dict, call: Call) -> dict:
    """The golden `to_json()` dict of a call; a seeded call's report differs
    from the captured one only in `params.seed`."""
    expected = json.loads(json.dumps(golden["reports"][call.label]))
    if "seed" in call.kwargs:
        expected["params"]["seed"] = call.kwargs["seed"]
    return expected


def gate_batch(
    golden: dict, invariants: list, calls: list[Call], outcomes: dict
) -> tuple[int, list[str]]:
    """Failed operations of one batch pass, and why.

    `outcomes` maps each label to its report, or to the exception raised.
    A report that differs from its golden output fails all its instances;
    a broken invariant fails the whole pass.
    """
    failed = 0
    notes = []
    for call in calls:
        expected = expected_report(golden, call)
        got = outcomes[call.label]
        if isinstance(got, BaseException):
            failed += expected["total"]
            notes.append(f"{call.label}: raised {got!r}")
        elif got.to_json_dict() != expected:
            failed += max(got.total, expected["total"])
            notes.append(f"{call.label}: report differs from golden")
    broken = []
    for desc, labels, attr, want in invariants:
        reports = [outcomes[lb] for lb in labels]
        if any(isinstance(r, BaseException) for r in reports):
            broken.append(desc)
        elif sum(getattr(r, attr) for r in reports) != want:
            broken.append(desc)
    if broken:
        pass_total = sum(expected_report(golden, c)["total"] for c in calls)
        failed = max(failed, pass_total)
        notes.extend(f"invariant broken: {d}" for d in broken)
    return failed, notes


# -- query workload -----------------------------------------------------------------

COMMANDS = {
    "recognize": ["recognize", "--variant", "all"],
    "knot": ["knot"],
    "forbidden": ["forbidden"],
}

# The round mixes deterministic families with seeded draws from fixed pools.
# Only the deterministic families reach the p90 region, so the percentile does
# not hinge on which pool members a seed draws.
#
# Digon paths: `recognize` is quadratic (greedy elimination restarts its scan)
# and `forbidden` about cubic; forbidden stops at DP_FORBIDDEN_CAP, the
# largest size where one command still takes one to two seconds (it did not
# finish within 9 minutes at n=1000).
DP_SIZES = {"full": (60, 100, 200, 300, 400, 500), "tiny": (20, 40)}
DP_FORBIDDEN_CAP = 100
# Transitive tournaments: `knot` is quadratic in the degree.
TT_SIZES = {"full": (20, 30, 40, 50, 60, 70, 80), "tiny": (10,)}
# Locally semicomplete digraphs: at n=24 `forbidden` takes 0.3-0.7 s
# depending on the draw, so n=16 keeps them out of the p90 region.
LSC_N = 16
LSC_SLOTS = {"full": 4, "tiny": 1}
WQT_SLOTS = {"full": 4, "tiny": 1}
WQT_SHAPE = (3, 4)  # generate_wqt depth, width
WQT_ORDERS = (8, 20)  # pool keeps generator seeds whose output has this many vertices
# generate_wqt outputs and sparse random digraphs get no `forbidden`: its
# time swings with the draw (3-170 ms and 6-400 ms, depending on whether a
# pattern is found early), which moved query_ms_p50 by ~9% from seed to seed.
RND_SIZES = {"full": tuple(range(40, 201, 20)), "tiny": (40,)}
RND_WEIGHTS = (20, 1, 1, 1)  # none, forward, backward, digon
POOL = 16  # generator seeds per seeded family; goldens cover the whole pool
# verify_ordering is cubic in n: only re-check orderings up to this order
VERIFY_ORDERING_MAX_N = 64


def _digon_path(n: int):
    """Digon path through the odd labels descending, then the even labels
    ascending: both live ends carry the largest labels, so the greedy scan
    passes every interior vertex before each deletion."""
    from dichordal import build

    order = [v for v in range(n - 1, -1, -1) if v % 2] + list(range(0, n, 2))
    arcs = []
    for a, b in zip(order, order[1:]):
        arcs += [(a, b), (b, a)]
    return build(n, arcs)


def _transitive_tournament(n: int):
    from dichordal import build

    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wqt_pool() -> list[int]:
    """The first POOL generate_wqt seeds whose output order is in WQT_ORDERS."""
    from dichordal import generate_wqt

    lo, hi = WQT_ORDERS
    seeds = []
    s = 0
    while len(seeds) < POOL:
        if lo <= generate_wqt(s, *WQT_SHAPE).n <= hi:
            seeds.append(s)
        s += 1
    return seeds


def make_digraph(input_id: str):
    """Digraph for an input id such as `dp-300`, `lsc16-g5`, `wqt-g12`, `rnd80-g3`."""
    from dichordal import generate_locally_semicomplete, generate_wqt, random_digraph

    family, _, rest = input_id.partition("-")
    if family == "dp":
        return _digon_path(int(rest))
    if family == "tt":
        return _transitive_tournament(int(rest))
    gen = int(rest.removeprefix("g"))
    if family == f"lsc{LSC_N}":
        return generate_locally_semicomplete(gen, LSC_N)
    if family == "wqt":
        return generate_wqt(gen, *WQT_SHAPE)
    if family.startswith("rnd"):
        return random_digraph(int(family[3:]), RND_WEIGHTS, seed=gen)
    raise ValueError(f"unknown input id {input_id!r}")


def commands_for(input_id: str) -> list[str]:
    if input_id.startswith(("rnd", "wqt")) or (
        input_id.startswith("dp-") and int(input_id[3:]) > DP_FORBIDDEN_CAP
    ):
        return ["recognize", "knot"]
    return list(COMMANDS)


def query_inputs(seed: int, scale: str, wqt_seeds: list[int]) -> list[str]:
    """Input ids of one round: fixed deterministic families, plus seeded
    draws from each generated family's pool."""
    rng = random.Random(f"query:{seed}")
    ids = [f"dp-{n}" for n in DP_SIZES[scale]]
    ids += [f"tt-{n}" for n in TT_SIZES[scale]]
    ids += [f"lsc{LSC_N}-g{g}" for g in rng.sample(range(POOL), LSC_SLOTS[scale])]
    ids += [f"wqt-g{g}" for g in rng.sample(wqt_seeds, WQT_SLOTS[scale])]
    ids += [f"rnd{n}-g{rng.randrange(POOL)}" for n in RND_SIZES[scale]]
    return ids


def pool_inputs(wqt_seeds: list[int]) -> list[str]:
    """Every input id any seed can draw, at either scale."""
    ids = []
    for scale in SCALES:
        ids += [f"dp-{n}" for n in DP_SIZES[scale]]
        ids += [f"tt-{n}" for n in TT_SIZES[scale]]
        ids += [f"rnd{n}-g{g}" for n in RND_SIZES[scale] for g in range(POOL)]
    ids += [f"lsc{LSC_N}-g{g}" for g in range(POOL)]
    ids += [f"wqt-g{g}" for g in wqt_seeds]
    return sorted(set(ids))


@dataclass
class CommandResult:
    rc: object  # int exit code, or None when the command raised
    stdout: str
    start: float
    end: float
    error: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()[:32]


def run_command(main, argv: list[str]) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation, never re-raised
        rc, error = None, repr(exc)
    return CommandResult(rc, out.getvalue(), start, time.perf_counter(), error)


def gate_command(golden: dict, input_id: str, cmd: str, res: CommandResult) -> str:
    """Why a command failed, or '' when it matches its golden output."""
    if res.rc is None:
        return f"raised {res.error}"
    if res.rc not in (0, 1):
        return f"exit code {res.rc}"
    want = golden["commands"].get(input_id, {}).get(cmd)
    if want is None:
        return "no golden output"
    if [res.digest, res.rc] != want:
        return "output differs from golden"
    return ""


def independent_check(d, cmd: str, res: CommandResult) -> str:
    """Checks that do not rely on the golden file: certificates and counts
    re-derived from the digraph.  Returns why the output is wrong, or ''."""
    from dichordal.chordality import EliminationOrdering, Variant, verify_ordering

    lines = res.stdout.splitlines()
    if cmd == "recognize":
        verdicts = {}
        for i, line in enumerate(lines):
            variant, sep, verdict = line.partition(": ")
            if not sep or variant not in {v.value for v in Variant}:
                continue
            verdicts[variant] = verdict
            if verdict == "YES" and d.n <= VERIFY_ORDERING_MAX_N:
                order = tuple(int(x) for x in lines[i + 1].split()[1:])
                if not verify_ordering(d, EliminationOrdering(order, Variant(variant))):
                    return f"{variant} ordering fails verify_ordering"
        if len(verdicts) != 3:
            return "missing variant verdicts"
        if (res.rc == 0) != (verdicts["semi-strict"] == "YES"):
            return "exit code disagrees with the semi-strict verdict"
    elif cmd == "knot":
        edges = int(lines[-1].split(", ")[1].split()[0])
        if edges != d.arc_count:
            return f"knotting graph has {edges} edges for {d.arc_count} arcs"
    elif cmd == "forbidden":
        if (res.rc == 0) != (res.stdout == "none\n"):
            return "exit code disagrees with the pattern report"
    return ""


# -- workload state and passes ----------------------------------------------------------

WORKLOADS = ("exhaustive-wqt", "lsc-mixed", "cross-check", "query")


@dataclass
class PassResult:
    ops: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)  # (start, end) of each check call / command
    op_s: list = field(default_factory=list)  # their scaled seconds, set by the caller
    wall_s: float = 0.0
    totals: int = 0  # summed report totals
    filtered: int = 0  # summed report filtered counts
    theorem5_filtered: int = 0  # right-hand-side evaluations of theorem 5
    stdout_bytes: int = 0
    notes: list = field(default_factory=list)

    @property
    def raw_timed_s(self) -> float:
        return sum(end - start for start, end in self.spans)

    @property
    def timed_s(self) -> float:
        return sum(self.op_s)


class Workload:
    """One workload at one seed: set-up builds the inputs, `run_pass` times one pass."""

    def __init__(self, name: str, seed: int, scale: str, golden: dict, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.scale = scale
        self.golden = golden
        self.workdir = workdir
        self.calls: list[Call] = []
        self.round: list[tuple[str, str]] = []
        self.digraphs: dict = {}
        self.paths: dict[str, str] = {}
        self.first_outputs: dict[tuple[str, str], CommandResult] = {}

    def make_inputs(self) -> None:
        if self.name != "query":
            self.calls = batch_calls(self.name, self.seed, self.scale)
            self.invariants = batch_invariants(self.name, self.scale)
            return
        from dichordal import serialize

        self.workdir.mkdir(parents=True, exist_ok=True)
        for input_id in query_inputs(self.seed, self.scale, wqt_pool()):
            d = make_digraph(input_id)
            path = self.workdir / f"{input_id}.dg"
            path.write_text(serialize(d))
            self.digraphs[input_id] = d
            self.paths[input_id] = str(path)
            self.round += [(input_id, cmd) for cmd in commands_for(input_id)]
        random.Random(f"query-order:{self.seed}").shuffle(self.round)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        if self.name == "query":
            self._query_pass(index, tracer, res)
        else:
            self._batch_pass(index, tracer, res)
        res.wall_s = time.perf_counter() - start
        return res

    def _batch_pass(self, index: int, tracer, res: PassResult) -> None:
        from dichordal import verify

        outcomes = {}
        for i, call in enumerate(self.calls):
            fn = getattr(verify, call.check)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    report = fn(**call.kwargs)
                else:
                    with tracer.span("verify.check", f"{index}:{i}"):
                        report = fn(**call.kwargs)
            except Exception as exc:  # counted by the gate
                report = exc
            res.spans.append((t0, time.perf_counter()))
            outcomes[call.label] = report
            expected_total = expected_report(self.golden, call)["total"]
            if isinstance(report, BaseException):
                res.ops += expected_total
                continue
            res.ops += report.total
            res.totals += report.total
            res.filtered += report.filtered
            if call.check == "check_theorem5":
                res.theorem5_filtered += report.filtered
        res.failed, res.notes = gate_batch(self.golden, self.invariants, self.calls, outcomes)

    def _query_pass(self, index: int, tracer, res: PassResult) -> None:
        from dichordal import cli

        for i, (input_id, cmd) in enumerate(self.round):
            argv = COMMANDS[cmd] + [self.paths[input_id]]
            if tracer is None:
                out = run_command(cli.main, argv)
            else:
                with tracer.span("cli.main", f"{index}:{i}"):
                    out = run_command(cli.main, argv)
            res.ops += 1
            res.spans.append((out.start, out.end))
            res.stdout_bytes += len(out.stdout.encode())
            why = gate_command(self.golden, input_id, cmd, out)
            if why:
                res.failed += 1
                res.notes.append(f"{input_id} {cmd}: {why}")
            self.first_outputs.setdefault((input_id, cmd), out)

    def independent_failures(self) -> tuple[int, list[str]]:
        """Golden-free checks on the query outputs, outside the timed region."""
        failed, notes = 0, []
        for (input_id, cmd), out in sorted(self.first_outputs.items()):
            if out.rc not in (0, 1):
                continue  # already failed by the gate
            why = independent_check(self.digraphs[input_id], cmd, out)
            if why:
                failed += 1
                notes.append(f"{input_id} {cmd}: {why}")
        return failed, notes


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
