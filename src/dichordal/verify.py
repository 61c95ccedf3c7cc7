"""Exhaustive and randomized cross-validation of the characterization claims.

Every check enumerates (or samples) digraphs, evaluates two or more
independently computed sides, and reports counterexamples.  Instances are
numbered (pair-code index or sample number), so work splits into
contiguous ranges that merge associatively: reports are byte-identical for
any shard or worker count.  Wall time is kept out of the canonical
text/JSON output for the same reason.

One function, `_check`, splits each job into at most `shards` non-empty
ranges, runs them serially or in a process pool and merges the parts,
keeping the first ten counterexamples in order.  The table scans split
only between extension blocks, so a shard count above the number of
instances (or blocks) costs nothing extra.  A job runs one of two workers:

- `_object_scan` builds each digraph from an *instance source* (an index,
  a seeded index sample, the locally semicomplete generator tail, the
  deletion probe's random digraphs) and hands it to a *judge* that says
  whether its sides agree and gives their values: the four recognizers,
  the theorem-5 tail, the nesting chain, or the knotting deletion probe.
- `_table_scan` decides the exhaustive theorem-4 and theorem-5 scans by
  lookup in the hereditary tables of `tables`, over the indices that a
  class prefilter from `tables` (`wqt_mask`, `lsc_mask`) keeps; no
  Digraph is built except to print a counterexample.  Its one row source
  is `tables.block_chunks`.  Below order 4 it filters each index through
  the prefilter.  From order 4 only the extension blocks of the
  order-(n-1) members are expanded and clipped to [start, stop): the
  prefilter gives the whole order-(n-1) table once per process, and each
  block is decided from it by one row gather per deleted vertex.
  Ascending parents give ascending rows, so the counterexamples keep their
  index order for every shard and worker count.

Sources, judges and prefilters travel in a job as functions, read from
this module's bindings when the check is called, so a rebinding here (the
benchmark's tracer wraps `wqt_mask`, `is_chordal` and others) is what
runs, and a rebound prefilter gets its own order-(n-1) table.  For the
pool they pickle by reference; a closure needs `workers=1`.

The knotting deletion probe reads a vertex's splitting classes in D and
in D - v on D's own masks (`knotting._class_masks`), so it builds no
induced copy and no knotting graph.

The object path (is_chordal and the find_* detectors) is the route
independent of the tables; the test suite cross-checks every table and
prefilter against it at n <= 5.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .chordality import (
    Variant,
    _greedy,
    is_chordal,
    oracle_is_chordal,
    underlying_SD_is_chordal,
)
from .classes import generate_locally_semicomplete, is_symmetric
from .digraph import Digraph, bits, digraph_count, digraph_from_index, random_digraph, serialize
from .digraph import induced  # noqa: F401  -- perfbench's tracer binds this name
from .digraph import symmetric_subdigraph  # noqa: F401  -- perfbench's tracer binds this name
from .knotting import _class_masks, ss_chordal_via_knotting, theorem2_oracle
from .knotting import knotting_graph  # noqa: F401  -- perfbench's tracer binds this name
from .patterns import find_lollipop, find_nonsym_induced_dicycle
from .patterns import find_any_fig1  # noqa: F401  -- perfbench's tracer binds this name
from .tables import (
    TABLE_MAX_N,
    any_induced,
    block_chunks,
    block_size,
    containment_table,
    lsc_mask,
    semi_strict_table,
    symmetric_index,
    wqt_mask,
)

COUNTEREXAMPLE_RECORD_LIMIT = 10


@dataclass
class VerificationReport:
    name: str
    params: dict
    total: int
    filtered: int
    passed: int
    counterexamples: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    asserted: bool = True  # probes report without asserting

    @property
    def failures(self) -> int:
        return self.filtered - self.passed

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def status(self) -> str:
        return "PASS" if self.ok else ("FAIL" if self.asserted else "INFO")

    def to_json_dict(self, timing: bool = False) -> dict:
        out = {
            "check": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "total": self.total,
            "filtered": self.filtered,
            "passed": self.passed,
            "failures": self.failures,
            "counterexamples": self.counterexamples,
            "asserted": self.asserted,
            "status": self.status,
        }
        if timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(timing=timing), indent=2) + "\n"

    def to_text(self, timing: bool = False) -> str:
        lines = [
            f"check: {self.name}",
            "params: "
            + " ".join(f"{k}={self.params[k]}" for k in sorted(self.params)),
            f"instances: total={self.total} filtered={self.filtered} "
            f"passed={self.passed} failures={self.failures}",
        ]
        for cx in self.counterexamples:
            vals = " ".join(f"{k}={v}" for k, v in cx.items() if k != "digraph")
            lines.append(f"counterexample: {vals}")
            lines.extend("  " + ln for ln in cx["digraph"].strip().splitlines())
        if timing:
            lines.append(f"wall_time: {self.wall_time:.3f}s")
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"


def _split_range(total: int, shards: int, unit: int = 1) -> list[tuple[int, int]]:
    """Split [0, total) into at most `shards` non-empty contiguous ranges, as
    even as whole `unit`s allow: every boundary but the end is a multiple of
    `unit`.  So there are at most ceil(total / unit) ranges, whatever the
    shard count."""
    if shards < 1:
        raise ValueError("shard count must be positive")
    units = -(-total // unit)
    pieces = min(shards, units)
    base, extra = divmod(units, pieces) if pieces else (0, 0)
    ranges = []
    start = 0
    for s in range(pieces):
        stop = min(total, start + (base + (1 if s < extra else 0)) * unit)
        ranges.append((start, stop))
        start = stop
    return ranges


class Job(NamedTuple):
    """`worker(*args, start, stop)` over the instances [0, count), sharded in
    whole `unit`s: the table scans split only between extension blocks, so no
    two shards expand the same block (see `tables.block_size`)."""

    worker: Callable[..., tuple]
    args: tuple
    count: int
    unit: int = 1


def _pool_size(workers: int, shards: int) -> int:
    """Worker processes to start: at most one per shard and one per CPU."""
    if workers < 1:
        raise ValueError("worker count must be positive")
    return min(workers, shards, os.cpu_count() or 1)


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")


def _check(
    name: str, params: dict, jobs: list[Job], shards: int, workers: int, asserted: bool = True
) -> VerificationReport:
    """Run each job over at most `shards` non-empty contiguous ranges of its
    instances (`_split_range`); `worker(*args, start, stop)` returns (total,
    filtered, passed, counterexamples), merged in job and range order."""
    _check_samples(params.get("samples", 0))
    started = time.perf_counter()
    parts = [
        (job.worker, (*job.args, a, b))
        for job in jobs
        for a, b in _split_range(job.count, shards, job.unit)
    ]
    pool_size = _pool_size(workers, len(parts))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(worker, *args) for worker, args in parts]
            results = [f.result() for f in futures]
    else:
        results = [worker(*args) for worker, args in parts]
    cx = [c for r in results for c in r[3]]
    return VerificationReport(
        name=name,
        params=params,
        total=sum(r[0] for r in results),
        filtered=sum(r[1] for r in results),
        passed=sum(r[2] for r in results),
        counterexamples=cx[:COUNTEREXAMPLE_RECORD_LIMIT],
        wall_time=time.perf_counter() - started,
        asserted=asserted,
    )


# -- fast forbidden-pattern membership -------------------------------------------


def contains_fig1(d: Digraph) -> bool:
    """find_any_fig1(d) is not None, by lookup at every 4-subset (fig1
    members have 3 or 4 vertices).  It reads this module's binding of
    `containment_table`, as `_table_scan` does, so rebinding it reaches
    the theorem-5 tail too."""
    k = min(d.n, 4)
    return any_induced(containment_table("fig1", k), k, d)


def _theorem5_rhs_fast(d: Digraph) -> bool:
    """`patterns.theorem5_rhs(d)`, for the theorem-5 tail: the one deliberate
    twin of a public predicate, kept because the tail is most of a
    theorem-5 run.

    The symmetric part is decided by the greedy loop on the digon masks:
    they are the in-, out- and digon masks of `symmetric_subdigraph(d)`,
    so this is `is_chordal(symmetric_subdigraph(d), SEMI_STRICT)` without
    building it.  fig1 is looked up in the tables (`contains_fig1`).
    `patterns.theorem5_rhs` stays the independent object-path route; the
    tests compare the two.
    """
    sym = d.digon_masks
    return (
        not _greedy(sym, sym, sym)[1]
        and find_nonsym_induced_dicycle(d, 3) is None
        and not contains_fig1(d)
        and find_lollipop(d) is None
    )


# -- the two workers ----------------------------------------------------------------


def _object_scan(make: Callable, decide: Callable, args: tuple, start: int, stop: int) -> tuple:
    """Build instances start..stop-1 as `make(*args, i)` and judge each by
    `decide`.

    The judge returns one (agrees, side values) pair per unit it checks:
    one per digraph, except one per deleted vertex for the deletion probe.
    """
    total = passed = 0
    cx = []
    for i in range(start, stop):
        d = make(*args, i)
        for agrees, sides in decide(d):
            total += 1
            if agrees:
                passed += 1
            elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
                cx.append({**sides, "digraph": serialize(d)})
    return (total, total, passed, cx)


def _table_scan(
    keep: Callable, families: tuple[str, ...], with_n: bool, n: int, start: int, stop: int
) -> tuple:
    """Lookup-table scan of indices [start, stop) kept by the prefilter
    `keep`, read from its extension blocks: semi-strict chordal against
    (symmetric part semi-strict chordal and no induced member of any of
    `families`).

    Mismatches are recorded in index order; each record starts with the
    order n when `with_n` is set.
    """
    chordal = semi_strict_table(n)
    obstructed = [containment_table(f, n) for f in families]
    filtered = passed = 0
    cx = []
    for idx in block_chunks(keep, n, start, stop):
        lhs = chordal[idx]
        rhs = chordal[symmetric_index(idx)]
        for table in obstructed:
            rhs &= ~table[idx]
        bad = np.flatnonzero(lhs != rhs)
        filtered += idx.size
        passed += idx.size - bad.size
        for b in bad[: COUNTEREXAMPLE_RECORD_LIMIT - len(cx)]:
            sides = {
                "lhs": bool(lhs[b]),
                "rhs": bool(rhs[b]),
                "digraph": serialize(digraph_from_index(n, int(idx[b]))),
            }
            cx.append({"n": n, **sides} if with_n else sides)
    return (stop - start, filtered, passed, cx)


def _table_job(keep: Callable, families: tuple[str, ...], with_n: bool, n: int) -> Job:
    """A `_table_scan` over all order-n indices, sharded by extension block."""
    return Job(_table_scan, (keep, families, with_n, n), digraph_count(n), block_size(n))


# -- instance sources (the index source is digraph_from_index itself) --------------


def _sampled_index(n: int, seed: int, i: int) -> Digraph:
    return digraph_from_index(n, random.Random(f"{seed}:{i}").randrange(digraph_count(n)))


def _lsc_tail(sizes: range, seed: int, i: int) -> Digraph:
    return generate_locally_semicomplete(seed * 1_000_003 + i, sizes[i % len(sizes)])


def _probe_digraph(n: int, seed: int, i: int) -> Digraph:
    return random_digraph(2 + (i % max(1, n - 1)), (1, 1, 1, 1), seed=seed * 1_000_003 + i)


# -- judges -------------------------------------------------------------------------


def _judge_recognizers(d: Digraph) -> tuple:
    greedy = is_chordal(d, Variant.SEMI_STRICT)
    subset_oracle = oracle_is_chordal(d, Variant.SEMI_STRICT)
    knot_iter = ss_chordal_via_knotting(d)
    knot_oracle = theorem2_oracle(d)
    sides = {
        "greedy": greedy,
        "subset_oracle": subset_oracle,
        "knotting_iterative": knot_iter,
        "knotting_oracle": knot_oracle,
    }
    return ((greedy == subset_oracle == knot_iter == knot_oracle, sides),)


def _judge_theorem5_tail(d: Digraph) -> tuple:
    lhs = is_chordal(d, Variant.SEMI_STRICT)
    rhs = _theorem5_rhs_fast(d)
    return ((lhs == rhs, {"n": d.n, "lhs": lhs, "rhs": rhs}),)


def _judge_nesting(d: Digraph) -> tuple:
    strict = is_chordal(d, Variant.STRICT)
    semi = is_chordal(d, Variant.SEMI_STRICT)
    chordal = is_chordal(d, Variant.CHORDAL)
    ok = (not strict or semi) and (not semi or chordal)
    if ok and is_symmetric(d):
        ok = semi == underlying_SD_is_chordal(d)
    return ((ok, {"strict": strict, "semi_strict": semi, "chordal": chordal}),)


def _judge_deletion(d: Digraph) -> list:
    units = []
    for v in range(d.n):
        mismatch = _deletion_derived_mismatch(d, v)
        units.append((mismatch is None, {"deleted_vertex": v, "mismatch": mismatch}))
    return units


# -- checks -----------------------------------------------------------------------


def check_recognizer_equivalence(
    n: int, samples: Optional[int] = None, seed: int = 0, shards: int = 1, workers: int = 1
) -> VerificationReport:
    """Greedy elimination == subset oracle == knotting iteration == knotting oracle.

    Exhaustive for n <= 4, where a sample count is not used but must not
    be negative; n == 5 requires a sample count.
    """
    if samples is not None:
        _check_samples(samples)
    params = {"n": n, "seed": seed}
    if n <= 4:
        args = (digraph_from_index, _judge_recognizers, (n,))
        job = Job(_object_scan, args, digraph_count(n))
    elif n == 5:
        if samples is None:
            raise ValueError("n=5 exceeds the exhaustive cap; pass a sample count")
        params["samples"] = samples
        job = Job(_object_scan, (_sampled_index, _judge_recognizers, (n, seed)), samples)
    else:
        raise ValueError(f"recognizer equivalence capped at n=5, got n={n}")
    return _check("recognizer-equivalence", params, [job], shards, workers)


def check_theorem4(n: int, shards: int = 1, workers: int = 1) -> VerificationReport:
    """Over all weakly quasi-transitive digraphs on n vertices:
    semi-strict chordal == (symmetric part semi-strict chordal and no fig1)."""
    if n > TABLE_MAX_N:
        raise ValueError(f"theorem4 exhaustive check capped at n={TABLE_MAX_N}, got n={n}")
    job = _table_job(wqt_mask, ("fig1",), False, n)
    return _check("theorem4", {"n": n}, [job], shards, workers)


def check_theorem5(
    n_exhaustive: int = 5,
    n_random: int = 8,
    samples: int = 0,
    seed: int = 0,
    shards: int = 1,
    workers: int = 1,
) -> VerificationReport:
    """Over locally semicomplete digraphs: semi-strict chordal ==
    (symmetric part semi-strict chordal, no non-symmetric induced dicycle,
    no fig1, no lollipop).

    Exhaustive for sizes 1..n_exhaustive (0..TABLE_MAX_N), then `samples`
    generated instances at sizes n_exhaustive+1..n_random, cycling through
    them.
    Samples asked for with no size above n_exhaustive are a ValueError.
    """
    if not 0 <= n_exhaustive <= TABLE_MAX_N:
        raise ValueError(
            f"theorem5 exhaustive orders are 0..{TABLE_MAX_N}, got n_exhaustive={n_exhaustive}"
        )
    sizes = range(n_exhaustive + 1, n_random + 1)
    if samples > 0 and not sizes:
        raise ValueError(
            "theorem5 samples need n_random > n_exhaustive,"
            f" got n_random={n_random} and n_exhaustive={n_exhaustive}"
        )
    families = ("fig1", "dicycle", "lollipop")
    jobs = [
        _table_job(lsc_mask, families, True, size) for size in range(1, n_exhaustive + 1)
    ]
    if sizes:
        tail = (_lsc_tail, _judge_theorem5_tail, (sizes, seed))
        jobs.append(Job(_object_scan, tail, samples))
    params = {
        "n_exhaustive": n_exhaustive,
        "n_random": n_random,
        "samples": samples,
        "seed": seed,
    }
    return _check("theorem5", params, jobs, shards, workers)


def check_nesting(n: int, shards: int = 1, workers: int = 1) -> VerificationReport:
    """strict => semi-strict => chordal on all digraphs of order n; on
    symmetric digraphs, semi-strict chordality == underlying-graph chordality."""
    if n > 4:
        raise ValueError(f"nesting check capped at n=4, got n={n}")
    job = Job(_object_scan, (digraph_from_index, _judge_nesting, (n,)), digraph_count(n))
    return _check("nesting", {"n": n}, [job], shards, workers)


# -- knotting deletion probe -------------------------------------------------------


def _arc_classes(d: Digraph, u: int, alive: int) -> tuple[int, dict[tuple[int, int], int]]:
    """u's splitting classes in D[alive]: their number (an arcless vertex
    owns one empty class, as in `knot_classes`) and each arc's class index."""
    count, where = 0, {}
    for count, (cls_in, cls_out) in enumerate(_class_masks(d, u, alive), start=1):
        where.update({(x, u): count for x in bits(cls_in)})
        where.update({(u, y): count for y in bits(cls_out)})
    return max(count, 1), where


def _deletion_derived_mismatch(d: Digraph, v: int) -> Optional[str]:
    """Does deleting v's splitting vertices from K_D give K_{D-v}?

    Compared up to a group-respecting isomorphism keyed by the surviving
    arcs; stale member sets on the deletion side are ignored.  Returns a
    mismatch description, or None when the graphs agree.  Each vertex's
    classes are read on D's masks, in D and in D - v; class indices
    follow the smallest member arc in both, as relabelling D - v would.
    """
    full = (1 << d.n) - 1
    for u in range(d.n):
        if u == v:
            continue
        old_count, old = _arc_classes(d, u, full)
        new_count, new = _arc_classes(d, u, full & ~(1 << v))
        if old_count != new_count:
            return f"class count changes at vertex {u}"
        fwd: dict = {}
        rev: dict = {}
        for arc in sorted(new):  # u's surviving arcs, in d.arcs() order
            old_id, new_id = old[arc], new[arc]
            if fwd.setdefault(old_id, new_id) != new_id:
                return f"class of vertex {u} splits"
            if rev.setdefault(new_id, old_id) != old_id:
                return f"classes of vertex {u} merge"
    return None


def probe_knotting_deletion(
    n: int, samples: int, seed: int = 0, shards: int = 1, workers: int = 1
) -> VerificationReport:
    """Probe (not assert) whether deleting a vertex's splitting vertices from
    the knotting graph reproduces the recomputed knotting graph of D - v.

    Counterexamples here are findings, not failures; the report is
    informational.  The sampled digraphs have 2..n vertices, so n < 2 is
    a ValueError.
    """
    if n < 2:
        raise ValueError(f"knotting-deletion probe needs n >= 2, got n={n}")
    job = Job(_object_scan, (_probe_digraph, _judge_deletion, (n, seed)), samples)
    params = {"n": n, "samples": samples, "seed": seed}
    return _check("knotting-deletion-probe", params, [job], shards, workers, asserted=False)


CHECKS = {
    "recognizers": check_recognizer_equivalence,
    "theorem4": check_theorem4,
    "theorem5": check_theorem5,
    "nesting": check_nesting,
    "knotting-deletion": probe_knotting_deletion,
}
