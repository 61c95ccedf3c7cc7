"""Exhaustive and randomized cross-validation of the characterization claims.

Every check enumerates (or samples) digraphs, evaluates two or more
independently computed sides, and reports counterexamples.  Instances are
identified by their base-4 pair-code index, so work splits into contiguous
index ranges: sharded runs scan the same instances in the same order and
merge associatively, which keeps reports byte-identical for any shard
count.  Wall time is tracked but excluded from the canonical text/JSON
output for the same reason.

The big class-filtered scans (weakly quasi-transitive / locally
semicomplete at n=5) use vectorized numpy prefilters; the prefilters are
cross-checked against the definitional predicates in the test suite.

The exhaustive theorem-4 and theorem-5 scans decide both sides by lookup
in the hereditary tables of `tables` (greedy semi-strict chordality and
containment of fig1, induced non-symmetric dicycles and lollipops), so
no Digraph object is built except to print a counterexample.  The object
path -- is_chordal and the find_* detectors -- stays the independent
route: it decides the generated theorem-5 tail and the recognizer check,
and the test suite cross-checks every table against it at n <= 5.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .chordality import Variant, is_chordal, oracle_is_chordal, underlying_SD_is_chordal
from .classes import generate_locally_semicomplete, is_symmetric
from .digraph import (
    Digraph,
    bits,
    digraph_count,
    digraph_from_index,
    induced,
    random_digraph,
    serialize,
    symmetric_subdigraph,
)
from .knotting import knotting_graph, ss_chordal_via_knotting, theorem2_oracle
from .patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle
from .tables import (
    CHUNK,
    _arc_matrix,
    _decode_codes,
    containment_table,
    semi_strict_table,
    symmetric_index,
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
            "status": "PASS" if self.ok else ("FAIL" if self.asserted else "INFO"),
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
        lines.append(
            "status: " + ("PASS" if self.ok else ("FAIL" if self.asserted else "INFO"))
        )
        return "\n".join(lines) + "\n"


def _split_range(total: int, shards: int) -> list[tuple[int, int]]:
    if shards < 1:
        raise ValueError("shard count must be positive")
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _pool_size(workers: int, shards: int) -> int:
    """Worker processes to start: at most one per shard and one per CPU."""
    if workers < 1:
        raise ValueError("worker count must be positive")
    return min(workers, shards, os.cpu_count() or 1)


def _run_shards(worker: Callable, args: list[tuple], workers: int) -> list[tuple]:
    workers = _pool_size(workers, len(args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, args))
    return [worker(a) for a in args]


def _merge(
    name: str,
    params: dict,
    parts: list[tuple[int, int, int, list[dict]]],
    started: float,
    asserted: bool = True,
) -> VerificationReport:
    total = sum(p[0] for p in parts)
    filtered = sum(p[1] for p in parts)
    passed = sum(p[2] for p in parts)
    cx: list[dict] = []
    for p in parts:
        cx.extend(p[3])
    return VerificationReport(
        name=name,
        params=params,
        total=total,
        filtered=filtered,
        passed=passed,
        counterexamples=cx[:COUNTEREXAMPLE_RECORD_LIMIT],
        wall_time=time.perf_counter() - started,
        asserted=asserted,
    )


# -- vectorized class prefilters ------------------------------------------------


def wqt_mask(n: int, codes: np.ndarray) -> np.ndarray:
    """Weakly-quasi-transitive membership for each code row."""
    arc = _arc_matrix(n, codes)
    ok = np.ones(codes.shape[0], dtype=bool)
    for v in range(n):
        others = [x for x in range(n) if x != v]
        cell = {x: arc[x][v].astype(np.uint8) | (arc[v][x].astype(np.uint8) << 1) for x in others}
        for a in range(len(others)):
            for b in range(a + 1, len(others)):
                u, w = others[a], others[b]
                viol = (
                    (cell[u] != 0)
                    & (cell[w] != 0)
                    & ~(arc[u][w] | arc[w][u])
                    & (cell[u] != cell[w])
                )
                ok &= ~viol
    return ok


def lsc_mask(n: int, codes: np.ndarray) -> np.ndarray:
    """Locally-semicomplete membership for each code row."""
    arc = _arc_matrix(n, codes)
    ok = np.ones(codes.shape[0], dtype=bool)
    for v in range(n):
        others = [x for x in range(n) if x != v]
        for a in range(len(others)):
            for b in range(a + 1, len(others)):
                u, w = others[a], others[b]
                nonadj = ~(arc[u][w] | arc[w][u])
                viol = (arc[u][v] & arc[w][v] & nonadj) | (
                    arc[v][u] & arc[v][w] & nonadj
                )
                ok &= ~viol
    return ok


# -- fast forbidden-pattern membership -------------------------------------------


def _quad_index(d: Digraph, quad: tuple[int, ...]) -> int:
    # quad is ascending, so stored codes apply without orientation flips
    idx = 0
    codes = d.codes
    for b in range(1, len(quad)):
        jbase = quad[b] * (quad[b] - 1) // 2
        for a in range(b):
            idx = (idx << 2) | codes[jbase + quad[a]]
    return idx


def contains_fig1(d: Digraph) -> bool:
    """Table-driven version of find_any_fig1(d) is not None."""
    if d.n < 3:
        return False
    if d.n == 3:
        return bool(containment_table("fig1", 3)[_quad_index(d, (0, 1, 2))])
    table = containment_table("fig1", 4)
    for a in range(d.n - 3):
        for b in range(a + 1, d.n - 2):
            for c in range(b + 1, d.n - 1):
                for e in range(c + 1, d.n):
                    if table[_quad_index(d, (a, b, c, e))]:
                        return True
    return False


def _theorem4_rhs_fast(d: Digraph) -> bool:
    return is_chordal(symmetric_subdigraph(d), Variant.SEMI_STRICT) and not contains_fig1(d)


def _theorem5_rhs_fast(d: Digraph) -> bool:
    return (
        is_chordal(symmetric_subdigraph(d), Variant.SEMI_STRICT)
        and find_nonsym_induced_dicycle(d, 3) is None
        and not contains_fig1(d)
        and find_lollipop(d) is None
    )


# -- checks -----------------------------------------------------------------------


def _scan_recognizers(args: tuple) -> tuple:
    n, start, stop = args
    passed = 0
    cx = []
    for i in range(start, stop):
        d = digraph_from_index(n, i)
        greedy = is_chordal(d, Variant.SEMI_STRICT)
        subset_oracle = oracle_is_chordal(d, Variant.SEMI_STRICT)
        knot_iter = ss_chordal_via_knotting(d)
        knot_oracle = theorem2_oracle(d)
        if greedy == subset_oracle == knot_iter == knot_oracle:
            passed += 1
        elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
            cx.append(
                {
                    "greedy": greedy,
                    "subset_oracle": subset_oracle,
                    "knotting_iterative": knot_iter,
                    "knotting_oracle": knot_oracle,
                    "digraph": serialize(d),
                }
            )
    return (stop - start, stop - start, passed, cx)


def _scan_recognizers_sampled(args: tuple) -> tuple:
    n, seed, start, stop = args
    count = digraph_count(n)
    passed = 0
    cx = []
    for i in range(start, stop):
        idx = random.Random(f"{seed}:{i}").randrange(count)
        d = digraph_from_index(n, idx)
        greedy = is_chordal(d, Variant.SEMI_STRICT)
        subset_oracle = oracle_is_chordal(d, Variant.SEMI_STRICT)
        knot_iter = ss_chordal_via_knotting(d)
        knot_oracle = theorem2_oracle(d)
        if greedy == subset_oracle == knot_iter == knot_oracle:
            passed += 1
        elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
            cx.append(
                {
                    "greedy": greedy,
                    "subset_oracle": subset_oracle,
                    "knotting_iterative": knot_iter,
                    "knotting_oracle": knot_oracle,
                    "digraph": serialize(d),
                }
            )
    return (stop - start, stop - start, passed, cx)


def check_recognizer_equivalence(
    n: int, samples: Optional[int] = None, seed: int = 0, shards: int = 1, workers: int = 1
) -> VerificationReport:
    """Greedy elimination == subset oracle == knotting iteration == knotting oracle.

    Exhaustive for n <= 4; n == 5 requires a sample count.
    """
    started = time.perf_counter()
    params = {"n": n, "seed": seed}
    if n <= 4:
        ranges = _split_range(digraph_count(n), shards)
        parts = _run_shards(_scan_recognizers, [(n, a, b) for a, b in ranges], workers)
    elif n == 5:
        if samples is None:
            raise ValueError("n=5 exceeds the exhaustive cap; pass a sample count")
        params["samples"] = samples
        ranges = _split_range(samples, shards)
        parts = _run_shards(
            _scan_recognizers_sampled, [(n, seed, a, b) for a, b in ranges], workers
        )
    else:
        raise ValueError(f"recognizer equivalence capped at n=5, got n={n}")
    return _merge("recognizer-equivalence", params, parts, started)


def _table_scan(
    n: int, start: int, stop: int, prefilter: Callable, families: tuple[str, ...]
) -> tuple[int, int, list[tuple[int, bool, bool]]]:
    """Lookup-table scan of indices [start, stop) kept by `prefilter`:
    semi-strict chordal against (symmetric part semi-strict chordal and no
    induced member of any of `families`).

    Returns the kept count, the agreeing count and the first mismatches in
    index order as (index, lhs, rhs).
    """
    chordal = semi_strict_table(n)
    obstructed = [containment_table(f, n) for f in families]
    filtered = passed = 0
    mismatches: list[tuple[int, bool, bool]] = []
    for lo in range(start, stop, CHUNK):
        hi = min(lo + CHUNK, stop)
        idx = lo + np.flatnonzero(prefilter(n, _decode_codes(n, lo, hi)))
        lhs = chordal[idx]
        rhs = chordal[symmetric_index(idx)]
        for table in obstructed:
            rhs &= ~table[idx]
        bad = np.flatnonzero(lhs != rhs)
        filtered += idx.size
        passed += idx.size - bad.size
        for b in bad[: COUNTEREXAMPLE_RECORD_LIMIT - len(mismatches)]:
            mismatches.append((int(idx[b]), bool(lhs[b]), bool(rhs[b])))
    return filtered, passed, mismatches


def _scan_theorem4(args: tuple) -> tuple:
    n, start, stop = args
    filtered, passed, bad = _table_scan(n, start, stop, wqt_mask, ("fig1",))
    cx = [
        {"lhs": lhs, "rhs": rhs, "digraph": serialize(digraph_from_index(n, i))}
        for i, lhs, rhs in bad
    ]
    return (stop - start, filtered, passed, cx)


def check_theorem4(n: int, shards: int = 1, workers: int = 1) -> VerificationReport:
    """Over all weakly quasi-transitive digraphs on n vertices:
    semi-strict chordal == (symmetric part semi-strict chordal and no fig1)."""
    if n > 5:
        raise ValueError(f"theorem4 exhaustive check capped at n=5, got n={n}")
    started = time.perf_counter()
    ranges = _split_range(digraph_count(n), shards)
    parts = _run_shards(_scan_theorem4, [(n, a, b) for a, b in ranges], workers)
    return _merge("theorem4", {"n": n}, parts, started)


def _scan_theorem5_exhaustive(args: tuple) -> tuple:
    n, start, stop = args
    filtered, passed, bad = _table_scan(
        n, start, stop, lsc_mask, ("fig1", "dicycle", "lollipop")
    )
    cx = [
        {"n": n, "lhs": lhs, "rhs": rhs, "digraph": serialize(digraph_from_index(n, i))}
        for i, lhs, rhs in bad
    ]
    return (stop - start, filtered, passed, cx)


def _scan_theorem5_random(args: tuple) -> tuple:
    sizes, seed, start, stop = args
    passed = 0
    cx = []
    for i in range(start, stop):
        size = sizes[i % len(sizes)]
        d = generate_locally_semicomplete(seed * 1_000_003 + i, size)
        lhs = is_chordal(d, Variant.SEMI_STRICT)
        rhs = _theorem5_rhs_fast(d)
        if lhs == rhs:
            passed += 1
        elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
            cx.append({"n": size, "lhs": lhs, "rhs": rhs, "digraph": serialize(d)})
    return (stop - start, stop - start, passed, cx)


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

    Exhaustive for sizes 1..n_exhaustive, then `samples` generated
    instances at sizes n_exhaustive+1..n_random.
    """
    if n_exhaustive > 5:
        raise ValueError(f"theorem5 exhaustive cap is n=5, got {n_exhaustive}")
    started = time.perf_counter()
    parts = []
    for size in range(1, n_exhaustive + 1):
        ranges = _split_range(digraph_count(size), shards)
        parts.extend(
            _run_shards(
                _scan_theorem5_exhaustive, [(size, a, b) for a, b in ranges], workers
            )
        )
    sizes = list(range(n_exhaustive + 1, n_random + 1))
    if samples and sizes:
        ranges = _split_range(samples, shards)
        parts.extend(
            _run_shards(
                _scan_theorem5_random, [(sizes, seed, a, b) for a, b in ranges], workers
            )
        )
    params = {
        "n_exhaustive": n_exhaustive,
        "n_random": n_random,
        "samples": samples,
        "seed": seed,
    }
    return _merge("theorem5", params, parts, started)


def _scan_nesting(args: tuple) -> tuple:
    n, start, stop = args
    passed = 0
    cx = []
    for i in range(start, stop):
        d = digraph_from_index(n, i)
        strict = is_chordal(d, Variant.STRICT)
        semi = is_chordal(d, Variant.SEMI_STRICT)
        chordal = is_chordal(d, Variant.CHORDAL)
        ok = (not strict or semi) and (not semi or chordal)
        if ok and is_symmetric(d):
            ok = semi == underlying_SD_is_chordal(d)
        if ok:
            passed += 1
        elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
            cx.append(
                {
                    "strict": strict,
                    "semi_strict": semi,
                    "chordal": chordal,
                    "digraph": serialize(d),
                }
            )
    return (stop - start, stop - start, passed, cx)


def check_nesting(n: int, shards: int = 1, workers: int = 1) -> VerificationReport:
    """strict => semi-strict => chordal on all digraphs of order n; on
    symmetric digraphs, semi-strict chordality == underlying-graph chordality."""
    if n > 4:
        raise ValueError(f"nesting check capped at n=4, got n={n}")
    started = time.perf_counter()
    ranges = _split_range(digraph_count(n), shards)
    parts = _run_shards(_scan_nesting, [(n, a, b) for a, b in ranges], workers)
    return _merge("nesting", {"n": n}, parts, started)


# -- knotting deletion probe -------------------------------------------------------


def _deletion_derived_mismatch(d: Digraph, v: int) -> Optional[str]:
    """Does deleting v's splitting vertices from K_D give K_{D-v}?

    Compared up to a group-respecting isomorphism keyed by the surviving
    arcs; stale member sets on the deletion side are ignored.  Returns a
    mismatch description, or None when the graphs agree.
    """
    k_old = knotting_graph(d)
    keep = [u for u in range(d.n) if u != v]
    relabel = {u: i for i, u in enumerate(keep)}
    h = induced(d, keep)
    k_new = knotting_graph(h)

    old_lookup = {}
    for cls in k_old.classes:
        for arc in cls.members:
            old_lookup[(cls.owner, arc)] = cls.id
    new_lookup = {}
    for cls in k_new.classes:
        for arc in cls.members:
            new_lookup[(cls.owner, arc)] = cls.id

    for u in keep:
        if len(k_old.group(u)) != len(k_new.group(relabel[u])):
            return f"class count changes at vertex {u}"
        fwd: dict = {}
        rev: dict = {}
        for x, y in d.arcs():
            if v in (x, y) or u not in (x, y):
                continue
            old_id = old_lookup[(u, (x, y))]
            new_id = new_lookup[(relabel[u], (relabel[x], relabel[y]))]
            if fwd.setdefault(old_id, new_id) != new_id:
                return f"class of vertex {u} splits"
            if rev.setdefault(new_id, old_id) != old_id:
                return f"classes of vertex {u} merge"
    return None


def _scan_deletion_probe(args: tuple) -> tuple:
    n, seed, start, stop = args
    checked = 0
    agreed = 0
    cx = []
    for i in range(start, stop):
        size = 2 + (i % max(1, n - 1))
        d = random_digraph(size, (1, 1, 1, 1), seed=seed * 1_000_003 + i)
        for v in range(size):
            checked += 1
            mismatch = _deletion_derived_mismatch(d, v)
            if mismatch is None:
                agreed += 1
            elif len(cx) < COUNTEREXAMPLE_RECORD_LIMIT:
                cx.append(
                    {
                        "deleted_vertex": v,
                        "mismatch": mismatch,
                        "digraph": serialize(d),
                    }
                )
    return (checked, checked, agreed, cx)


def probe_knotting_deletion(
    n: int, samples: int, seed: int = 0, shards: int = 1, workers: int = 1
) -> VerificationReport:
    """Probe (not assert) whether deleting a vertex's splitting vertices from
    the knotting graph reproduces the recomputed knotting graph of D - v.

    Counterexamples here are findings, not failures; the report is
    informational.
    """
    started = time.perf_counter()
    ranges = _split_range(samples, shards)
    parts = _run_shards(
        _scan_deletion_probe, [(n, seed, a, b) for a, b in ranges], workers
    )
    params = {"n": n, "samples": samples, "seed": seed}
    return _merge("knotting-deletion-probe", params, parts, started, asserted=False)


CHECKS = {
    "recognizers": check_recognizer_equivalence,
    "theorem4": check_theorem4,
    "theorem5": check_theorem5,
    "nesting": check_nesting,
    "knotting-deletion": probe_knotting_deletion,
}
