"""Hereditary lookup tables over the base-4 pair-code index, orders n <= 5.

Entry i of an order-n table answers one question about
digraph_from_index(n, i).  Every question kept here is hereditary, and the
subdigraph induced on an ascending vertex set S is a fixed remap of the
base-4 digits, subset_index(n, S, i): runs of consecutive digits, since
S keeps the order of its pairs.  With del_v(i) the index of D - v, each
table is a vectorized recurrence over the table of order n-1, evaluated
by a row function rows(n, idx); `_table` builds it on first use, in
CHUNK-row pieces that bound the numpy temporaries, and it is cached:

  greedy semi-strict chordality   T_n[i] = OR_v simp_v(i) & T_{n-1}[del_v(i)]
  containment of a family F       C_n[i] = base_n(i) | OR_v C_{n-1}[del_v(i)]
  class membership, n >= 4        M_n[i] = AND_v M_{n-1}[del_v(i)]

simp_v says that v is semi-strict di-simplicial, and base_n marks every
labelling of a member of F on exactly n vertices.  The members come from
expand_template (or the plain k-cycle) under all n! relabellings, so the
containment tables share no code with the backtracking matcher
find_induced; the test suite cross-checks each table against its
object-path detector.  The classes (weakly quasi-transitive, locally
semicomplete) are decided on three vertices, as every violation is a
triple: M_k for k <= 3 comes from the object predicates, and every 3-set
of a larger digraph misses some v.  M_5 is not cached; scans evaluate
its rows per chunk from M_4.  A cached M_5 makes the exhaustive scans
about 8x faster, but the benchmark's peak memory grows with the number of
passes it runs, so that speed-up reads as a memory regression (see
ROADMAP, direction 5).
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .classes import is_locally_semicomplete, is_weakly_quasi_transitive
from .digraph import (
    Digraph,
    build,
    digraph_count,
    digraph_from_index,
    digraph_to_index,
    pair_slots,
    slot_index,
)
from .patterns import expand_template, fig1_templates, lollipop_template

CHUNK = 1 << 16
TABLE_MAX_N = 5  # order 6 has 4^15 rows
CLASS_TABLE_MAX_N = 4


def index_chunks(start: int, stop: int) -> Iterator[np.ndarray]:
    """The indices start..stop-1 as int64 arrays of at most CHUNK rows."""
    for lo in range(start, stop, CHUNK):
        yield np.arange(lo, min(lo + CHUNK, stop), dtype=np.int64)


def _table(n: int, rows) -> np.ndarray:
    """The read-only order-n table whose rows idx are rows(n, idx)."""
    if not 0 <= n <= TABLE_MAX_N:
        raise ValueError(f"lookup tables cover orders 0..{TABLE_MAX_N}, got n={n}")
    table = np.empty(digraph_count(n), dtype=bool)
    for idx in index_chunks(0, table.size):
        table[idx] = rows(n, idx)
    table.flags.writeable = False
    return table


# -- index remaps ---------------------------------------------------------------


@lru_cache(maxsize=4096)
def _subset_runs(n: int, keep: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Bit runs (old shift, new shift, mask) carrying the digits of D[keep]."""
    m, k = n * (n - 1) // 2, len(keep) * (len(keep) - 1) // 2
    runs: list[list[int]] = []  # [first old slot, first new slot, length]
    for s_new, (i, j) in enumerate(pair_slots(len(keep))):
        s_old = slot_index(keep[i], keep[j])
        if runs and runs[-1][0] + runs[-1][2] == s_old:
            runs[-1][2] += 1
        else:
            runs.append([s_old, s_new, 1])
    return tuple(
        (2 * (m - a - size), 2 * (k - b - size), (1 << 2 * size) - 1)
        for a, b, size in runs
    )


def subset_index(n: int, keep, idx):
    """Index of the induced subdigraph on the ascending vertices `keep`,
    for an order-n index `idx`: a Python int or an int64 array of them."""
    out = idx & 0  # 0, or zeros shaped like idx
    for old, new, mask in _subset_runs(n, tuple(keep)):
        out |= ((idx >> old) & mask) << new
    return out


def deleted_index(n: int, v: int, idx):
    """Order-(n-1) index of D - v for each order-n index in `idx`."""
    return subset_index(n, tuple(x for x in range(n) if x != v), idx)


_LOW_BITS = int("01" * 32, 2)


def symmetric_index(idx: np.ndarray) -> np.ndarray:
    """Index of the symmetric subdigraph: digon digits (3) kept, others 0."""
    digon = idx & (idx >> 1) & _LOW_BITS
    return digon | (digon << 1)


def any_induced(table: np.ndarray, k: int, d: Digraph) -> bool:
    """Is table[D[S]] true for some k-subset S of d's vertices?  `table`
    is an order-k table."""
    i = digraph_to_index(d)
    return any(table[subset_index(d.n, s, i)] for s in itertools.combinations(range(d.n), k))


# -- semi-strict chordality -------------------------------------------------------


def _arc_matrix(n: int, idx: np.ndarray) -> np.ndarray:
    """arc[x][y] boolean columns over the rows idx: is the arc x->y present.
    Slot 0 is the most significant base-4 digit."""
    m = n * (n - 1) // 2
    arc = np.zeros((n, n, idx.size), dtype=bool)
    for s, (i, j) in enumerate(pair_slots(n)):
        code = idx >> 2 * (m - 1 - s)
        arc[i][j] = code & 1
        arc[j][i] = code & 2
    return arc


def _semi_strict_simplicial(n: int, arc: np.ndarray, v: int) -> np.ndarray:
    """Is v semi-strict di-simplicial: every in-neighbour u and out-neighbour
    w != u of v joined by a digon."""
    ok = np.ones(arc.shape[2], dtype=bool)
    for u in range(n):
        if u == v:
            continue
        bad = np.zeros_like(ok)
        for w in range(n):
            if w not in (u, v):
                bad |= arc[v][w] & ~(arc[u][w] & arc[w][u])
        ok &= ~(arc[u][v] & bad)
    return ok


def _semi_strict_rows(n: int, idx: np.ndarray) -> np.ndarray:
    arc = _arc_matrix(n, idx)
    smaller = semi_strict_table(n - 1)
    acc = np.zeros(idx.size, dtype=bool)
    for v in range(n):
        acc |= _semi_strict_simplicial(n, arc, v) & smaller[deleted_index(n, v, idx)]
    return acc


@lru_cache(maxsize=None)
def semi_strict_table(n: int) -> np.ndarray:
    """T_n[i] == is_chordal(digraph_from_index(n, i), SEMI_STRICT)."""
    if n == 0:
        return np.ones(1, dtype=bool)
    return _table(n, _semi_strict_rows)


# -- obstruction families -----------------------------------------------------


def _members(family: str, k: int) -> list[Digraph]:
    """The members of an obstruction family on exactly k vertices."""
    if family == "fig1":
        return [d for t in fig1_templates() if t.k == k for d in expand_template(t)]
    if family == "dicycle":  # induced directed cycles of non-symmetric arcs
        return [build(k, [(i, (i + 1) % k) for i in range(k)])] if k >= 3 else []
    if family == "lollipop":
        return expand_template(lollipop_template(k - 4)) if k >= 5 else []
    raise ValueError(f"unknown obstruction family {family!r}")


@lru_cache(maxsize=None)
def _base(family: str, n: int) -> np.ndarray:
    """Indices of every relabelling of every member of `family` on exactly
    n vertices."""
    slots = pair_slots(n)
    base = set()
    for d, perm in itertools.product(_members(family, n), itertools.permutations(range(n))):
        index = 0
        for (a, b), c in zip(slots, d.codes):
            x, y = perm[a], perm[b]
            if x > y:  # the pair is stored the other way round: swap the arcs
                x, y, c = y, x, ((c & 1) << 1) | (c >> 1)
            index |= c << 2 * (len(slots) - 1 - slot_index(x, y))
        base.add(index)
    return np.fromiter(base, dtype=np.int64, count=len(base))


def _containment_rows(family: str, n: int, idx: np.ndarray) -> np.ndarray:
    acc = np.isin(idx, _base(family, n))
    smaller = containment_table(family, n - 1)
    for v in range(n):
        acc |= smaller[deleted_index(n, v, idx)]
    return acc


@lru_cache(maxsize=None)
def containment_table(family: str, n: int) -> np.ndarray:
    """C_n[i] == digraph_from_index(n, i) has an induced member of `family`."""
    if n == 0:
        return np.zeros(1, dtype=bool)
    return _table(n, partial(_containment_rows, family))


# -- class membership -------------------------------------------------------------


def _class_rows(member, n: int, idx: np.ndarray) -> np.ndarray:
    if n <= 3:
        return np.fromiter(
            (member(digraph_from_index(n, int(i))) for i in idx), dtype=bool, count=idx.size
        )
    ok = np.ones(idx.size, dtype=bool)
    for v in range(n):
        ok &= _class_mask(member, n - 1, deleted_index(n, v, idx))
    return ok


@lru_cache(maxsize=None)
def _class_table(member, n: int) -> np.ndarray:
    return _table(n, partial(_class_rows, member))


def _class_mask(member, n: int, idx: np.ndarray) -> np.ndarray:
    """member(digraph_from_index(n, i)) for each i in idx, from a cached
    table up to order CLASS_TABLE_MAX_N and evaluated above it."""
    if n > CLASS_TABLE_MAX_N:
        return _class_rows(member, n, idx)
    return _class_table(member, n)[idx]


def wqt_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Weak quasi-transitivity of digraph_from_index(n, i) for each i in idx."""
    return _class_mask(is_weakly_quasi_transitive, n, idx)


def lsc_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Local semicompleteness of digraph_from_index(n, i) for each i in idx."""
    return _class_mask(is_locally_semicomplete, n, idx)
