"""Hereditary lookup tables over the base-4 pair-code index, orders n <= 5.

Entry i of an order-n table answers one question about
digraph_from_index(n, i).  Every predicate kept here is hereditary, and
deleting vertex v from digraph i is a fixed remap of its base-4 digits,
del_v(i), so each table is a vectorized recurrence over the table of
order n-1:

  greedy semi-strict chordality   T_n[i] = OR_v simp_v(i) & T_{n-1}[del_v(i)]
  containment of a family F       C_n[i] = base_n(i) | OR_v C_{n-1}[del_v(i)]

simp_v says that v is semi-strict di-simplicial, and base_n marks every
labelling of a member of F on exactly n vertices.  The members come from
expand_template (or the plain k-cycle) under all n! relabellings, so the
containment tables share no code with the backtracking matcher
find_induced; the test suite cross-checks each table against its
object-path detector.

Tables are built on first use, cached per process, and computed in chunks
of CHUNK rows, which bounds the numpy temporaries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .digraph import Digraph, build, digraph_count, pair_slots, slot_index
from .patterns import expand_template, fig1_templates, lollipop_template

CHUNK = 1 << 16
TABLE_MAX_N = 5  # order 6 has 4^15 rows


def _decode_codes(n: int, start: int, stop: int) -> np.ndarray:
    """Pair-code matrix for digraph indices [start, stop); slot 0 is the
    most significant base-4 digit."""
    m = n * (n - 1) // 2
    idx = np.arange(start, stop, dtype=np.int64)
    codes = np.empty((idx.size, m), dtype=np.uint8)
    for s in range(m):
        codes[:, s] = (idx >> (2 * (m - 1 - s))) & 3
    return codes


def _arc_matrix(n: int, codes: np.ndarray) -> np.ndarray:
    """arc[x][y] boolean columns: is the arc x->y present."""
    arc = np.zeros((n, n, codes.shape[0]), dtype=bool)
    s = 0
    for j in range(1, n):
        for i in range(j):
            col = codes[:, s]
            arc[i][j] = (col & 1).astype(bool)
            arc[j][i] = (col & 2).astype(bool)
            s += 1
    return arc


@lru_cache(maxsize=None)
def _deletion_runs(n: int, v: int) -> tuple[tuple[int, int, int], ...]:
    """Bit runs (old shift, new shift, mask) carrying the digits of D - v.

    Deleting v keeps the enumeration order of the surviving pairs, so the
    digits of D - v are runs of consecutive digits of D.
    """
    m, m1 = n * (n - 1) // 2, (n - 1) * (n - 2) // 2
    runs: list[list[int]] = []  # [first old slot, first new slot, length]
    for s_new, (i, j) in enumerate(pair_slots(n - 1)):
        s_old = slot_index(i + (i >= v), j + (j >= v))
        if runs and runs[-1][0] + runs[-1][2] == s_old:
            runs[-1][2] += 1
        else:
            runs.append([s_old, s_new, 1])
    return tuple(
        (2 * (m - a - k), 2 * (m1 - b - k), (1 << 2 * k) - 1) for a, b, k in runs
    )


def deleted_index(n: int, v: int, idx: np.ndarray) -> np.ndarray:
    """Order-(n-1) index of D - v for each order-n index in `idx`."""
    out = np.zeros_like(idx)
    for old, new, mask in _deletion_runs(n, v):
        out |= ((idx >> old) & mask) << new
    return out


_LOW_BITS = int("01" * 32, 2)


def symmetric_index(idx: np.ndarray) -> np.ndarray:
    """Index of the symmetric subdigraph: digon digits (3) kept, others 0."""
    digon = idx & (idx >> 1) & _LOW_BITS
    return digon | (digon << 1)


def _check_order(n: int) -> None:
    if not 0 <= n <= TABLE_MAX_N:
        raise ValueError(f"lookup tables cover orders 0..{TABLE_MAX_N}, got n={n}")


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


@lru_cache(maxsize=None)
def semi_strict_table(n: int) -> np.ndarray:
    """T_n[i] == is_chordal(digraph_from_index(n, i), SEMI_STRICT)."""
    _check_order(n)
    if n == 0:
        return np.ones(1, dtype=bool)
    smaller = semi_strict_table(n - 1)
    count = digraph_count(n)
    table = np.zeros(count, dtype=bool)
    for lo in range(0, count, CHUNK):
        hi = min(lo + CHUNK, count)
        idx = np.arange(lo, hi, dtype=np.int64)
        arc = _arc_matrix(n, _decode_codes(n, lo, hi))
        acc = np.zeros(hi - lo, dtype=bool)
        for v in range(n):
            acc |= _semi_strict_simplicial(n, arc, v) & smaller[deleted_index(n, v, idx)]
        table[lo:hi] = acc
    table.flags.writeable = False
    return table


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


def _labelling_indices(d: Digraph) -> set[int]:
    """Indices of every relabelling of d."""
    slots = pair_slots(d.n)
    m = len(slots)
    out = set()
    for perm in itertools.permutations(range(d.n)):
        index = 0
        for (a, b), c in zip(slots, d.codes):
            x, y = perm[a], perm[b]
            if x > y:  # the pair is stored the other way round: swap the arcs
                x, y, c = y, x, ((c & 1) << 1) | (c >> 1)
            index |= c << 2 * (m - 1 - slot_index(x, y))
        out.add(index)
    return out


@lru_cache(maxsize=None)
def containment_table(family: str, n: int) -> np.ndarray:
    """C_n[i] == digraph_from_index(n, i) has an induced member of `family`."""
    _check_order(n)
    members = _members(family, n)
    if n == 0:
        return np.zeros(1, dtype=bool)
    smaller = containment_table(family, n - 1)
    count = digraph_count(n)
    table = np.zeros(count, dtype=bool)
    for lo in range(0, count, CHUNK):
        hi = min(lo + CHUNK, count)
        idx = np.arange(lo, hi, dtype=np.int64)
        acc = np.zeros(hi - lo, dtype=bool)
        for v in range(n):
            acc |= smaller[deleted_index(n, v, idx)]
        table[lo:hi] = acc
    base = set().union(*map(_labelling_indices, members))
    table[np.fromiter(base, dtype=np.int64, count=len(base))] = True
    table.flags.writeable = False
    return table
