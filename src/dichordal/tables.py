"""Hereditary lookup tables over the base-4 pair-code index, orders n <= 5.

Entry i of an order-n table answers one question about
digraph_from_index(n, i).  Every question kept here is hereditary, and the
subdigraph induced on an ascending vertex set S is a fixed remap of the
base-4 digits, subset_index(n, S, i): runs of consecutive digits, since
S keeps the order of its pairs.  From a Digraph d the same index is
digraph_to_index(d, S), the one pair-code encoder in `digraph`;
subset_index serves the vectorized remaps of whole index arrays.  With
del_v(i) the index of D - v, each table is a vectorized recurrence over
the table of order n-1, built on first use and cached:

  greedy semi-strict chordality   T_n[i] = OR_v simp_v(i) & T_{n-1}[del_v(i)]
  containment of a family F       C_n[i] = base_n(i) | OR_v C_{n-1}[del_v(i)]
  class membership, n >= 4        M_n[i] = AND_v M_{n-1}[del_v(i)]

simp_v says that v is semi-strict di-simplicial, and base_n marks every
labelling of a member of F on exactly n vertices.  The members come from
expand_template (or the plain k-cycle) under all n! relabellings, each
written as digraph_to_index(member, perm), so the containment tables
share no code with the backtracking matcher
find_induced; the test suite cross-checks each table against its
object-path detector.  The classes (weakly quasi-transitive, locally
semicomplete) are decided on three vertices, as every violation is a
triple: M_k for k <= 3 comes from the object predicates, and every 3-set
of a larger digraph misses some v.  M is built by its row function
`_class_rows` in CHUNK-row pieces (`_table`) and, like T and C, stops at
order TABLE_MAX_N: `wqt_mask` and `lsc_mask` read the cached table and
refuse a higher order.  `_class_rows` is the per-index route that the
tests check the block rule below against, also at order TABLE_MAX_N + 1,
where it reads the order-TABLE_MAX_N table.

Extension blocks.  The pairs of the last vertex are the last slots, the
low 2(n-1) bits of an index, so the one-vertex extensions of order-(n-1)
digraph p fill the block p*4^(n-1) .. (p+1)*4^(n-1) - 1.  Row o of p's
block is the digraph P+o, and for v < n-1

  index of (P+o) - v  =  deleted_index(n-1, v, p) << 2(n-2) | R_v[o],

where R_v[o] = deleted_index(n, v, o) drops v's digit from the last
vertex's digits.  So for any order-(n-1) table X, with the extension
views E_v = X.reshape(-1, 4^(n-2))[:, R_v] (`_extensions`), X at every
D - v of p's block is the row E_v[deleted_index(n-1, v, p)]: one
contiguous row gather per deleted vertex (at n=5, four 64x256 tables).
The deletion of v = n-1 is the parent itself, X[p].  One block engine
runs all three recurrences on these views:

  T  OR_{v<n-1} simp_v & E_v[..] | simp_{n-1} & T_{n-1}[p], with simp_v
     split into a part of P alone and a part of the last vertex, each a
     row gather too (`_semi_strict_block`);
  C  C_{n-1}[p] | OR_{v<n-1} E_v[..], and base_n scattered into the
     blocks that hold its members (`_containment_block`);
  M  AND_{v<n-1} E_v[..] over the member parents only (`block_chunks`).

The T and C builders take an explicit ascending parents array, so they
also evaluate pieces of order TABLE_MAX_N + 1, which no table holds; each
call builds the order-(n-1) views, 21 MB at n=6.  The tables up to
TABLE_MAX_N are built in one piece, a few 4^(n(n-1)/2)-byte buffers: at
n=5 about 3 MB at once, freed after the build (see `_block_table` for
why one piece).

The exhaustive scans read their rows from `block_chunks`, a range of
extension blocks at a time, named by their order-(n-1) parents.  Orders
below 4 have at most 64 indices, and `block_chunks` filters each of them
through the prefilter.  From order 4 it reads only extension blocks.  A
hereditary class keeps D - (n-1) of each member, so only the blocks of
the order-(n-1) members are expanded (at n=5, 1,246 weakly
quasi-transitive blocks: 318,976 rows instead of 4^10), and a whole block
is decided by M's recurrence above.  M is built through the prefilter.
For each (prefilter, order), four entries at most, `_block_rule` caches
M's views, the ascending members of M and their deletion rows
deleted_index(n-1, v, p), one per v < n-1 and member p.  So a warm scan
remaps no index: each E_v gather reads a slice of the cached rows.  An
entry takes about 110 KB at n=5 (64 KB of views, 40 KB of deletion
rows) and 25 MB at n=6 (21 MB of views, 3.3 MB of deletion rows for the
82,012 wqt members; never rows for all 4^10 order-5 indices).  Only the
rows the rule keeps get an index (82,012 of the 318,976 at n=5), three
int64 ops from their position in the piece.  A range of rows is a range
of whole blocks, given by its parents, so nothing is clipped.  The
parents ascend and their blocks are disjoint and ascending, so the rows
come out in ascending index order, exactly as filtering every index of
the blocks would give them.
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


def index_chunks(start: int, stop: int) -> Iterator[np.ndarray]:
    """The indices start..stop-1 as int64 arrays of at most CHUNK rows."""
    for lo in range(start, stop, CHUNK):
        yield np.arange(lo, min(lo + CHUNK, stop), dtype=np.int64)


def block_size(n: int) -> int:
    """Rows in one extension block of order n: 4^(n-1), or the one row at n=0."""
    return 4 ** (n - 1) if n else 1


def block_chunks(keep, n: int, first: int, last: int) -> Iterator[np.ndarray]:
    """The order-n indices that keep(n, idx) keeps in the extension blocks
    of the order-(n-1) parents first..last-1, in ascending order, for a
    `keep` decided on triples.  Below order 4 every index of those blocks
    is filtered through keep(n, idx); from order 4 the rows are read from
    the blocks of the parents that keep(n-1, .) keeps and decided by the
    block rule (see the module docstring).  One searchsorted finds the
    cached member parents in [first, last); they are walked in pieces of
    CHUNK // 4^(n-1) blocks, and each E_v gather reads a slice of their
    cached deletion rows.  For n up to TABLE_MAX_N + 1, as the rule reads
    the whole order-(n-1) table; every array yielded or handed to `keep`
    has at most CHUNK rows."""
    size = block_size(n)
    if n < 4:  # the block rule starts at order 4; below it are at most 64 indices
        idx = np.arange(first * size, last * size, dtype=np.int64)
        yield idx[keep(n, idx)]
        return
    shift = 2 * (n - 1)  # size == 1 << shift
    per_chunk = CHUNK // size
    parents, deletions, extensions = _block_rule(keep, n)
    start, stop = np.searchsorted(parents, (first, last))  # the member parents in range
    for lo in range(start, stop, per_chunk):
        hi = min(lo + per_chunk, stop)
        # the block rule: one row gather per deleted vertex
        ok = extensions[0][deletions[0, lo:hi]]
        for v in range(1, n - 1):
            ok &= extensions[v][deletions[v, lo:hi]]
        # only the kept rows get an index: position k of the flattened
        # blocks is in the block of the piece's parent j = k >> shift, so
        # its index is k + (block[j] - j) * size
        block = parents[lo:hi]
        k = np.flatnonzero(ok)
        yield k + ((block - np.arange(block.size)) << shift)[k >> shift]


@lru_cache(maxsize=4)
def _block_rule(keep, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only inputs of `block_chunks`' rule at order n, from the
    order-(n-1) table M of `keep`, built through keep(n-1, .): the
    ascending members of M, their deletion rows (row v is
    deleted_index(n-1, v, members), v < n-1) and M's extension views
    `_extensions(M, n)`."""
    members = _table(n - 1, keep)
    parents = np.flatnonzero(members)
    deletions = np.stack([deleted_index(n - 1, v, parents) for v in range(n - 1)])
    rule = (parents, deletions, _extensions(members, n))
    for array in rule:
        array.flags.writeable = False
    return rule


def _extensions(table: np.ndarray, n: int) -> np.ndarray:
    """E[v] = table.reshape(-1, 4^(n-2))[:, R_v] for each v < n-1, for an
    order-(n-1) table, where R_v drops v's digit from the last vertex's
    digits: row deleted_index(n-1, v, p) of E[v] holds the table's entry
    for D - v of every row D of parent p's block."""
    offsets = np.arange(block_size(n), dtype=np.int64)
    rows = table.reshape(-1, block_size(n - 1))
    # C order: a row of E[v] is one block, gathered as one contiguous run
    extensions = np.empty((n - 1, rows.shape[0], offsets.size), dtype=bool)
    for v in range(n - 1):
        extensions[v] = rows[:, deleted_index(n, v, offsets)]
    return extensions


def _table(n: int, rows) -> np.ndarray:
    """The read-only order-n table whose rows idx are rows(n, idx)."""
    _check_order(n)
    table = np.empty(digraph_count(n), dtype=bool)
    for idx in index_chunks(0, table.size):
        table[idx] = rows(n, idx)
    table.flags.writeable = False
    return table


def _block_table(n: int, blocks) -> np.ndarray:
    """The read-only order-n table, n >= 1, whose extension blocks are
    blocks(n, parents), built in one piece over every parent.

    One piece keeps warm scans free of page faults: at n=5 it frees 1 MB
    buffers, and glibc then raises its dynamic mmap threshold above the
    int64 kept-row arrays of a scan chunk (up to about 160 KB at n=5,
    over the 128 KB default), which so come from the heap.  Built in
    CHUNK-row pieces, nothing that large is freed, and those arrays are
    mapped and faulted in afresh on every warm pass."""
    _check_order(n)
    table = blocks(n, np.arange(digraph_count(n - 1), dtype=np.int64)).ravel()
    table.flags.writeable = False
    return table


def _check_order(n: int) -> None:
    if not 0 <= n <= TABLE_MAX_N:
        raise ValueError(f"lookup tables cover orders 0..{TABLE_MAX_N}, got n={n}")


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


# -- semi-strict chordality -------------------------------------------------------


def _masks(n: int, idx: np.ndarray) -> tuple[list, list]:
    """out[x] and inn[x], x < n: the out- and in-neighbour bitmasks of
    vertex x in digraph_from_index(n, i) for each i in idx."""
    m = n * (n - 1) // 2
    out, inn = [idx & 0 for _ in range(n)], [idx & 0 for _ in range(n)]
    for s, (i, j) in enumerate(pair_slots(n)):
        code = idx >> 2 * (m - 1 - s)
        ij, ji = code & 1, code >> 1 & 1
        out[i] |= ij << j
        inn[j] |= ij << i
        out[j] |= ji << i
        inn[i] |= ji << j
    return out, inn


def _not_simplicial(out: list, inn: list, v: int) -> np.ndarray:
    """Rows where v is not semi-strict di-simplicial: some in-neighbour u
    and out-neighbour w != u of v are not joined by a digon."""
    bad = np.zeros(np.shape(out[v]), dtype=bool)
    for u in range(len(out)):
        if u != v:
            bad |= ((inn[v] >> u & 1) != 0) & ((out[v] & ~(out[u] & inn[u] | 1 << u)) != 0)
    return bad


def _semi_strict_block(n: int, parents: np.ndarray) -> np.ndarray:
    """T_n over the extension blocks of the order-(n-1) indices `parents`:
    row k is T_n[parents[k]*4^(n-1) : (parents[k]+1)*4^(n-1)].

    With L = n-1 the last vertex, each D = P+o of a block satisfies
    T_n[D] = OR_{v<L} simp_v(D) & E[v][deleted_index(n-1, v, p)][o]
             | simp_L(D) & T_{n-1}[p].
    simp_v(D) for v < L holds when v is simplicial in P and neither
    L -> v -> w nor u -> v -> L has a w or u that is not digon-joined to L.
    simp_L(D) holds when no in-neighbour u of L sees an out-neighbour
    w != u of L that is not digon-joined to u in P.  Each such test asks
    about one bitmask m of P's vertices and the last vertex's digits o,
    and is read from a 2^(n-1) x 4^(n-1) table, one row per parent."""
    last = n - 1
    before = semi_strict_table(n - 1)
    extensions = _extensions(before, n)
    out, inn = _masks(last, parents)
    offsets = np.arange(block_size(n), dtype=np.int64)
    out_o, inn_o = _masks(n, offsets)  # only the pairs at L are set
    subsets = np.arange(1 << last, dtype=np.int64)[:, None]
    loose = (subsets & ~(out_o[last] & inn_o[last])) != 0  # m holds a vertex not digon-joined to L
    reach = (subsets & out_o[last]) != 0  # L has an out-neighbour in m
    to_last = [(inn_o[last] >> x & 1) != 0 for x in range(last)]  # x -> L, per o
    from_last = [(out_o[last] >> x & 1) != 0 for x in range(last)]  # L -> x
    acc = np.zeros((parents.size, offsets.size), dtype=bool)
    row, part = np.empty_like(acc), np.empty_like(acc)
    for v in range(last):
        _gather(extensions[v], deleted_index(n - 1, v, parents), row)
        row &= ~_not_simplicial(out, inn, v)[:, None]
        row &= _gather(~(loose & from_last[v]), out[v], part)  # L -> v -> w
        row &= _gather(~(loose & to_last[v]), inn[v], part)  # u -> v -> L
        acc |= row
    full = (1 << last) - 1
    row[:] = before[parents][:, None]
    for u in range(last):  # u -> L -> w
        row &= _gather(~(reach & to_last[u]), full & ~(out[u] & inn[u] | 1 << u), part)
    acc |= row
    return acc


def _gather(table: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = table[idx[k]], written in place.  The indices are in range;
    mode="clip" only keeps numpy from copying through a buffer."""
    return np.take(table, idx, axis=0, out=out, mode="clip")


@lru_cache(maxsize=None)
def semi_strict_table(n: int) -> np.ndarray:
    """T_n[i] == is_chordal(digraph_from_index(n, i), SEMI_STRICT)."""
    if n == 0:
        return np.ones(1, dtype=bool)
    return _block_table(n, _semi_strict_block)


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
    perms = list(itertools.permutations(range(n)))
    base = {digraph_to_index(d, perm) for d in _members(family, n) for perm in perms}
    return np.fromiter(base, dtype=np.int64, count=len(base))


def _containment_block(family: str, n: int, parents: np.ndarray) -> np.ndarray:
    """C_n over the extension blocks of the ascending order-(n-1) indices
    `parents`, as in `_semi_strict_block`: C_{n-1}[p] | OR_{v<n-1}
    E[v][deleted_index(n-1, v, p)], then the base members in those blocks."""
    size = block_size(n)
    before = containment_table(family, n - 1)
    extensions = _extensions(before, n)
    acc = np.repeat(before[parents][:, None], size, axis=1)
    row = np.empty_like(acc)
    for v in range(n - 1):
        acc |= _gather(extensions[v], deleted_index(n - 1, v, parents), row)
    base = _base(family, n)
    owner = base // size
    hit = np.isin(owner, parents)  # over the base members, not the rows
    acc[np.searchsorted(parents, owner[hit]), base[hit] % size] = True
    return acc


@lru_cache(maxsize=None)
def containment_table(family: str, n: int) -> np.ndarray:
    """C_n[i] == digraph_from_index(n, i) has an induced member of `family`."""
    if n == 0:
        return np.zeros(1, dtype=bool)
    return _block_table(n, partial(_containment_block, family))


# -- class membership -------------------------------------------------------------


def _class_rows(member, n: int, idx: np.ndarray) -> np.ndarray:
    if n <= 3:
        return np.fromiter(
            (member(digraph_from_index(n, int(i))) for i in idx), dtype=bool, count=idx.size
        )
    ok = np.ones(idx.size, dtype=bool)
    for v in range(n):
        ok &= _class_table(member, n - 1)[deleted_index(n, v, idx)]
    return ok


@lru_cache(maxsize=None)
def _class_table(member, n: int) -> np.ndarray:
    return _table(n, partial(_class_rows, member))


def wqt_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Weak quasi-transitivity of digraph_from_index(n, i) for each i in idx."""
    return _class_table(is_weakly_quasi_transitive, n)[idx]


def lsc_mask(n: int, idx: np.ndarray) -> np.ndarray:
    """Local semicompleteness of digraph_from_index(n, i) for each i in idx."""
    return _class_table(is_locally_semicomplete, n)[idx]
