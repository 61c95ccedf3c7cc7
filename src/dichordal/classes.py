"""Membership predicates for digraph classes, plus test-instance generators.

The classes: semicomplete (all pairs adjacent), locally semicomplete
(every in- and out-neighbourhood induces a semicomplete subdigraph),
weakly quasi-transitive (asynchronous neighbours of a vertex are always
adjacent), quasi-transitive (u->v->w forces u,w adjacent), extended
semicomplete (a semicomplete digraph with vertices blown up into
independent sets), plus the structural flags symmetric / oriented /
transitive oriented.

Weakly quasi-transitive digraphs are exactly the closure of transitive
oriented graphs, semicomplete digraphs and symmetric digraphs under
substitution; generate_wqt builds random members of that closure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .digraph import (
    MAX_VERTICES,
    Digraph,
    _from_masks,
    bits,
    check_vertex_count,
    from_out_masks,
    substitute,
)
from .digraph import build  # noqa: F401  -- perfbench's tracer binds this name


def _side_violation(side: int, out, inn) -> Optional[tuple[int, int]]:
    # smallest (x, y), x < y, of non-adjacent vertices in the mask `side`
    while side:
        low = side & -side
        side ^= low  # now exactly the members above x
        x = low.bit_length() - 1
        ys = side & ~(out[x] | inn[x])
        if ys:
            return x, (ys & -ys).bit_length() - 1
    return None


def _semicomplete_violation(d: Digraph) -> Optional[tuple[int, int]]:
    return _side_violation((1 << d.n) - 1, d.out_masks, d.in_masks)


def is_semicomplete(d: Digraph) -> bool:
    return _semicomplete_violation(d) is None


def _locally_semicomplete_violation(d: Digraph) -> Optional[tuple[int, int, int]]:
    # (v, x, y): x and y lie in one of v's one-sided neighbourhoods, non-adjacent
    out, inn = d.out_masks, d.in_masks
    for v in range(d.n):
        bad = _side_violation(inn[v], out, inn) or _side_violation(out[v], out, inn)
        if bad is not None:
            return (v, *bad)
    return None


def is_locally_semicomplete(d: Digraph) -> bool:
    return _locally_semicomplete_violation(d) is None


def _wqt_violation(d: Digraph) -> Optional[tuple[int, int, int]]:
    # (u, v, w): u and w are asynchronous neighbours of v yet non-adjacent
    for v in range(d.n):
        nb = list(bits(d.neighbor_mask(v)))
        for i, u in enumerate(nb):
            cu = (d.has_arc(u, v), d.has_arc(v, u))
            for w in nb[i + 1 :]:
                if d.adjacent(u, w):
                    continue
                if cu != (d.has_arc(w, v), d.has_arc(v, w)):
                    return (u, v, w)
    return None


def is_weakly_quasi_transitive(d: Digraph) -> bool:
    return _wqt_violation(d) is None


def _qt_violation(d: Digraph) -> Optional[tuple[int, int, int]]:
    for v in range(d.n):
        for u in bits(d.in_masks[v]):
            for w in bits(d.out_masks[v]):
                if u != w and not d.adjacent(u, w):
                    return (u, v, w)
    return None


def is_quasi_transitive(d: Digraph) -> bool:
    return _qt_violation(d) is None


def _ext_semicomplete_violation(d: Digraph) -> Optional[tuple[int, int]]:
    # quotient by "non-adjacent with identical neighbourhoods"; the digraph is
    # extended semicomplete iff every non-adjacent pair is equivalent
    for v in range(d.n):
        for w in range(v + 1, d.n):
            if d.adjacent(v, w):
                continue
            if (
                d.in_masks[v] != d.in_masks[w]
                or d.out_masks[v] != d.out_masks[w]
            ):
                return (v, w)
    return None


def is_extended_semicomplete(d: Digraph) -> bool:
    return _ext_semicomplete_violation(d) is None


def _first_pair(masks) -> Optional[tuple[int, int]]:
    # first pair (i, j), i < j, in slot order with i in masks[j]
    for j, mask in enumerate(masks):
        below = mask & ((1 << j) - 1)
        if below:
            return ((below & -below).bit_length() - 1, j)
    return None


def _symmetric_violation(d: Digraph) -> Optional[tuple[int, int]]:
    return _first_pair(o ^ i for o, i in zip(d.out_masks, d.in_masks))


def _oriented_violation(d: Digraph) -> Optional[tuple[int, int]]:
    return _first_pair(d.digon_masks)


def _transitive_oriented_violation(d: Digraph):
    digon = _oriented_violation(d)
    if digon is not None:
        return digon
    for u in range(d.n):
        for v in bits(d.out_masks[u]):
            missing = d.out_masks[v] & ~d.out_masks[u] & ~(1 << u)
            if missing:
                return (u, v, (missing & -missing).bit_length() - 1)
    return None


def is_symmetric(d: Digraph) -> bool:
    return _symmetric_violation(d) is None


def is_oriented(d: Digraph) -> bool:
    return _oriented_violation(d) is None


def is_transitive_oriented(d: Digraph) -> bool:
    return _transitive_oriented_violation(d) is None


_FLAG_CHECKS = {
    "semicomplete": _semicomplete_violation,
    "locally_semicomplete": _locally_semicomplete_violation,
    "weakly_quasi_transitive": _wqt_violation,
    "quasi_transitive": _qt_violation,
    "extended_semicomplete": _ext_semicomplete_violation,
    "symmetric": _symmetric_violation,
    "oriented": _oriented_violation,
    "transitive_oriented": _transitive_oriented_violation,
}


@dataclass
class ClassReport:
    flags: dict[str, bool]
    witnesses: dict[str, tuple] = field(default_factory=dict)


def classify(d: Digraph) -> ClassReport:
    """All class flags at once, with a violating tuple for each failed one."""
    flags = {}
    witnesses = {}
    for name, check in _FLAG_CHECKS.items():
        bad = check(d)
        flags[name] = bad is None
        if bad is not None:
            witnesses[name] = bad
    return ClassReport(flags=flags, witnesses=witnesses)


# -- generators ------------------------------------------------------------------


def _random_transitive_oriented(rng: random.Random, n: int) -> Digraph:
    # reachability closure of a random DAG on the identity order
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                reach[i] |= (1 << j) | reach[j]
    return from_out_masks(reach)


def _random_semicomplete(rng: random.Random, n: int) -> Digraph:
    # one randrange(3) per pair in slot order: 0 -> i->j, 1 -> j->i, 2 -> digon;
    # drawn as randrange draws it, getrandbits(2) until below 3
    getrandbits = rng.getrandbits
    codes = []
    for _ in range(n * (n - 1) // 2):
        k = getrandbits(2)
        while k == 3:
            k = getrandbits(2)
        codes.append(k + 1)
    return Digraph(n, codes)


def _random_symmetric(rng: random.Random, n: int) -> Digraph:
    return Digraph(n, [3 if rng.random() < 0.5 else 0 for _ in range(n * (n - 1) // 2)])


def generate_wqt(seed: int, depth: int = 2, width: int = 3) -> Digraph:
    """Random weakly quasi-transitive digraph, built by repeated substitution.

    Depth 1 draws one of the three base classes (transitive oriented,
    semicomplete, symmetric) on 1..width vertices; a deeper level draws a
    base digraph and substitutes one depth-(level - 1) digraph for each of
    its vertices.  Deterministic per seed.

    Runs without recursion: every base digraph is drawn first, depth-first
    with an explicit stack in generation order, then the drawn nodes are
    substituted in reverse draw order, so children come before parents.
    A base digraph on k vertices replaces one vertex by k, so the final
    order is at least 1 + sum(k - 1) over the bases drawn so far.
    ValueError is raised, before anything is substituted, as soon as that
    exceeds MAX_VERTICES, and for a depth above MAX_VERTICES; so the draw
    stack holds at most MAX_VERTICES levels and the node list is bounded.
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be at least 1")
    if depth > MAX_VERTICES:
        raise ValueError(f"depth {depth} exceeds the limit of {MAX_VERTICES}")
    rng = random.Random(seed)
    builders = (_random_transitive_oriented, _random_semicomplete, _random_symmetric)
    nodes: list[tuple[int, Digraph]] = []  # (level, base digraph), in draw order
    stack = [depth]  # levels of the parts still to draw, next one on top
    order = 1  # level-1 vertices drawn plus parts still to draw; >= stack size
    while stack:
        level = stack.pop()
        n = rng.randint(1, width)
        check_vertex_count(n)
        host = builders[rng.randrange(3)](rng, n)
        order += n - 1
        if order > MAX_VERTICES:
            raise ValueError(
                f"generated digraph exceeds the limit of {MAX_VERTICES} vertices"
            )
        nodes.append((level, host))
        if level > 1:
            stack.extend([level - 1] * n)
    done: list[Digraph] = []  # finished digraphs; a node's first part is on top
    for level, host in reversed(nodes):
        if level > 1:
            host = substitute(host, [done.pop() for _ in range(host.n)])
        done.append(host)
    return done[0]


def generate_locally_semicomplete(seed: int, n: int) -> Digraph:
    """Random locally semicomplete digraph: round construction, then repair.

    Vertices sit on a cycle; each sends arcs along a random-length forward
    interval (one `randint(0, n - 1)` per vertex, in vertex order), then
    each forward arc, in sorted order, becomes a digon with probability
    0.3.  Repair then joins by a digon every two non-adjacent vertices x, y
    that lie in one side (the in- or the out-neighbourhood) of some vertex,
    that is, that have a common in- or out-neighbour, until no such pair
    is left.  Each repair adds adjacency, so it terminates (the complete
    symmetric digraph is a fixed point).

    The repaired digraph is the least closure, so the order of repairs
    does not change it.  Every repair is forced: once x and y share a side
    they share it in every later state, and they were non-adjacent at the
    start, so every finished repair sequence must join them too.  Repair
    is therefore a worklist over vertices on neighbourhood bitmasks.  Only
    a vertex that gains a neighbour gains a common neighbour with anyone,
    so each step joins one vertex to every non-adjacent vertex it shares
    a side with, and re-queues only the vertices that gained a neighbour.

    The reach values are drawn as `Random.randint` draws them, by
    rejection from `getrandbits(n.bit_length())`: the same stream without
    the call frames.  Only the order of the draws is fixed: the output is
    a fixed function of (seed, n), and seeded theorem-5 reports depend on
    it.  n must lie in 1..MAX_VERTICES.

    The digraph is built once, from the generator's own masks: `inn` is
    kept as the exact transpose of `out` through the digon draws and every
    repair, and no out-mask has its own bit (a reach is at most n - 1 and
    a repair never joins x to itself), so both go straight to `_from_masks`
    without the validation and transpose of `from_out_masks`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_vertex_count(n)
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    k = n.bit_length()
    full = (1 << n) - 1
    out = []
    for v in range(n):
        reach = 0
        if n > 1:
            reach = getrandbits(k)
            while reach >= n:
                reach = getrandbits(k)
        span = ((1 << reach) - 1) << (v + 1)  # v+1..v+reach, wrapped below
        out.append((span | span >> n) & full)
    inn = [0] * n
    for v, forward in enumerate(list(out)):
        bv = 1 << v
        while forward:
            bw = forward & -forward
            forward ^= bw
            w = bw.bit_length() - 1
            inn[w] |= bv
            if draw() < 0.3:
                out[w] |= bv
                inn[v] |= bw
    todo = full
    while todo:
        bx = todo & -todo
        todo ^= bx
        x = bx.bit_length() - 1
        ix, ox = inn[x], out[x]
        others = full & ~(ix | ox | bx)  # the vertices non-adjacent to x
        join = 0
        while others:
            by = others & -others
            others ^= by
            y = by.bit_length() - 1
            if ix & inn[y] or ox & out[y]:
                join |= by
        if join:
            out[x] = ox | join
            inn[x] = ix | join
            todo |= bx | join
            while join:
                by = join & -join
                join ^= by
                y = by.bit_length() - 1
                out[y] |= bx
                inn[y] |= bx
    return _from_masks(tuple(out), tuple(inn))
