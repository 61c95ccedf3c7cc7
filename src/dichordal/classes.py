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
    bits,
    build,
    check_vertex_count,
    pair_slots,
    slot_index,
    substitute,
)


def _semicomplete_violation(d: Digraph) -> Optional[tuple[int, int]]:
    for v in range(d.n):
        missing = ~(d.neighbor_mask(v) | (1 << v)) & ((1 << d.n) - 1)
        for w in bits(missing):
            if w > v:
                return (v, w)
    return None


def is_semicomplete(d: Digraph) -> bool:
    return _semicomplete_violation(d) is None


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


def _symmetric_violation(d: Digraph) -> Optional[tuple[int, int]]:
    for i, j in pair_slots(d.n):
        if d.codes[slot_index(i, j)] in (1, 2):
            return (i, j)
    return None


def _oriented_violation(d: Digraph) -> Optional[tuple[int, int]]:
    for i, j in pair_slots(d.n):
        if d.codes[slot_index(i, j)] == 3:
            return (i, j)
    return None


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
    return build(n, [(i, j) for i in range(n) for j in bits(reach[i])])


def _random_semicomplete(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for j in range(1, n):
        for i in range(j):
            k = rng.randrange(3)
            if k != 1:
                arcs.append((i, j))
            if k != 0:
                arcs.append((j, i))
    return build(n, arcs)


def _random_symmetric(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.5:
                arcs.extend([(i, j), (j, i)])
    return build(n, arcs)


def generate_wqt(seed: int, depth: int = 2, width: int = 3) -> Digraph:
    """Random weakly quasi-transitive digraph, built by recursive substitution.

    Depth 1 draws one of the three base classes (transitive oriented,
    semicomplete, symmetric) on 1..width vertices; deeper levels substitute
    recursively generated digraphs into a fresh base digraph.  Deterministic
    per seed.  Raises ValueError, before substituting anything, as soon as
    a base digraph or the parts drawn for one exceed MAX_VERTICES vertices
    in total.
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be at least 1")
    rng = random.Random(seed)

    def base() -> Digraph:
        n = rng.randint(1, width)
        check_vertex_count(n)
        builder = (
            _random_transitive_oriented,
            _random_semicomplete,
            _random_symmetric,
        )[rng.randrange(3)]
        return builder(rng, n)

    def draw(level: int) -> tuple[Digraph, list, int]:
        # (base digraph, drawn parts, order), making every random draw in
        # generation order; nothing is substituted until the order is known
        host = base()
        if level == 1:
            return host, [], host.n
        parts = []
        total = 0
        for _ in range(host.n):
            parts.append(draw(level - 1))
            total += parts[-1][2]
            if total > MAX_VERTICES:
                raise ValueError(
                    f"generated digraph exceeds the limit of {MAX_VERTICES} vertices"
                )
        return host, parts, total

    def assemble(node: tuple[Digraph, list, int]) -> Digraph:
        host, parts, _ = node
        return substitute(host, [assemble(p) for p in parts]) if parts else host

    return assemble(draw(depth))


def generate_locally_semicomplete(seed: int, n: int) -> Digraph:
    """Random locally semicomplete digraph: round construction, then repair.

    Vertices sit on a cycle; each sends arcs along a random-length forward
    interval (one `randint` per vertex, in vertex order), then each forward
    arc, in sorted order, becomes a digon with probability 0.3.  Repair then
    takes the first neighbourhood violation (v, x, y) in the order of
    `_locally_semicomplete_violation` -- smallest v, in-side before
    out-side, then smallest x, then smallest y -- and adds the digon x-y,
    until none is left.  Each repair adds adjacency, so the loop terminates
    (the complete symmetric digraph is a fixed point).

    The repair works on neighbourhood bitmasks.  Adding x-y grows only the
    sides of x and y, and adjacency only grows, so no vertex below v other
    than x or y can gain a violation: the next scan starts at min(v, x, y)
    and still finds the first violation of a scan from vertex 0.

    The output is a fixed function of (seed, n); seeded theorem-5 reports
    depend on it, so the draw and repair order above must not change.
    n must lie in 1..MAX_VERTICES.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_vertex_count(n)
    rng = random.Random(seed)
    out = [0] * n
    inn = [0] * n
    for v in range(n):
        reach = rng.randint(0, n - 1) if n > 1 else 0
        for step in range(1, reach + 1):
            w = (v + step) % n
            out[v] |= 1 << w
            inn[w] |= 1 << v
    forward = list(out)
    for v in range(n):
        for w in bits(forward[v]):
            if rng.random() < 0.3:
                out[w] |= 1 << v
                inn[v] |= 1 << w
    v = 0
    while v < n:
        bad = _side_violation(inn[v], out, inn) or _side_violation(out[v], out, inn)
        if bad is None:
            v += 1
            continue
        x, y = bad
        out[x] |= 1 << y
        inn[x] |= 1 << y
        out[y] |= 1 << x
        inn[y] |= 1 << x
        v = min(v, x, y)
    return build(n, [(u, w) for u in range(n) for w in bits(out[u])])
