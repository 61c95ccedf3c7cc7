"""Di-simplicial vertex tests and elimination-ordering recognizers.

A vertex v is di-simplicial when every in-neighbour u and out-neighbour w
(u != w) are joined the right way; the three variants differ in what "the
right way" means:

  CHORDAL      an arc u->w suffices
  SEMI_STRICT  u and w must be joined by a digon
  STRICT       digons are required between *all* pairs of neighbours of v,
               in-neighbours and out-neighbours alike

A digraph is (variant-)chordal when every induced subdigraph contains such
a vertex, equivalently when greedily deleting di-simplicial vertices
empties it.  Greedy choice does not matter because chordality is
hereditary; we always delete the lowest-indexed eligible vertex so runs
are reproducible.

The greedy loop does not retest every alive vertex after each deletion.
In all three variants the condition quantifies over pairs of alive
neighbours of v.  So whether v is di-simplicial depends only on which of
its neighbours are alive: a vertex found not di-simplicial stays so until
one of its neighbours is deleted.  And it is monotone under deletion:
fewer pairs can only make it true, so the eligible set only grows.  The
loop keeps the failed vertices in a `stuck` mask, clears it only on the
neighbours of each deleted vertex, and tests the rest in ascending order.
It deletes exactly the vertex a full rescan from vertex 0 would, and
stalls on the same set, in O(n + sum of degrees) tests instead of O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .digraph import Digraph, bits, induced, symmetric_subdigraph


class Variant(str, Enum):
    CHORDAL = "chordal"
    STRICT = "strict"
    SEMI_STRICT = "semi-strict"


class Witness(NamedTuple):
    """A triple certifying that v is not di-simplicial: the required
    adjacency between u and w is missing."""

    u: int
    v: int
    w: int


@dataclass(frozen=True)
class EliminationOrdering:
    order: tuple[int, ...]
    variant: Variant


def _di_simplicial_in(d: Digraph, v: int, variant: Variant, alive: int) -> bool:
    """Di-simplicial test for v inside the subdigraph induced by `alive`."""
    if variant is Variant.STRICT:
        nb = (d.in_masks[v] | d.out_masks[v]) & alive
        for u in bits(nb):
            if (nb & ~(1 << u)) & ~d.digon_masks[u]:
                return False
        return True
    outv = d.out_masks[v] & alive
    if not outv:
        return True
    required = d.digon_masks if variant is Variant.SEMI_STRICT else d.out_masks
    for u in bits(d.in_masks[v] & alive):
        if (outv & ~(1 << u)) & ~required[u]:
            return False
    return True


def is_di_simplicial(d: Digraph, v: int, variant: Variant) -> bool:
    d._check_vertex(v)
    return _di_simplicial_in(d, v, variant, (1 << d.n) - 1)


def witness(d: Digraph, v: int, variant: Variant) -> Optional[Witness]:
    """Lexicographically smallest failing (u, w), or None if v is di-simplicial.

    For STRICT the pair ranges over all neighbours of v and is reported
    with u < w; otherwise u is an in-neighbour and w an out-neighbour.
    """
    d._check_vertex(v)
    if variant is Variant.STRICT:
        nb = sorted(bits(d.in_masks[v] | d.out_masks[v]))
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                u, w = nb[a], nb[b]
                if not d.digon_masks[u] >> w & 1:
                    return Witness(u, v, w)
        return None
    for u in bits(d.in_masks[v]):
        for w in bits(d.out_masks[v]):
            if u == w:
                continue
            if variant is Variant.SEMI_STRICT:
                ok = bool(d.digon_masks[u] >> w & 1)
            else:
                ok = d.has_arc(u, w)
            if not ok:
                return Witness(u, v, w)
    return None


def _greedy(d: Digraph, variant: Variant) -> tuple[list[int], int]:
    """Greedy elimination: (deletion order, stalled set as a mask, 0 if none).

    `stuck` holds alive vertices already found not di-simplicial in the
    current alive set; only a deletion among a vertex's neighbours can
    change that, so each deletion clears `stuck` on the neighbours only.
    """
    alive = (1 << d.n) - 1
    stuck = 0
    order = []
    while alive:
        for v in bits(alive & ~stuck):
            if _di_simplicial_in(d, v, variant, alive):
                order.append(v)
                alive &= ~(1 << v)
                stuck &= ~(d.out_masks[v] | d.in_masks[v])
                break
            stuck |= 1 << v
        else:
            return order, alive
    return order, 0


def elimination_ordering(d: Digraph, variant: Variant) -> Optional[EliminationOrdering]:
    """Greedy perfect elimination ordering, or None when the digraph has none.

    Repeatedly removes the lowest-indexed vertex that is di-simplicial in
    the remaining induced subdigraph.
    """
    order, stalled = _greedy(d, variant)
    return None if stalled else EliminationOrdering(tuple(order), variant)


def is_chordal(d: Digraph, variant: Variant) -> bool:
    return elimination_ordering(d, variant) is not None


def stalled_subdigraph(d: Digraph, variant: Variant) -> Optional[tuple[int, ...]]:
    """Vertices left when the greedy elimination gets stuck (None if it never does)."""
    _, stalled = _greedy(d, variant)
    return tuple(bits(stalled)) if stalled else None


def verify_ordering(d: Digraph, ordering: EliminationOrdering) -> bool:
    """Certificate check: each vertex must be di-simplicial among its suffix.

    Deliberately recomputes true suffix-induced subdigraphs instead of
    reusing the recognizer's incremental state.
    """
    if sorted(ordering.order) != list(range(d.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    for i, v in enumerate(ordering.order):
        suffix = sorted(ordering.order[i:])
        sub = induced(d, suffix)
        if not is_di_simplicial(sub, suffix.index(v), ordering.variant):
            return False
    return True


# -- brute-force oracle --------------------------------------------------------


def _plain_di_simplicial(
    ins: list[frozenset[int]], outs: list[frozenset[int]], v: int, variant: Variant,
    within: frozenset[int],
) -> bool:
    # definition spelled out over the neighbour sets ins[x], outs[x] inside
    # the vertex set `within`, no bitmask shortcuts
    if variant is Variant.STRICT:
        nb = (ins[v] | outs[v]) & within
        return all(w in outs[u] and u in outs[w] for u in nb for w in nb if u != w)
    out_v = outs[v] & within
    for u in ins[v] & within:
        for w in out_v:
            if u == w:
                continue
            if w not in outs[u]:
                return False
            if variant is Variant.SEMI_STRICT and u not in outs[w]:
                return False
    return True


def oracle_is_chordal(d: Digraph, variant: Variant, cap: int = 12) -> bool:
    """Literal definition: every nonempty induced subdigraph has a
    di-simplicial vertex.  Exponential; capped at `cap` vertices.

    Each subset is evaluated in place, as a vertex set that the neighbour
    sets of d, taken once per call, are intersected with; no induced
    subdigraph is built.
    """
    if d.n > cap:
        raise ValueError(f"subset enumeration cap exceeded: n={d.n} > {cap}")
    ins = [d.in_neighbors(v) for v in range(d.n)]
    outs = [d.out_neighbors(v) for v in range(d.n)]
    for mask in range(1, 1 << d.n):
        sub = frozenset(bits(mask))
        if not any(_plain_di_simplicial(ins, outs, v, variant, sub) for v in sub):
            return False
    return True


# -- undirected chordality of the symmetric part --------------------------------


def underlying_SD_is_chordal(d: Digraph) -> bool:
    """Is the underlying undirected graph of the symmetric subdigraph chordal?

    Repeated simplicial-vertex deletion; quadratic-ish but instances are tiny.
    """
    adj = list(symmetric_subdigraph(d).digon_masks)
    alive = (1 << d.n) - 1
    while alive:
        for v in bits(alive):
            nb = adj[v] & alive
            if all((nb & ~(1 << u)) & ~adj[u] == 0 for u in bits(nb)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True
