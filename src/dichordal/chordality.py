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

`_greedy` inlines the di-simplicial test as one flat loop over three mask
lists (ins, outs, required), not over a Digraph: the candidates
`alive & ~stuck` and each candidate's alive in-neighbours are walked
lowest bit first.  `_variant_masks` picks the lists for a variant; STRICT
runs the same loop with both sides set to all neighbours.  A caller that
holds other masks runs the loop on them directly: the theorem-5 tail
decides a symmetric part on (digon, digon, digon) without building it.
`_witness`, on the same lists restricted to a vertex set, is the
single-vertex definition: `witness` (and through it `is_di_simplicial`,
the CLI's NO verdict and the tests' rescan reference) reads the lists for
one call, `verify_ordering` once per ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .digraph import Digraph, bits
from .digraph import induced  # noqa: F401  -- perfbench's tracer binds this name
from .digraph import symmetric_subdigraph  # noqa: F401  -- perfbench's tracer binds this name


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


def witness(
    d: Digraph, v: int, variant: Variant, within: Optional[int] = None
) -> Optional[Witness]:
    """Lexicographically smallest failing (u, w), or None if v is di-simplicial
    in the subdigraph induced by the vertex mask `within` (default: all of d).

    The sides and the required adjacency come from `_variant_masks`, the
    sides restricted to `within`.  For STRICT the pair ranges over all
    neighbours of v and is reported with u < w; otherwise u is an
    in-neighbour and w an out-neighbour.
    """
    d._check_vertex(v)
    alive = (1 << d.n) - 1 if within is None else within
    return _witness(*_variant_masks(d, variant), v, alive)


def _witness(
    ins: Sequence[int], outs: Sequence[int], required: Sequence[int], v: int, alive: int
) -> Optional[Witness]:
    """`witness` on a variant's mask lists, with v's sides restricted to `alive`."""
    outv = outs[v] & alive
    for u in bits(ins[v] & alive):  # a failing STRICT pair w < u was found at u = w
        bad = outv & ~(1 << u) & ~required[u]
        if bad:
            return Witness(u, v, (bad & -bad).bit_length() - 1)
    return None


def is_di_simplicial(d: Digraph, v: int, variant: Variant) -> bool:
    return witness(d, v, variant) is None


def _variant_masks(d: Digraph, variant: Variant) -> tuple[Sequence[int], ...]:
    """The (ins, outs, required) mask lists of a variant: `_greedy` runs on
    them, and `witness` reads them restricted to a vertex set.

    STRICT takes both sides as all neighbours and requires digons;
    otherwise the sides are the in- and out-masks and the required
    adjacency is a digon (SEMI_STRICT) or the arc u->w (CHORDAL).
    """
    if variant is Variant.STRICT:
        nbr = [i | o for i, o in zip(d.in_masks, d.out_masks)]
        return nbr, nbr, d.digon_masks
    required = d.digon_masks if variant is Variant.SEMI_STRICT else d.out_masks
    return d.in_masks, d.out_masks, required


def _greedy(
    ins: Sequence[int], outs: Sequence[int], required: Sequence[int]
) -> tuple[list[int], int]:
    """Greedy elimination on mask lists: (deletion order, stalled set as a
    mask, 0 if none).

    `stuck` holds alive vertices already found not di-simplicial in the
    current alive set; only a deletion among a vertex's neighbours can
    change that, so each deletion clears `stuck` on the neighbours only.
    The candidates are `alive & ~stuck`, lowest first.

    The test is `witness`'s, inlined: v fails when some alive
    in-neighbour u has an alive out-neighbour w != u of v that is not in
    `required[u]`.
    """
    alive = cand = (1 << len(ins)) - 1
    stuck = 0
    order = []
    while cand:
        lv = cand & -cand
        v = lv.bit_length() - 1
        outv = outs[v] & alive
        us = ins[v] & alive if outv else 0
        while us:
            lu = us & -us
            if outv & ~lu & ~required[lu.bit_length() - 1]:
                break
            us ^= lu
        if us:  # the loop broke: v is not di-simplicial
            stuck |= lv
            cand ^= lv
        else:
            order.append(v)
            alive ^= lv
            stuck &= ~(outs[v] | ins[v])
            cand = alive & ~stuck
    return order, alive


def elimination_ordering(d: Digraph, variant: Variant) -> Optional[EliminationOrdering]:
    """Greedy perfect elimination ordering, or None when the digraph has none.

    Repeatedly removes the lowest-indexed vertex that is di-simplicial in
    the remaining induced subdigraph.
    """
    order, stalled = _greedy(*_variant_masks(d, variant))
    return None if stalled else EliminationOrdering(tuple(order), variant)


def is_chordal(d: Digraph, variant: Variant) -> bool:
    return elimination_ordering(d, variant) is not None


def stalled_subdigraph(d: Digraph, variant: Variant) -> Optional[tuple[int, ...]]:
    """Vertices left when the greedy elimination gets stuck (None if it never does)."""
    _, stalled = _greedy(*_variant_masks(d, variant))
    return tuple(bits(stalled)) if stalled else None


def verify_ordering(d: Digraph, ordering: EliminationOrdering) -> bool:
    """Certificate check: each vertex must be di-simplicial among its suffix.

    Reads the variant's mask lists once, then walks the ordering with the
    suffix as a vertex mask and asks `_witness` on it, independently of
    the recognizer's incremental state; no induced subdigraph is built.
    """
    if sorted(ordering.order) != list(range(d.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    masks = _variant_masks(d, ordering.variant)
    alive = (1 << d.n) - 1
    for v in ordering.order:
        if _witness(*masks, v, alive) is not None:
            return False
        alive ^= 1 << v
    return True


# -- brute-force oracle --------------------------------------------------------
#
# `oracle_is_chordal` is the literal definition (every nonempty induced
# subdigraph has a di-simplicial vertex), evaluated over the whole subset
# lattice at once.  A subset S of the vertices is a bit position in a
# 2^n-bit integer; `_member_sets(n)[x]` has bit S set exactly when x is in S.
#
# Whether v is di-simplicial in D[S] depends only on which of its failing
# pairs in D lie inside S: a pair (u, w) around v is the same pair in D[S]
# whenever u, v, w are in S, and D[S] inherits from D the adjacency between
# u and w that the variant requires.  So v is di-simplicial in exactly the
# subsets `has[v] & ~OR(has[u] & has[w])` over its failing pairs (u, w), and
# D is chordal exactly when the union of these sets over all v is every
# nonempty subset.  The pairs are spelled out over plain neighbour sets by
# `_failing_pairs`, which shares no code with `_greedy` or `witness`.


def _failing_pairs(
    ins: list[frozenset[int]], outs: list[frozenset[int]], v: int, variant: Variant
) -> list[tuple[int, int]]:
    """Every pair (u, w) around v missing the adjacency the variant requires,
    spelled out over the neighbour sets ins[x], outs[x], no bitmask shortcuts.

    For STRICT both ends range over all neighbours of v, each pair once with
    u < w, and a digon is required; otherwise u is an in-neighbour and w != u
    an out-neighbour, and the arc u->w (CHORDAL) or a digon (SEMI_STRICT) is
    required.
    """
    if variant is Variant.STRICT:
        nb = ins[v] | outs[v]
        return [(u, w) for u in nb for w in nb if u < w and not (w in outs[u] and u in outs[w])]
    semi = variant is Variant.SEMI_STRICT
    return [
        (u, w)
        for u in ins[v]
        for w in outs[v]
        if u != w and (w not in outs[u] or (semi and u not in outs[w]))
    ]


ORACLE_MAX_N = 12


@lru_cache(maxsize=None)
def _member_sets(n: int) -> tuple[int, ...]:
    """For each vertex x < n, the 2^n-bit int whose bit S is set when x is in S.

    Bit S holds bit x of S: runs of 2^x zeros then 2^x ones, repeated with
    period 2^(x+1), i.e. one period's pattern times the int with a one at
    every multiple of the period.
    """
    full = (1 << (1 << n)) - 1
    return tuple(
        (((1 << (1 << x)) - 1) << (1 << x)) * (full // ((1 << (2 << x)) - 1)) for x in range(n)
    )


@lru_cache(maxsize=None)
def _vertex_set(mask: int) -> frozenset[int]:
    """The vertices of a mask as a plain set.  `oracle_is_chordal` checks
    its cap first, so at most 2^ORACLE_MAX_N masks are ever cached."""
    return frozenset(bits(mask))


def oracle_is_chordal(d: Digraph, variant: Variant) -> bool:
    """Literal definition: every nonempty induced subdigraph has a
    di-simplicial vertex.  Exponential; capped at ORACLE_MAX_N vertices.

    All 2^n subsets are decided together as bits of one integer (see the
    section comment): v is di-simplicial in D[S] exactly when S contains v
    and no failing pair (u, w) of v in D lies inside S, because D[S] keeps
    the adjacency between u and w.  No induced subdigraph is built.  The
    plain neighbour sets that `_failing_pairs` reads come from the
    mask-keyed cache `_vertex_set`, so a call builds no frozenset of its
    own: `in_neighbors`/`out_neighbors` would cost a range check, a bit
    walk and a new frozenset per vertex and side.
    """
    if d.n > ORACLE_MAX_N:
        raise ValueError(f"subset enumeration cap exceeded: n={d.n} > {ORACLE_MAX_N}")
    has = _member_sets(d.n)
    ins = list(map(_vertex_set, d.in_masks))
    outs = list(map(_vertex_set, d.out_masks))
    covered = 0
    for v in range(d.n):
        bad = 0
        for u, w in _failing_pairs(ins, outs, v, variant):
            bad |= has[u] & has[w]
        covered |= has[v] & ~bad
    return covered == (1 << (1 << d.n)) - 2  # every subset but the empty one


# -- undirected chordality of the symmetric part --------------------------------


def underlying_SD_is_chordal(d: Digraph) -> bool:
    """Is the underlying undirected graph of the symmetric subdigraph chordal?

    Repeated simplicial-vertex deletion; quadratic-ish but instances are tiny.
    """
    adj = d.digon_masks
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
