"""Knotting graphs of digraphs.

The arcs incident with a vertex v are partitioned into splitting classes:
two arcs are directly compatible when their far endpoints differ, one arc
enters v while the other leaves it, and the far endpoints are not joined
by a digon; classes are the connected components of that relation.  The
knotting graph has one node per splitting class and one edge per arc of
the digraph, joining the two classes that contain the arc.

Each edge carries its arc, and the edges follow `d.arcs()` order.  Two
arcs of a digon can land in the same pair of classes, which makes the
knotting graph a multigraph; keeping the arc on the edge preserves the
one-to-one arc/edge correspondence.  The graph keeps no arc-to-edge map:
a caller that needs one builds `{e.arc: e for e in k.edges}`.

A vertex is semi-strict di-simplicial exactly when all of its splitting
classes have degree at most one, which yields a second recognition route
for semi-strict chordality alongside the elimination-ordering one.

Classes are computed on neighbourhood bitmasks (`_class_masks`): a class
is a pair (in_mask, out_mask) holding the far ends of its in-arcs and
out-arcs.  An in-arc from u is directly compatible with exactly the
out-arcs to `out(v) & ~digon(u) & ~{u}`, and an out-arc to w with the
in-arcs from `in(v) & ~digon(w) & ~{w}`, so a breadth-first search that
expands each arc at most once finds every class in O(deg) mask
operations.  Early stop: an arc leaves its free mask as soon as an
expansion reaches it, and the search stops expanding one side once the
other side has no free arc left, since the remaining arcs of that side
can reach nothing more.  On a vertex whose arcs form one class, as in a
tournament or a dense random digraph, the first in-arc reaches the free
out-arcs and the first out-arc the free in-arcs, so the class closes
after a few expansions instead of one per arc.

One class table (`_class_table`) reads each vertex's class masks once.
It keeps them as mask pairs, an arcless vertex owning one empty class,
and walks the arcs once, tail by tail in `d.arcs()` order, with the
1-based indices of each arc's classes at its tail and at its head, so no
list of all arcs is held.  One-class rule: a vertex with a
single class holds every arc end in class 1, so far-end index maps are
built only at vertices with two or more classes.  `knotting_graph`
builds its `SplittingClass` and `KnottingEdge` objects from the table:
each arc (u, w) of `d.arcs()` becomes the edge from u's class of
out-arc w to w's class of in-arc u.  The CLI's `knot` writers (text,
`--json` and `--dot`) read the table directly and build neither object.

One DOT writer (`_dot_chunks`) lays out the knotting graph, from a class
table.  `knot --dot` streams it over `_class_table(d)`; `to_dot(k)` feeds
it k's groups and k's edges grouped by tail (they follow `d.arcs()`
order, so one pass groups them) and joins the chunks, as `digraph.to_dot`
joins `digraph.dot_chunks`.

The same routine evaluates v inside any induced subdigraph D[S] without
building it: restrict in(v) and out(v) to S.  That is exact because
compatibility of two arcs at v depends only on their directions and on
the pair kind of their far ends, and D[S] inherits both from D; passing
to S only removes arcs.  Relabelling S by sorted order is monotone, so
ordering the classes by their smallest member arc gives the same order
in both labellings.  The subset oracles therefore loop over vertex masks
and never build an induced Digraph or a KnottingGraph per subset.

Degree identity: every arc is one knotting edge, and its two ends lie in
classes of different owners, so a class's degree equals its number of
member arcs.  A vertex qualifies (all of its classes have degree at most
one) exactly when every class has at most one member arc.

`_class_masks` returns its classes as one list of mask pairs, which
every caller reads whole.  `_qualifies` decides the degree test with its
own copy of the class search, in one frame.  The subset oracle calls it
once per (subset, vertex), up to n * 2^n times per digraph, where the
call and the class list of `_class_masks` cost more than the search
itself, and a shared search would have to branch on which caller it
serves: collect every class, or stop at the first class with two or
more member arcs.  The copy completes each class by the same rule and
answers False at that first class, and the tests hold it to
`_class_masks` on every small case.  It is deliberately not cut to the
shorter pair test "the first expansion reaches a free arc", which gives
the same answers faster: that test is the greedy elimination's
failing-pair test written another way, and the recognizer cross-check
needs its knotting side to decide by splitting classes, independently of
the greedy side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .chordality import ORACLE_MAX_N
from .digraph import Digraph, _labels, bits, dot_quote
from .digraph import induced  # noqa: F401  -- perfbench's tracer binds this name

Arc = tuple[int, int]
ClassId = tuple[int, int]  # (owner vertex, 1-based index within the owner's group)


@dataclass(frozen=True)
class SplittingClass:
    owner: int
    index: int
    members: frozenset[Arc]

    @property
    def id(self) -> ClassId:
        return (self.owner, self.index)


@dataclass(frozen=True)
class KnottingEdge:
    arc: Arc
    a: ClassId  # class at the tail vertex
    b: ClassId  # class at the head vertex


@dataclass(frozen=True)
class KnottingGraph:
    n: int
    classes: tuple[SplittingClass, ...]
    edges: tuple[KnottingEdge, ...]
    # groups[v] is v's splitting group; derived from `classes`
    groups: tuple[tuple[SplittingClass, ...], ...] = field(compare=False, repr=False)

    def group(self, v: int) -> tuple[SplittingClass, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"unknown vertex {v}")
        return self.groups[v]

    def degrees(self) -> dict[ClassId, int]:
        out = {c.id: 0 for c in self.classes}
        for e in self.edges:
            out[e.a] += 1
            out[e.b] += 1
        return out


def _class_masks(d: Digraph, v: int, alive: int) -> list[tuple[int, int]]:
    """Splitting classes of v in D[alive], as (in_mask, out_mask) pairs.

    The masks hold the far ends of the class's in-arcs and out-arcs.
    Classes come in the order of their smallest member arc; a vertex with
    no arc in D[alive] has none.
    """
    classes = []
    free_in = d.in_masks[v] & alive
    free_out = d.out_masks[v] & alive
    digon = d.digon_masks
    below = (1 << v) - 1
    while free_in or free_out:
        # smallest free arc: (u, v) with u < v, else (v, w), else (u, v) with u > v
        if free_in & below or not free_out:
            todo_in, todo_out = free_in & -free_in, 0
        else:
            todo_in, todo_out = 0, free_out & -free_out
        free_in ^= todo_in
        free_out ^= todo_out
        cls_in, cls_out = todo_in, todo_out
        while todo_in or todo_out:
            was_in, was_out = free_in, free_out
            # an arc leaves its free mask as soon as it is reached, and a side
            # stops once the other side has no free arc left to reach
            while todo_in and free_out:  # in-arc from u: out-arcs to out(v) & ~digon(u) & ~{u}
                low = todo_in & -todo_in
                free_out &= digon[low.bit_length() - 1] | low
                todo_in ^= low
            while todo_out and free_in:  # out-arc to w: in-arcs from in(v) & ~digon(w) & ~{w}
                low = todo_out & -todo_out
                free_in &= digon[low.bit_length() - 1] | low
                todo_out ^= low
            todo_in, todo_out = was_in ^ free_in, was_out ^ free_out
            cls_in |= todo_in
            cls_out |= todo_out
        classes.append((cls_in, cls_out))
    return classes


def _qualifies(d: Digraph, v: int, alive: int) -> bool:
    """Do all of v's splitting classes in D[alive] have degree <= 1?

    By the degree identity, that is: every class has at most one member
    arc.  The class search is `_class_masks`'s, copied into this frame so
    that the subset oracles make no call and build no class list per
    vertex (see the module docstring): each class is completed by the
    same rule, and the answer is False at the first class with two or
    more member arcs.
    """
    free_in = d.in_masks[v] & alive
    free_out = d.out_masks[v] & alive
    digon = d.digon_masks
    below = (1 << v) - 1
    while free_in or free_out:
        if free_in & below or not free_out:
            todo_in, todo_out = free_in & -free_in, 0
        else:
            todo_in, todo_out = 0, free_out & -free_out
        free_in ^= todo_in
        free_out ^= todo_out
        cls_in, cls_out = todo_in, todo_out
        while todo_in or todo_out:
            was_in, was_out = free_in, free_out
            while todo_in and free_out:
                low = todo_in & -todo_in
                free_out &= digon[low.bit_length() - 1] | low
                todo_in ^= low
            while todo_out and free_in:
                low = todo_out & -todo_out
                free_in &= digon[low.bit_length() - 1] | low
                todo_out ^= low
            todo_in, todo_out = was_in ^ free_in, was_out ^ free_out
            cls_in |= todo_in
            cls_out |= todo_out
        if cls_in.bit_count() + cls_out.bit_count() > 1:
            return False
    return True


def _vertex_classes(d: Digraph, v: int) -> list[tuple[int, int]]:
    """v's splitting classes in D as `_class_masks` pairs; an arcless vertex
    owns one empty class."""
    return _class_masks(d, v, (1 << d.n) - 1) or [(0, 0)]


_ClassTable = tuple[list[list[tuple[int, int]]], Iterator[list[tuple[int, int, int]]]]


def _class_table(d: Digraph) -> _ClassTable:
    """Every vertex's splitting classes and every arc's class at each end.

    Returns (groups, rows): groups[v] lists v's classes as `_vertex_classes`
    pairs, indexed from 1 in list order; rows yields, for u = 0, 1, ...,
    the arcs (u, w) in `d.arcs()` order as (w, i, j), where i and j are the
    indices of the classes holding the arc at its tail u and at its head w.
    rows is read once, one tail at a time, so no list of all arcs is held.
    Far-end index maps are built only at vertices with two or more
    classes: at a one-class vertex every arc end lies in class 1.
    """
    groups = [_vertex_classes(d, v) for v in range(d.n)]
    # in_idx[w][u] and out_idx[u][w]: the class of (u, w) at w and at u
    in_idx = [
        {u: i for i, (ins, _) in enumerate(g, 1) for u in bits(ins)} if len(g) > 1 else None
        for g in groups
    ]
    out_idx = [
        {w: i for i, (_, outs) in enumerate(g, 1) for w in bits(outs)} if len(g) > 1 else None
        for g in groups
    ]
    rows = (
        [(w, outs[w] if outs else 1, in_idx[w][u] if in_idx[w] else 1) for w in bits(heads)]
        for u, (heads, outs) in enumerate(zip(d.out_masks, out_idx))
    )
    return groups, rows


def _splitting_classes(v: int, group: list[tuple[int, int]]) -> tuple[SplittingClass, ...]:
    """The `SplittingClass` objects of v's class masks."""
    return tuple(
        SplittingClass(
            v, idx, frozenset([(u, v) for u in bits(cls_in)] + [(v, w) for w in bits(cls_out)])
        )
        for idx, (cls_in, cls_out) in enumerate(group, start=1)
    )


def knot_classes(d: Digraph, v: int) -> list[SplittingClass]:
    """Splitting classes of v, indexed by their smallest member arc.

    An isolated vertex owns a single empty class.
    """
    d._check_vertex(v)
    return list(_splitting_classes(v, _vertex_classes(d, v)))


def knotting_graph(d: Digraph) -> KnottingGraph:
    """The knotting graph K_D, built from the class table.

    Arc (u, w) becomes the edge between u's class holding it as an out-arc
    and w's class holding it as an in-arc; edges follow `d.arcs()` order.
    """
    groups, rows = _class_table(d)
    classes = tuple(_splitting_classes(v, group) for v, group in enumerate(groups))
    ids = [[cls.id for cls in group] for group in classes]  # one ClassId per class, shared
    return KnottingGraph(
        n=d.n,
        classes=tuple(cls for group in classes for cls in group),
        edges=tuple(
            KnottingEdge((u, w), ids[u][i - 1], ids[w][j - 1])
            for u, row in enumerate(rows)
            for w, i, j in row
        ),
        groups=classes,
    )


def group_max_degree(k: KnottingGraph, v: int) -> int:
    """Largest degree among v's splitting classes (0 for an isolated vertex).

    By the degree identity, a class's degree is its number of member arcs,
    so only v's own group is read."""
    return max(len(c.members) for c in k.group(v))


def lemma1_check(d: Digraph, v: int) -> bool:
    """Knotting-side di-simpliciality test: all of v's classes have degree <= 1.

    Read from v's class masks alone by the degree identity (`_qualifies`);
    no knotting graph is built.  Agrees with the semi-strict di-simplicial
    test pointwise.
    """
    d._check_vertex(v)
    return _qualifies(d, v, (1 << d.n) - 1)


def ss_chordal_via_knotting(d: Digraph) -> bool:
    """Iteratively delete vertices whose splitting group has max degree <= 1.

    The splitting classes are recomputed in the surviving induced
    subdigraph at every step (deleting splitting vertices from the old
    graph can refine classes at the survivors, so recomputation is the
    safe semantics).  Each step deletes the lowest qualifying alive vertex.
    """
    alive = (1 << d.n) - 1
    while alive:
        rest = alive
        while rest:
            low = rest & -rest
            if _qualifies(d, low.bit_length() - 1, alive):
                break
            rest ^= low
        if not rest:
            return False
        alive ^= low
    return True


def theorem2_oracle(d: Digraph) -> bool:
    """Subset-quantified knotting criterion for semi-strict chordality.

    True iff for every nonempty vertex subset, the induced subdigraph's
    knotting graph has some splitting group with all degrees <= 1.  Each
    subset is decided on its own vertex mask: its vertices are walked
    lowest bit first and each is tested by `_qualifies`, i.e. on its
    splitting classes restricted to the mask, until one qualifies.
    `_qualifies` runs the class search in its own frame because it is
    called up to n * 2^n times here, and it completes each class rather
    than stop at the first reached arc so that this side still decides
    by splitting classes (see the module docstring).  Capped at
    ORACLE_MAX_N vertices.
    """
    if d.n > ORACLE_MAX_N:
        raise ValueError(f"subset enumeration cap exceeded: n={d.n} > {ORACLE_MAX_N}")
    for mask in range(1, 1 << d.n):
        rest = mask
        while rest:
            low = rest & -rest
            if _qualifies(d, low.bit_length() - 1, mask):
                break
            rest ^= low
        if not rest:
            return False
    return True


def _dot_chunks(table: _ClassTable, labels: list[str]) -> Iterator[str]:
    """The knotting graph's DOT text from a class table, one line at a time
    (the edge lines one piece per tail): one node per splitting class,
    each vertex's group a cluster, edges undirected.  Reads only the size
    of each group."""
    groups, rows = table
    yield "graph K {\n"
    for v, group in enumerate(groups):
        lab = dot_quote(labels[v])
        yield f'  subgraph cluster_{v} {{\n    label="{lab}";\n'
        for i in range(1, len(group) + 1):
            yield f'    c{v}_{i} [label="{lab}^{i}"];\n'
        yield "  }\n"
    for u, row in enumerate(rows):
        yield "".join([f"  c{u}_{i} -- c{w}_{j};\n" for w, i, j in row])
    yield "}\n"


def to_dot(k: KnottingGraph, names: Mapping[int, str] | None = None) -> str:
    """DOT export: one node per splitting class, groups clustered, edges undirected.

    The text of `_dot_chunks` over k's groups and k's edges grouped by
    tail, which take one pass since the edges follow `d.arcs()` order.
    """
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(k.n)]
    for e in k.edges:
        rows[e.a[0]].append((e.b[0], e.a[1], e.b[1]))
    return "".join(_dot_chunks((k.groups, rows), _labels(k.n, names)))
