"""Forbidden induced-subdigraph families and their detectors.

Patterns are constraint-labelled templates: every unordered pair of
template vertices carries one of six constraints (non-adjacent, a
non-symmetric arc in a fixed direction, a non-symmetric arc in either
direction, a digon, or any adjacency).  Unlisted pairs default to
non-adjacent, so matches are always induced.

Two families matter for semi-strict chordality:

* four small obstructions on 3-4 vertices ("fig1a".."fig1d", where fig1d
  is the directed triangle of non-symmetric arcs), and
* the lollipop family: a non-symmetric directed path whose two ends
  attach to digon pairs, one feeding the path and one fed by it.

Combined with chordality of the symmetric part these characterize
semi-strict chordality inside the weakly quasi-transitive and locally
semicomplete classes.  `_rhs(d, *detectors)` is the one statement of such
a right side: the symmetric part by the greedy loop on the digon masks,
then each detector in turn.  `theorem4_rhs` (fig1), `theorem5_rhs` (fig1,
dicycle, lollipop) and the theorem-5 tail of `verify` (with its table
lookup for fig1) differ only in the detectors they pass.

All three detectors search neighbourhood bitmasks, computed once per
digraph: the non-neighbours, the non-symmetric out-neighbours (out &
~digon), the non-symmetric in-neighbours, both together, the digon
partners and the neighbours.  That is the order of EdgeConstraint, and
each constraint picks the row at its own position.

* `find_induced` maps template vertices 0, 1, ... in turn.  The
  candidates for vertex i are `base[i] & ~used & AND_{p<i}
  row[p][mapping[p]]`, where row[p] is the row of the constraint on
  (p, i), and `base[i]` holds the hosts whose non-symmetric in-, out- and
  total degrees, digon degree and degree reach what vertex i needs.  A
  partner counts toward every row that allows all the kinds its
  constraint allows, seen from i (so a digon counts toward neither
  non-symmetric degree).  The template vertices below the first one that
  i must touch all need a non-neighbour, so their rows are one mask: the
  complement of their hosts' joint neighbourhood (a lollipop path vertex
  checks one row, not k).
  Candidates are taken in ascending order, and the masks and bases only
  drop hosts that fail a constraint, so the first embedding found is the
  lexicographically smallest one, as with a plain loop over the hosts.
  `are_isomorphic` is this search too: an isomorphism is an embedding of
  one digraph, as a template that holds each pair to its own kind, into
  another of the same order, with each template vertex restricted to the
  hosts of its own (in, out, digon) degrees.  The sorted degree triples
  are compared first; they also tell different orders apart.  A template
  with more vertices than the host finds nothing: the search runs out of
  unused hosts.
* `find_lollipop` computes, once for all path lengths k, the *heads* (a
  vertex with a digon pair among its non-symmetric in-neighbours, where
  the path starts) and the *tails* (a digon pair among its non-symmetric
  out-neighbours, where it ends), with the pairs themselves.  A digraph
  without both has no lollipop.  Otherwise the search above runs per
  k = 1..n-4, smallest first, with template vertices 0 and 1 restricted
  to the feeding pairs, 2 to the heads, k+1 to the tails and k+2, k+3 to
  the fed pairs; the first hit is still the smallest k, then the smallest
  mapping.
* `find_nonsym_induced_dicycle` grows paths from each start vertex in
  ascending order.  The successors of the last vertex are its
  non-symmetric out-neighbours above the start, off the path and off the
  neighbourhoods of the interior vertices.  Of those, the ones with a
  non-symmetric arc to the start close the cycle and the start's
  non-neighbours extend the path; taking them in ascending order keeps the
  depth-first order of the search by pairs.

Both searches keep their own stack, so the length of a pattern is not
limited by Python's recursion limit.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Optional

from .chordality import _greedy
from .chordality import is_chordal  # noqa: F401  -- perfbench's tracer binds this name
from .digraph import Digraph, PairKind, bits, pair_slots
from .digraph import symmetric_subdigraph  # noqa: F401  -- perfbench's tracer binds this name


class EdgeConstraint(Enum):
    NON_ADJACENT = "non-adjacent"
    ARC_FORWARD = "arc-forward"        # non-symmetric arc i->j for pair (i, j)
    ARC_BACKWARD = "arc-backward"      # non-symmetric arc j->i
    NONSYM_EITHER = "nonsym-either"    # non-symmetric arc, direction free
    DIGON = "digon"
    ANY_ADJACENT = "any-adjacent"


_ALLOWED_KINDS = {
    EdgeConstraint.NON_ADJACENT: (PairKind.NONE,),
    EdgeConstraint.ARC_FORWARD: (PairKind.FORWARD,),
    EdgeConstraint.ARC_BACKWARD: (PairKind.BACKWARD,),
    EdgeConstraint.NONSYM_EITHER: (PairKind.FORWARD, PairKind.BACKWARD),
    EdgeConstraint.DIGON: (PairKind.DIGON,),
    EdgeConstraint.ANY_ADJACENT: (PairKind.FORWARD, PairKind.BACKWARD, PairKind.DIGON),
}


@dataclass(frozen=True)
class PatternTemplate:
    name: str
    k: int
    constraints: dict[tuple[int, int], EdgeConstraint]  # keyed by (i, j), i < j

    def constraint(self, i: int, j: int) -> EdgeConstraint:
        if i > j:
            i, j = j, i
        return self.constraints.get((i, j), EdgeConstraint.NON_ADJACENT)

    @cached_property
    def _plan(self) -> tuple:
        """(need, cut, checks) for the mask search, computed once.

        need[i] bounds the host degrees of template vertex i in the rows
        1..5 of _Masks; every template vertex below cut[i] is non-adjacent
        to i; checks[i] lists (p, row) for p = cut[i]..i-1.
        """
        need = [[0] * 5 for _ in range(self.k)]
        cut = list(range(self.k))
        for (i, j), con in self.constraints.items():
            if con is EdgeConstraint.NON_ADJACENT:
                continue
            for end, rows in zip((i, j), _CONSTRAINT_ROWS[con][1:]):
                for r in rows:
                    need[end][r - 1] += 1
            cut[j] = min(cut[j], i)
        checks = [
            tuple((p, _CONSTRAINT_ROWS[self.constraint(p, i)][0]) for p in range(cut[i], i))
            for i in range(self.k)
        ]
        return [tuple(x) for x in need], cut, checks


@dataclass(frozen=True)
class Embedding:
    name: str
    mapping: tuple[int, ...]  # mapping[t] = host vertex for template vertex t

    def __str__(self) -> str:
        assigns = ", ".join(f"t{t}→h{h}" for t, h in enumerate(self.mapping))
        return f"{self.name}: {assigns}"


@lru_cache(maxsize=None)
def fig1_templates() -> tuple[PatternTemplate, ...]:
    """The four small obstructions, on vertices 0..3 (0..2 for the triangle).

    Cached: every caller shares these objects, so each search plan is
    built once.
    """
    a = PatternTemplate(
        "fig1a",
        4,
        {
            (0, 2): EdgeConstraint.DIGON,
            (1, 3): EdgeConstraint.DIGON,
            (0, 1): EdgeConstraint.NONSYM_EITHER,
            (2, 3): EdgeConstraint.NONSYM_EITHER,
            (1, 2): EdgeConstraint.ANY_ADJACENT,
            (0, 3): EdgeConstraint.ANY_ADJACENT,
        },
    )
    b = PatternTemplate(
        "fig1b",
        4,
        {
            (0, 1): EdgeConstraint.NONSYM_EITHER,
            (1, 2): EdgeConstraint.ARC_FORWARD,   # 1->2
            (2, 3): EdgeConstraint.ARC_BACKWARD,  # 3->2
            (0, 3): EdgeConstraint.DIGON,
            (0, 2): EdgeConstraint.DIGON,
            (1, 3): EdgeConstraint.ARC_BACKWARD,  # 3->1
        },
    )
    c = PatternTemplate(
        "fig1c",
        4,
        {
            (0, 1): EdgeConstraint.NONSYM_EITHER,
            (1, 2): EdgeConstraint.ARC_FORWARD,   # 1->2
            (2, 3): EdgeConstraint.DIGON,
            (0, 3): EdgeConstraint.ARC_BACKWARD,  # 3->0
            (0, 2): EdgeConstraint.ARC_FORWARD,   # 0->2
            (1, 3): EdgeConstraint.ARC_BACKWARD,  # 3->1
        },
    )
    d = PatternTemplate(
        "fig1d",
        3,
        {
            (0, 1): EdgeConstraint.ARC_FORWARD,
            (1, 2): EdgeConstraint.ARC_FORWARD,
            (0, 2): EdgeConstraint.ARC_BACKWARD,  # 2->0 closes the triangle
        },
    )
    return (a, b, c, d)


@lru_cache(maxsize=64)
def lollipop_template(k: int) -> PatternTemplate:
    """Digon pair -> directed path of k non-symmetric arcs' vertices -> digon pair.

    Vertices: 0,1 are the feeding digon pair, 2..k+1 the path, k+2,k+3 the
    fed digon pair.  All unlisted pairs are non-adjacent.  Cached like
    `fig1_templates`.
    """
    if k < 1:
        raise ValueError("lollipop path length k must be at least 1")
    cons = {
        (0, 1): EdgeConstraint.DIGON,
        (k + 2, k + 3): EdgeConstraint.DIGON,
        (0, 2): EdgeConstraint.ARC_FORWARD,
        (1, 2): EdgeConstraint.ARC_FORWARD,
    }
    for i in range(2, k + 1):
        cons[(i, i + 1)] = EdgeConstraint.ARC_FORWARD
    cons[(k + 1, k + 2)] = EdgeConstraint.ARC_FORWARD
    cons[(k + 1, k + 3)] = EdgeConstraint.ARC_FORWARD
    return PatternTemplate(f"lollipop{k}", k + 4, cons)


def expand_template(t: PatternTemplate) -> list[Digraph]:
    """All labeled digraphs that satisfy the template exactly."""
    options = [
        [int(kind) for kind in _ALLOWED_KINDS[t.constraint(i, j)]] for i, j in pair_slots(t.k)
    ]
    return [Digraph(t.k, codes) for codes in itertools.product(*options)]


# A constraint's host row is its position in EdgeConstraint, which is also
# the order of _Masks.rows: row[u] is the set of hosts h whose pair with u,
# seen from u, meets it.
_ROWS = tuple(EdgeConstraint)
_, _NS_OUT, _NS_IN, _, _DIGON, _NBR = range(len(_ROWS))


def _degree_rows(kinds) -> list[int]:
    """The rows 1..5 whose degree a partner of these kinds counts toward:
    every row that allows all of them."""
    return [r for r in range(1, len(_ROWS)) if set(kinds) <= set(_ALLOWED_KINDS[_ROWS[r]])]


def _far_end(kind: PairKind) -> PairKind:
    """The kind of a pair seen from its other end: forward and backward swap."""
    return PairKind((kind & 1) << 1 | kind >> 1)


# per constraint on (i, j): its host row, and the rows whose degree a
# partner under it counts toward at i and at j, derived once
_CONSTRAINT_ROWS = {
    con: (_ROWS.index(con), _degree_rows(kinds), _degree_rows([_far_end(x) for x in kinds]))
    for con, kinds in _ALLOWED_KINDS.items()
}
# the constraint that holds a pair to one kind
_SINGLE = {kinds[0]: con for con, kinds in _ALLOWED_KINDS.items() if len(kinds) == 1}


class _Masks:
    """The rows of one digraph, and the hosts that meet a degree bound."""

    __slots__ = ("n", "rows", "_degrees", "_meeting")

    def __init__(self, d: Digraph):
        digon = d.digon_masks
        nsout = [o & ~g for o, g in zip(d.out_masks, digon)]
        nsin = [i & ~g for i, g in zip(d.in_masks, digon)]
        nbr = [o | i for o, i in zip(d.out_masks, d.in_masks)]
        full = (1 << d.n) - 1
        non_nbr = [full & ~(b | 1 << v) for v, b in enumerate(nbr)]
        ns = [o | i for o, i in zip(nsout, nsin)]
        self.n = d.n
        self.rows = (non_nbr, nsout, nsin, ns, digon, nbr)  # EdgeConstraint order
        self._degrees: Optional[list] = None
        self._meeting: dict[tuple[int, ...], int] = {}

    def meeting(self, need: tuple[int, ...]) -> int:
        """Hosts whose degrees in rows 1..5 are at least `need`."""
        mask = self._meeting.get(need)
        if mask is None:
            if self._degrees is None:
                self._degrees = list(
                    zip(*([m.bit_count() for m in row] for row in self.rows[1:]))
                )
            mask = 0
            for h, deg in enumerate(self._degrees):
                if all(map(operator.ge, deg, need)):
                    mask |= 1 << h
            self._meeting[need] = mask
        return mask


def _embed(m: _Masks, t: PatternTemplate, restrict: dict[int, int]) -> Optional[Embedding]:
    """Lexicographically smallest embedding of t whose template vertex i
    lies in restrict[i] wherever given; see the module docstring."""
    k = t.k
    if k == 0:
        return Embedding(t.name, ())
    need, cut, checks = t._plan
    base = [m.meeting(x) for x in need]
    for i, mask in restrict.items():
        base[i] &= mask
    if not all(base):
        return None
    rows = m.rows
    nbr = rows[_NBR]
    mapping = [0] * k
    cands = [0] * k  # untried hosts per template vertex
    used = [0] * k  # used[i]: hosts of the template vertices below i
    reach = [0] * k  # reach[i]: their neighbours
    cands[0] = base[0]
    i = 0
    while i >= 0:
        c = cands[i]
        if not c:
            i -= 1
            continue
        low = c & -c
        cands[i] = c ^ low
        h = low.bit_length() - 1
        mapping[i] = h
        if i + 1 == k:
            return Embedding(t.name, tuple(mapping))
        i += 1
        used[i] = used[i - 1] | low
        reach[i] = reach[i - 1] | nbr[h]
        c = base[i] & ~(used[i] | reach[cut[i]])
        for p, r in checks[i]:
            if not c:
                break
            c &= rows[r][mapping[p]]
        cands[i] = c
    return None


def find_induced(d: Digraph, t: PatternTemplate) -> Optional[Embedding]:
    """Lexicographically smallest injective embedding of t into d, if any."""
    return _embed(_Masks(d), t, {})


def are_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    """True iff some bijection keeps every pair's kind: an embedding into
    d2 of d1 read as a template that holds each pair to its own kind.  Each
    template vertex may only go to the hosts with its (in, out, digon)
    degrees."""
    deg1, deg2 = (
        [tuple(m.bit_count() for m in ms) for ms in zip(d.in_masks, d.out_masks, d.digon_masks)]
        for d in (d1, d2)
    )
    if sorted(deg1) != sorted(deg2):
        return False
    cons = {pair: _SINGLE[c] for pair, c in zip(pair_slots(d1.n), d1.codes)}
    hosts = {deg: sum(1 << h for h, x in enumerate(deg2) if x == deg) for deg in deg2}
    restrict = {v: hosts[deg] for v, deg in enumerate(deg1)}
    return _embed(_Masks(d2), PatternTemplate("isomorphism", d1.n, cons), restrict) is not None


def find_any_fig1(d: Digraph) -> Optional[Embedding]:
    a, b, c, tri = fig1_templates()
    # fixed-direction templates first: cheapest and most constrained
    for t in (tri, b, c, a):
        hit = find_induced(d, t)
        if hit is not None:
            return hit
    return None


def _pairs_inside(sides: list[int], digon: list[int]) -> tuple[int, int]:
    """The vertices v whose mask sides[v] holds a digon pair, and the union
    of all those pairs."""
    has_digon = sum(1 << v for v, g in enumerate(digon) if g)
    anchors = pairs = 0
    for v, side in enumerate(sides):
        side &= has_digon
        found = 0
        for x in bits(side):
            if digon[x] & side:
                found |= 1 << x | digon[x] & side
        if found:
            anchors |= 1 << v
            pairs |= found
    return anchors, pairs


def find_lollipop(d: Digraph) -> Optional[Embedding]:
    """First lollipop embedding over k = 1..n-4."""
    m = _Masks(d)
    heads, feeding = _pairs_inside(m.rows[_NS_IN], m.rows[_DIGON])
    if not heads:
        return None
    tails, fed = _pairs_inside(m.rows[_NS_OUT], m.rows[_DIGON])
    if not tails:
        return None
    for k in range(1, d.n - 3):
        restrict = {0: feeding, 1: feeding, 2: heads, k + 2: fed, k + 3: fed}
        restrict[k + 1] = tails if k > 1 else heads & tails
        hit = _embed(m, lollipop_template(k), restrict)
        if hit is not None:
            return hit
    return None


def find_nonsym_induced_dicycle(
    d: Digraph, min_len: int = 3
) -> Optional[tuple[int, ...]]:
    """An induced directed cycle of non-symmetric arcs, length >= min_len.

    The cycle vertices must induce exactly the cycle: consecutive pairs are
    single arcs in the cycle direction, everything else is non-adjacent.
    The cycle is reported starting from its smallest vertex; the first hit
    in depth-first order is returned.
    """
    if min_len < 3:
        raise ValueError("directed cycles need at least 3 vertices")
    non_nbr, nsout, nsin, _, _, nbr = _Masks(d).rows
    full = (1 << d.n) - 1
    for first in range(d.n):
        above = full & ~((2 << first) - 1)
        closing = nsin[first] & above
        if not closing or not nsout[first] & above:
            continue
        onward = closing | non_nbr[first] & above
        # cands[j]: untried successors of path[j]; blocked[j]: the path up
        # to path[j] and the neighbours of its interior vertices
        path = [first]
        cands = [nsout[first] & above]
        blocked = [1 << first]
        while cands:
            c = cands[-1]
            if not c:
                cands.pop()
                blocked.pop()
                path.pop()
                continue
            low = c & -c
            cands[-1] = c ^ low
            w = low.bit_length() - 1
            if low & closing:  # never the second vertex: that one is an out-neighbour
                if len(path) + 1 >= min_len:
                    return tuple(path) + (w,)
                continue
            b = blocked[-1] | low
            if len(path) > 1:
                b |= nbr[path[-1]]
            path.append(w)
            blocked.append(b)
            cands.append(nsout[w] & onward & ~b)
    return None


def _rhs(d: Digraph, *detectors) -> bool:
    """A theorem's right side: the symmetric part semi-strict chordal, and
    each detector, in turn, finding nothing in d.

    The symmetric part is decided by the greedy loop on the digon masks:
    they are the in-, out- and digon masks of `symmetric_subdigraph(d)`,
    so this is `is_chordal(symmetric_subdigraph(d), SEMI_STRICT)` without
    building it.  A detector finds something when it returns a truthy
    value (an embedding, a cycle, True).
    """
    sym = d.digon_masks
    if _greedy(sym, sym, sym)[1]:
        return False
    for detect in detectors:
        if detect(d):
            return False
    return True


def theorem4_rhs(d: Digraph) -> bool:
    """Symmetric part semi-strict chordal, and none of the four small
    obstructions present."""
    return _rhs(d, find_any_fig1)


def theorem5_rhs(d: Digraph) -> bool:
    """Like theorem4_rhs, plus no induced non-symmetric directed cycle and
    no lollipop."""
    return _rhs(d, find_any_fig1, find_nonsym_induced_dicycle, find_lollipop)
