"""Loop-free digraphs with digons, stored as neighbourhood bitmasks.

A Digraph is its masks: bit v of out_masks[u] is the arc u->v, in_masks
is the transpose and digon_masks their AND.  Equality and hashing are by
(n, out_masks).  Digraph values are immutable, so they can be shared.

Pair codes are derived from the masks.  Every unordered pair {i, j}
(i < j) carries exactly one of four codes: 0 = non-adjacent, 1 = arc
i->j, 2 = arc j->i, 3 = digon (both arcs).  Pairs are ordered
(0,1),(0,2),(1,2),(0,3),(1,3),(2,3),... so a digraph on n vertices is a
base-4 number with n(n-1)/2 digits, and exhaustive enumeration is a
counter in that unchanged order.  A Digraph holds only its masks:
`d.codes` is derived from them on each read and not kept, so a large
digraph never holds its n(n-1)/2 codes.

A Digraph is made from whatever its producer already holds:

- pair codes in slot order, each in 0..3: `Digraph(n, codes)`
  (generators that draw one code per pair), which decodes them into
  masks and drops them;
- out-neighbourhood masks: `from_out_masks(out)` (generators that grow
  out-masks only, `substitute`);
- arcs from outside, such as a parsed file, a literal or a caller of the
  public API: `build(n, arcs)`;
- an enumeration index: `digraph_from_index(n, index)` (enumeration,
  the exhaustive checks), which reads its base-4 digits straight into
  masks.

Those three, `induced`, `symmetric_subdigraph` and the locally semicomplete
generator (`classes.generate_locally_semicomplete`, which grows the in-
and out-masks together) write masks straight into the one private mask
constructor, `_from_masks`.

The way back is the one pair-code encoder, `digraph_to_index(d,
vertices)`: it reads each pair's code from the out-masks, for the whole
digraph, for the subdigraph induced on an ascending vertex subset, or for
a relabelling given as a permutation.  It is the only code that writes an
index from a Digraph; `d.codes` stays the public per-pair view.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
import sys
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence


class PairKind(IntEnum):
    """Adjacency kind of an ordered vertex pair (u, v)."""

    NONE = 0
    FORWARD = 1   # arc u->v only
    BACKWARD = 2  # arc v->u only
    DIGON = 3     # both arcs


_KINDS = tuple(PairKind)


def pair_slots(n: int) -> list[tuple[int, int]]:
    """Unordered pairs in enumeration order: (0,1),(0,2),(1,2),(0,3),..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def slot_index(i: int, j: int) -> int:
    """Position of pair (i, j), i < j, in the enumeration order."""
    return j * (j - 1) // 2 + i


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Digraph:
    """Immutable digraph on vertices 0..n-1 without loops or multi-arcs."""

    __slots__ = ("n", "out_masks", "in_masks", "digon_masks")

    def __init__(self, n: int, codes: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        codes = tuple(codes)
        m = n * (n - 1) // 2
        if len(codes) != m:
            raise ValueError(f"expected {m} pair codes for n={n}, got {len(codes)}")
        if codes and not (0 <= min(codes) and max(codes) <= 3):
            raise ValueError("pair codes must lie in 0..3")
        out = [0] * n
        inn = [0] * n
        s = 0
        for j in range(1, n):  # column j holds the pairs (0, j) .. (j-1, j)
            bit_j = 1 << j
            to_j = from_j = 0
            for i, c in enumerate(codes[s:s + j]):
                if c & 1:  # arc i->j
                    out[i] |= bit_j
                    to_j |= 1 << i
                if c & 2:  # arc j->i
                    inn[i] |= bit_j
                    from_j |= 1 << i
            out[j] = from_j
            inn[j] = to_j
            s += j
        self._set(tuple(out), tuple(inn))

    def _set(self, out: tuple[int, ...], inn: tuple[int, ...]) -> None:
        self.n = len(out)
        self.out_masks = out
        self.in_masks = inn
        self.digon_masks = tuple(map(operator.and_, out, inn))

    @property
    def codes(self) -> tuple[int, ...]:
        """Pair codes in slot order, derived from the masks on each read."""
        out, inn = self.out_masks, self.in_masks
        return tuple(
            (inn[j] >> i & 1) | (out[j] >> i & 1) << 1
            for j in range(1, self.n)
            for i in range(j)
        )

    # -- structural equality ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_masks == other.out_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs())})"

    # -- queries ------------------------------------------------------------

    def pair_kind(self, u: int, v: int) -> PairKind:
        """Adjacency kind of {u, v} oriented as (u, v)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("pair_kind needs two distinct vertices")
        return _KINDS[(self.out_masks[u] >> v & 1) | (self.in_masks[u] >> v & 1) << 1]

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.out_masks[u] >> v & 1)

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.out_masks[u] | self.in_masks[u]) >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.out_masks[u]):
                yield (u, v)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_masks)

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self.out_masks[v] | self.in_masks[v]

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(bits(self.in_masks[v]))

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(bits(self.out_masks[v]))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")


def _from_masks(out: tuple[int, ...], inn: tuple[int, ...]) -> Digraph:
    """The one mask constructor: `inn` must be the transpose of `out`."""
    d = Digraph.__new__(Digraph)
    d._set(out, inn)
    return d


def build(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Digraph with exactly the given arcs; duplicates collapse.

    Raises ValueError on a loop or an out-of-range endpoint.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    out = [0] * n
    inn = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop arc ({u},{v}) not allowed")
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return _from_masks(tuple(out), tuple(inn))


def from_out_masks(out: Sequence[int]) -> Digraph:
    """Digraph on len(out) vertices whose vertex u has out-neighbours out[u].

    Raises ValueError on a loop bit or a bit outside 0..n-1, like build().
    """
    n = len(out)
    inn = [0] * n
    for u, mask in enumerate(out):
        if mask < 0 or mask >> n:
            raise ValueError(f"out-mask of vertex {u} has a bit outside 0..{n - 1}")
        if mask >> u & 1:
            raise ValueError(f"loop arc ({u},{u}) not allowed")
        bit_u = 1 << u
        for v in bits(mask):
            inn[v] |= bit_u
    return _from_masks(tuple(out), tuple(inn))


def asynchronous(d: Digraph, v: int, u: int, w: int) -> bool:
    """True iff u and w sit in different cells of {in-only, out-only, both} at v.

    Both u and w must be neighbours of v, and distinct.  The cell of x is
    the kind of the pair (v, x).
    """
    if u == w:
        raise ValueError("u and w must be distinct")
    cu, cw = d.pair_kind(v, u), d.pair_kind(v, w)
    for x, cell in ((u, cu), (w, cw)):
        if cell is PairKind.NONE:
            raise ValueError(f"vertex {x} is not a neighbour of {v}")
    return cu != cw


def symmetric_subdigraph(d: Digraph) -> Digraph:
    """Spanning subdigraph keeping exactly the arcs that lie in digons."""
    return _from_masks(d.digon_masks, d.digon_masks)


def induced(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subdigraph induced by `vertices`, relabelled by their sorted order.

    New vertex i corresponds to the i-th smallest member of `vertices`,
    so the index remap is simply tuple(sorted(vertices)).  The kept
    vertices fall into runs of consecutive labels; a run keeps its bit
    order under the relabelling, so `_gather` moves each run with one
    mask and one shift.
    """
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < d.n):
        raise ValueError("induced set must be a subset of the vertex range")
    run = [None] * d.n  # run[v]: (span, drop) of the run of kept vertices holding v
    keep = 0
    # v - i is constant exactly along a run of consecutive kept vertices:
    # it is the run's drop, the shift that renumbers all of its bits
    for drop, members in itertools.groupby(enumerate(vs), lambda iv: iv[1] - iv[0]):
        first = next(members)[1]
        last = first + sum(1 for _ in members)
        span = ((2 << last) - 1) ^ ((1 << first) - 1)  # bits first..last
        keep |= span
        run[first:last + 1] = [(span, drop)] * (last + 1 - first)
    return _from_masks(_gather(d.out_masks, vs, keep, run), _gather(d.in_masks, vs, keep, run))


def _gather(masks, vs, keep, run) -> tuple[int, ...]:
    """masks[v] for each v in vs, restricted to `keep` and renumbered.

    Run by run: the lowest set bit of what is left names a run of kept
    vertices, and that run's bits move in one step.  A row costs one step
    per run it meets, never more than one per set bit; when every vertex
    is kept, a row is one step."""
    rows = []
    for v in vs:
        m = masks[v] & keep
        row = 0
        while m:
            span, drop = run[(m & -m).bit_length() - 1]
            row |= (m & span) >> drop
            m &= ~span
        rows.append(row)
    return tuple(rows)


def substitute(d: Digraph, parts: Sequence[Digraph]) -> Digraph:
    """Replace each vertex v of d by the digraph parts[v].

    Inside a part, arcs are the part's own; between the parts for u and v,
    every cross pair gets an arc x->y exactly when d has the arc u->v.
    There must be exactly one part per vertex of d, and every part must be
    nonempty; otherwise ValueError.
    """
    blocks = list(parts)
    if len(blocks) != d.n:
        raise ValueError(f"expected {d.n} substitution parts, got {len(blocks)}")
    if any(p.n == 0 for p in blocks):
        raise ValueError("substitution parts must be nonempty")
    offsets = [0] * d.n
    spans = [0] * d.n
    total = 0
    for v, p in enumerate(blocks):
        offsets[v] = total
        spans[v] = ((1 << p.n) - 1) << total
        total += p.n
    out = []
    for v, p in enumerate(blocks):
        cross = 0
        for w in bits(d.out_masks[v]):
            cross |= spans[w]
        out.extend(m << offsets[v] | cross for m in p.out_masks)
    return from_out_masks(out)


# -- enumeration and random generation ----------------------------------------


def digraph_count(n: int) -> int:
    """Number of labeled digraphs on n vertices: 4^(n(n-1)/2)."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return 4 ** (n * (n - 1) // 2)


def digraph_from_index(n: int, index: int) -> Digraph:
    """Digraph whose pair codes are the base-4 digits of `index`.

    The first pair (0,1) is the most significant digit, so enumeration by
    ascending index is lexicographic on the code tuple.  The digits are
    read from the least significant end, the last pair (n-2, n-1) first,
    straight into the out- and in-masks, and the walk stops once no
    nonzero digit is left: no code list is built and leading zero pairs
    cost nothing.
    """
    if not 0 <= index < digraph_count(n):
        raise ValueError("digraph index out of range")
    out = [0] * n
    inn = [0] * n
    i, j = n - 2, n - 1
    while index:
        c = index & 3
        if c & 1:  # arc i->j
            out[i] |= 1 << j
            inn[j] |= 1 << i
        if c & 2:  # arc j->i
            inn[i] |= 1 << j
            out[j] |= 1 << i
        index >>= 2
        if i:
            i -= 1
        else:  # column j is done; the pairs (0, j-1) .. (j-2, j-1) come next
            j -= 1
            i = j - 1
    return _from_masks(tuple(out), tuple(inn))


def digraph_to_index(d: Digraph, vertices: Sequence[int] | None = None) -> int:
    """Index of the digraph that d induces on the distinct `vertices` (all
    of d by default), relabelled 0, 1, ... in the order given.

    The one pair-code encoder: in slot order, pair (s[i], s[j]), i < j,
    gets bit 0 from the arc s[i] -> s[j] and bit 1 from the arc back, read
    straight from the out-masks.  An ascending `vertices` gives the induced
    subdigraph, and a permutation of range(d.n) a relabelling."""
    out, index = d.out_masks, 0
    s = range(d.n) if vertices is None else vertices
    for j, y in enumerate(s):
        for x in s[:j]:
            index = index << 2 | (out[x] >> y & 1) | (out[y] >> x & 1) << 1
    return index


def enumerate_digraphs(n: int, cap: int = 5) -> Iterator[Digraph]:
    """Yield every labeled digraph on n vertices exactly once.

    The digraphs are `digraph_from_index(n, i)` for i = 0, 1, ..., which
    is lexicographic order on the code tuple, pair (0,1) most significant.
    Refuses n above `cap` (4^(n(n-1)/2) grows brutally fast) at the first
    `next()`.
    """
    if n > cap:
        raise ValueError(f"enumeration cap exceeded: n={n} > cap={cap}")
    for index in range(digraph_count(n)):
        yield digraph_from_index(n, index)


def random_digraph(
    n: int, kind_weights: Sequence[float] = (1, 1, 1, 1), seed: int = 0
) -> Digraph:
    """Each unordered pair drawn independently with the given kind weights.

    Weights are (non-adjacent, forward, backward, digon); they must be
    finite and nonnegative, with a positive sum that a float holds.  A
    kind of weight 0 is never drawn.  Deterministic for a fixed seed.  n
    must lie in 0..MAX_VERTICES.
    """
    check_vertex_count(n)
    if len(kind_weights) != 4 or not all(0 <= w < math.inf for w in kind_weights):
        raise ValueError("kind_weights must be 4 finite nonnegative numbers")
    total = sum(kind_weights)
    if not 0 < total <= sys.float_info.max:
        raise ValueError("kind_weights must have a positive sum within the float range")
    # the last kind of positive weight takes every r past the cumulative
    # weight before it, whatever rounding leaves in its own
    last = max(k for k, w in enumerate(kind_weights) if w)
    cum = list(itertools.accumulate(w / float(total) for w in kind_weights))[:last]
    rng = random.Random(seed)
    return Digraph(n, [bisect.bisect_right(cum, rng.random()) for _ in range(n * (n - 1) // 2)])


# -- text format ---------------------------------------------------------------
#
# First line "n m"; then m lines "u v", one per arc (a digon is two lines);
# optionally trailing "# v name" label lines.  serialize() emits arcs sorted,
# so parse(serialize(d)) == d byte-for-byte on the way back out as well.

# Largest vertex count parse() and the generators accept.  The
# representation is dense -- n masks of n bits, and n(n-1)/2 pair codes
# on each read of `codes` -- so a header or a size option must not be
# able to ask for billions of bits.
MAX_VERTICES = 4096


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= MAX_VERTICES."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def serialize_chunks(d: Digraph, names: Mapping[int, str] | None = None) -> Iterator[str]:
    """The text of serialize(d, names) in pieces: the header line, one
    chunk of arc lines per vertex with out-arcs, then the name lines.
    Writing the pieces as they come holds one vertex's lines at a time.

    Raises ValueError for a name that the parser would refuse or read back
    differently: one whose key is not an int in 0..n-1, or one that is not
    a str, is empty, has surrounding whitespace or holds a line boundary.
    A label line spells its vertex as an arc line does, so a bool key is
    written as the int it equals."""
    for v, name in (names or {}).items():
        if not (isinstance(v, int) and 0 <= v < d.n):
            raise ValueError(f"name {name!r} is on vertex {v!r}, outside 0..{d.n - 1}")
        if not isinstance(name, str) or name.strip() != name or name.splitlines() != [name]:
            raise ValueError(f"name {name!r} of vertex {v} cannot be written on one label line")
    yield f"{d.n} {d.arc_count}\n"
    labels = _labels(d.n, None)
    for u, mask in enumerate(d.out_masks):
        if mask:
            pre = labels[u] + " "
            yield pre + ("\n" + pre).join([labels[v] for v in bits(mask)]) + "\n"
    if names:
        yield "".join([f"# {labels[v]} {names[v]}\n" for v in sorted(names)])


def serialize(d: Digraph, names: Mapping[int, str] | None = None) -> str:
    return "".join(serialize_chunks(d, names))


def parse(text: str) -> Digraph:
    d, _ = parse_labeled(text)
    return d


def parse_labeled(text: str) -> tuple[Digraph, dict[int, str]]:
    """Parse the text format, returning the digraph and any vertex names.

    The neighbourhood masks are filled line by line.  An arc token that
    is a vertex's own decimal spelling is looked up in a table of the
    spellings of 0..n-1; only other tokens go through int().  The first arc
    that `build` would refuse is kept and raised through `build` after the
    arc count is checked, so the errors and their order are `build`'s.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    if not lines:
        raise ValueError("empty digraph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n m'") from None
    if n < 0 or m < 0:
        raise ValueError("header counts must be nonnegative")
    check_vertex_count(n)
    out = [0] * n
    inn = [0] * n
    # any other token ("007", "+1", a vertex out of range) or a loop goes
    # through int(), so every message and the refused arc stay int()'s
    vertex = {s: v for v, s in enumerate(_labels(n, None))}
    bit = [1 << v for v in range(n)]
    count = 0
    refused = None  # the first arc build() would refuse
    names: dict[int, str] = {}
    for ln in lines[1:]:
        if ln.startswith("#"):
            fields = ln[1:].split(None, 1)
            if len(fields) != 2:
                raise ValueError(f"malformed label line {ln!r}")
            try:
                v = int(fields[0])
            except ValueError:
                raise ValueError(f"malformed label line {ln!r}") from None
            if not 0 <= v < n:
                raise ValueError(f"label line {ln!r} names vertex out of range")
            names[v] = fields[1]
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed arc line {ln!r}")
        count += 1
        u = vertex.get(fields[0])
        v = vertex.get(fields[1])
        if u is None or v is None or u == v:
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"malformed arc line {ln!r}") from None
            if not (0 <= u < n and 0 <= v < n and u != v):
                if refused is None:
                    refused = (u, v)
                continue
        out[u] |= bit[v]
        inn[v] |= bit[u]
    if count != m:
        raise ValueError(f"header promises {m} arcs, found {count}")
    if refused is not None:
        build(n, [refused])  # raises build's error for that arc
    return _from_masks(tuple(out), tuple(inn)), names


def _labels(n: int, names: Mapping[int, str] | None) -> list[str]:
    """Each vertex's printed label: its name, else its number."""
    names = names or {}
    return [names.get(v, str(v)) for v in range(n)]


def dot_quote(text: str) -> str:
    """Escape `text` for use inside a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def dot_chunks(d: Digraph, names: Mapping[int, str] | None = None) -> Iterator[str]:
    """The text of to_dot(d, names) in pieces: the header, the node lines,
    one chunk of edge lines per column j (pairs i < j, in slot order), then
    the closing brace.  A digon becomes one edge with dir=both."""
    yield "digraph D {\n"
    labels = _labels(d.n, names)
    yield "".join([f'  {v} [label="{dot_quote(labels[v])}"];\n' for v in range(d.n)])
    for j in range(1, d.n):
        to_j, from_j = d.in_masks[j], d.out_masks[j]
        lines = []
        for i in bits((to_j | from_j) & ((1 << j) - 1)):
            if not from_j >> i & 1:
                lines.append(f"  {i} -> {j};\n")
            elif not to_j >> i & 1:
                lines.append(f"  {j} -> {i};\n")
            else:
                lines.append(f"  {i} -> {j} [dir=both];\n")
        yield "".join(lines)
    yield "}\n"


def to_dot(d: Digraph, names: Mapping[int, str] | None = None) -> str:
    """DOT export; a digon becomes one edge with dir=both."""
    return "".join(dot_chunks(d, names))
