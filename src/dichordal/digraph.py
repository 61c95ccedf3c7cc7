"""Loop-free digraphs with digons, stored as neighbourhood bitmasks.

A Digraph is its masks: bit v of out_masks[u] is the arc u->v, in_masks
is the transpose and digon_masks their AND.  Equality and hashing are by
(n, out_masks).  Digraph values are immutable, so they can be shared.

Pair codes are derived from the masks.  Every unordered pair {i, j}
(i < j) carries exactly one of four codes: 0 = non-adjacent, 1 = arc
i->j, 2 = arc j->i, 3 = digon (both arcs).  Pairs are ordered
(0,1),(0,2),(1,2),(0,3),(1,3),(2,3),... so a digraph on n vertices is a
base-4 number with n(n-1)/2 digits, and exhaustive enumeration is a
counter in that unchanged order.  `d.codes` is computed on first use and
cached, so a large digraph never asked for its codes never holds them.

A Digraph is made from whatever its producer already holds:

- pair codes in slot order, each in 0..3: `Digraph(n, codes)`
  (enumeration, generators that draw one code per pair); they are kept;
- out-neighbourhood masks: `from_out_masks(out)` (generators that grow
  out-masks only, `substitute`);
- arcs from outside, such as a parsed file, a literal or a caller of the
  public API: `build(n, arcs)`.

Those two, `induced`, `symmetric_subdigraph` and the locally semicomplete
generator (`classes.generate_locally_semicomplete`, which grows the in-
and out-masks together) write masks straight into the one private mask
constructor, `_from_masks`, without any codes.
"""

from __future__ import annotations

import itertools
import math
import random
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

    __slots__ = ("n", "out_masks", "in_masks", "digon_masks", "_codes")

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
        self._set(tuple(out), tuple(inn), codes)

    def _set(self, out: tuple[int, ...], inn: tuple[int, ...], codes) -> None:
        self.n = len(out)
        self.out_masks = out
        self.in_masks = inn
        self.digon_masks = tuple(a & b for a, b in zip(out, inn))
        self._codes = codes

    @property
    def codes(self) -> tuple[int, ...]:
        """Pair codes in slot order, derived from the masks on first use."""
        if self._codes is None:
            out, inn = self.out_masks, self.in_masks
            self._codes = tuple(
                (inn[j] >> i & 1) | (out[j] >> i & 1) << 1
                for j in range(1, self.n)
                for i in range(j)
            )
        return self._codes

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
        return bool(self.out_masks[u] >> v & 1)

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.out_masks[u] | self.in_masks[u]) >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.out_masks[u]):
                yield (u, v)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_masks)

    def neighbor_mask(self, v: int) -> int:
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
    """The one mask constructor: `inn` must be the transpose of `out`.

    The pair codes are left to be derived on first use."""
    d = Digraph.__new__(Digraph)
    d._set(out, inn, None)
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

    Both u and w must be neighbours of v, and distinct.
    """
    d._check_vertex(v)
    if u == w:
        raise ValueError("u and w must be distinct")
    cells = []
    for x in (u, w):
        if not d.adjacent(v, x):
            raise ValueError(f"vertex {x} is not a neighbour of {v}")
        cells.append((d.has_arc(x, v), d.has_arc(v, x)))
    return cells[0] != cells[1]


def symmetric_subdigraph(d: Digraph) -> Digraph:
    """Spanning subdigraph keeping exactly the arcs that lie in digons."""
    return _from_masks(d.digon_masks, d.digon_masks)


def induced(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subdigraph induced by `vertices`, relabelled by their sorted order.

    New vertex i corresponds to the i-th smallest member of `vertices`,
    so the index remap is simply tuple(sorted(vertices)).
    """
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < d.n):
        raise ValueError("induced set must be a subset of the vertex range")
    rank = [0] * d.n  # rank[v]: the bit of old vertex v in the new masks
    keep = 0
    for i, v in enumerate(vs):
        rank[v] = 1 << i
        keep |= 1 << v
    return _from_masks(_gather(d.out_masks, vs, keep, rank), _gather(d.in_masks, vs, keep, rank))


def _gather(masks, vs, keep, rank) -> tuple[int, ...]:
    """masks[v] for each v in vs, restricted to `keep` and renumbered by rank."""
    rows = []
    for v in vs:
        m = masks[v] & keep
        row = 0
        while m:
            low = m & -m
            row |= rank[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return tuple(rows)


def substitute(d: Digraph, parts: Sequence[Digraph] | Mapping[int, Digraph]) -> Digraph:
    """Replace each vertex v of d by the digraph parts[v].

    Inside a part, arcs are the part's own; between the parts for u and v,
    every cross pair gets an arc x->y exactly when d has the arc u->v.
    Every part must be nonempty.
    """
    blocks = [parts[v] for v in range(d.n)]
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


# -- isomorphism -------------------------------------------------------------


def _invariant(d: Digraph, v: int) -> tuple[int, int, int]:
    return (
        d.in_masks[v].bit_count(),
        d.out_masks[v].bit_count(),
        d.digon_masks[v].bit_count(),
    )


def are_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    """Arc-kind-preserving bijection test; intended for small orders."""
    if d1.n != d2.n:
        return False
    if d1 == d2:
        return True
    inv1 = [_invariant(d1, v) for v in range(d1.n)]
    inv2 = [_invariant(d2, v) for v in range(d2.n)]
    if sorted(inv1) != sorted(inv2):
        return False
    n = d1.n
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or inv1[v] != inv2[w]:
                continue
            ok = True
            for p in range(v):
                if d1.pair_kind(p, v) != d2.pair_kind(mapping[p], w):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


# -- enumeration and random generation ----------------------------------------


def digraph_count(n: int) -> int:
    """Number of labeled digraphs on n vertices: 4^(n(n-1)/2)."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return 4 ** (n * (n - 1) // 2)


def digraph_from_index(n: int, index: int) -> Digraph:
    """Digraph whose pair codes are the base-4 digits of `index`.

    The first pair (0,1) is the most significant digit, so enumeration by
    ascending index is lexicographic on the code tuple.
    """
    m = n * (n - 1) // 2
    if not 0 <= index < digraph_count(n):
        raise ValueError("digraph index out of range")
    codes = [0] * m
    for s in range(m - 1, -1, -1):
        codes[s] = index & 3
        index >>= 2
    return Digraph(n, codes)


def digraph_to_index(d: Digraph) -> int:
    index = 0
    for c in d.codes:
        index = (index << 2) | c
    return index


def enumerate_digraphs(n: int, cap: int = 5) -> Iterator[Digraph]:
    """Yield every labeled digraph on n vertices exactly once.

    Refuses n above `cap` (4^(n(n-1)/2) grows brutally fast).
    """
    if n > cap:
        raise ValueError(f"enumeration cap exceeded: n={n} > cap={cap}")
    for codes in itertools.product(range(4), repeat=n * (n - 1) // 2):
        yield Digraph(n, codes)


def random_digraph(
    n: int, kind_weights: Sequence[float] = (1, 1, 1, 1), seed: int = 0
) -> Digraph:
    """Each unordered pair drawn independently with the given kind weights.

    Weights are (non-adjacent, forward, backward, digon); they must be
    finite and nonnegative with a positive sum.  Deterministic for a fixed
    seed.  n must lie in 0..MAX_VERTICES.
    """
    check_vertex_count(n)
    if len(kind_weights) != 4 or not all(0 <= w < math.inf for w in kind_weights):
        raise ValueError("kind_weights must be 4 finite nonnegative numbers")
    total = float(sum(kind_weights))
    if total <= 0:
        raise ValueError("kind_weights must have positive sum")
    cum = list(itertools.accumulate(w / total for w in kind_weights))
    rng = random.Random(seed)
    codes = []
    for _ in range(n * (n - 1) // 2):
        r = rng.random()
        k = 0
        while k < 3 and r >= cum[k]:
            k += 1
        codes.append(k)
    return Digraph(n, codes)


# -- text format ---------------------------------------------------------------
#
# First line "n m"; then m lines "u v", one per arc (a digon is two lines);
# optionally trailing "# v name" label lines.  serialize() emits arcs sorted,
# so parse(serialize(d)) == d byte-for-byte on the way back out as well.

# Largest vertex count parse() and the generators accept.  The
# representation is dense -- n masks of n bits, and n(n-1)/2 pair codes
# once asked for -- so a header or a size option must not be able to ask
# for billions of bits.
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
    Writing the pieces as they come holds one vertex's lines at a time."""
    yield f"{d.n} {d.arc_count}\n"
    for u, mask in enumerate(d.out_masks):
        if mask:
            yield "".join([f"{u} {v}\n" for v in bits(mask)])
    if names:
        yield "".join([f"# {v} {names[v]}\n" for v in sorted(names)])


def serialize(d: Digraph, names: Mapping[int, str] | None = None) -> str:
    return "".join(serialize_chunks(d, names))


def parse(text: str) -> Digraph:
    d, _ = parse_labeled(text)
    return d


def parse_labeled(text: str) -> tuple[Digraph, dict[int, str]]:
    """Parse the text format, returning the digraph and any vertex names."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    arcs = []
    names: dict[int, str] = {}
    for ln in lines[1:]:
        if ln.startswith("#"):
            fields = ln[1:].split(None, 1)
            if len(fields) != 2:
                raise ValueError(f"malformed label line {ln!r}")
            v = int(fields[0])
            if not 0 <= v < n:
                raise ValueError(f"label line {ln!r} names vertex out of range")
            names[v] = fields[1]
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed arc line {ln!r}")
        u, v = int(fields[0]), int(fields[1])
        arcs.append((u, v))
    if len(arcs) != m:
        raise ValueError(f"header promises {m} arcs, found {len(arcs)}")
    return build(n, arcs), names  # build() re-validates range and loops


def dot_quote(text: str) -> str:
    """Escape `text` for use inside a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def dot_chunks(d: Digraph, names: Mapping[int, str] | None = None) -> Iterator[str]:
    """The text of to_dot(d, names) in pieces: the header, the node lines,
    one chunk of edge lines per column j (pairs i < j, in slot order), then
    the closing brace.  A digon becomes one edge with dir=both."""

    def label(v: int) -> str:
        return dot_quote(names[v] if names and v in names else str(v))

    yield "digraph D {\n"
    yield "".join([f'  {v} [label="{label(v)}"];\n' for v in range(d.n)])
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
