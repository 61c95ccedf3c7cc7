"""The mask-based knotting route and subset oracles against the induced-object code.

`_class_masks(d, v, S)` evaluates v's splitting classes inside D[S] on the
parent's neighbourhood masks.  These tests check it against knot_classes
of the real induced subdigraph and against a breadth-first search over the
defining relation `_compatible`, and check the three subset-quantified
checks and the knotting deletion probe against reference copies of the
code that built an induced Digraph and a KnottingGraph for every subset,
every deletion step and every deleted vertex.
"""

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from dichordal.chordality import ORACLE_MAX_N, Variant, _member_sets, is_chordal, oracle_is_chordal
from dichordal.classes import generate_locally_semicomplete
from dichordal.cli import main
from dichordal.digraph import (
    bits,
    build,
    digraph_count,
    digraph_from_index,
    enumerate_digraphs,
    induced,
    random_digraph,
    serialize,
)
from dichordal.knotting import (
    _class_masks,
    knot_classes,
    knotting_graph,
    ss_chordal_via_knotting,
    theorem2_oracle,
)
from dichordal.verify import _deletion_derived_mismatch

from test_knotting import _compatible

ALL_VARIANTS = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def small_digraphs():
    for n in range(5):
        yield from enumerate_digraphs(n)


def sampled_n5(count=500, seed=4):
    rng = random.Random(seed)
    for index in rng.sample(range(digraph_count(5)), count):
        yield digraph_from_index(5, index)


# -- reference copies of the induced-object code ----------------------------------


def ref_knot_classes(d, v):
    # union-find over the direct compatibility relation, all arc pairs
    arcs = sorted([(u, v) for u in bits(d.in_masks[v])] + [(v, w) for w in bits(d.out_masks[v])])
    if not arcs:
        return [frozenset()]
    parent = list(range(len(arcs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if _compatible(d, v, arcs[i], arcs[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i, arc in enumerate(arcs):
        groups.setdefault(find(i), []).append(arc)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def ref_qualifying(d):
    # vertices whose splitting group has max degree <= 1, degrees from the edges
    classes = {v: ref_knot_classes(d, v) for v in range(d.n)}
    degree, cls_of = {}, {}
    for v, group in classes.items():
        for idx, members in enumerate(group):
            degree[(v, idx)] = 0
            cls_of.update(((v, arc), (v, idx)) for arc in members)
    for arc in d.arcs():
        for end in arc:
            degree[cls_of[(end, arc)]] += 1
    return [v for v in range(d.n) if all(degree[(v, i)] <= 1 for i in range(len(classes[v])))]


def ref_ss_chordal_via_knotting(d):
    current = d
    while current.n:
        ok = ref_qualifying(current)
        if not ok:
            return False
        current = induced(current, set(range(current.n)) - {ok[0]})
    return True


def ref_theorem2_oracle(d):
    return all(ref_qualifying(induced(d, bits(mask))) for mask in range(1, 1 << d.n))


def ref_plain_di_simplicial(d, v, variant):
    if variant is Variant.STRICT:
        nb = d.in_neighbors(v) | d.out_neighbors(v)
        return all(d.has_arc(u, w) and d.has_arc(w, u) for u in nb for w in nb if u != w)
    for u in d.in_neighbors(v):
        for w in d.out_neighbors(v):
            if u == w:
                continue
            if not d.has_arc(u, w):
                return False
            if variant is Variant.SEMI_STRICT and not d.has_arc(w, u):
                return False
    return True


def ref_oracle_is_chordal(d, variant):
    for mask in range(1, 1 << d.n):
        sub = induced(d, bits(mask))
        if not any(ref_plain_di_simplicial(sub, v, variant) for v in range(sub.n)):
            return False
    return True


def ref_deletion_derived_mismatch(d, v, k_old=None):
    """The deletion probe as it was: K_D against the knotting graph of an
    induced relabelled copy of D - v, matched through a relabel map."""
    if k_old is None:
        k_old = knotting_graph(d)
    keep = [u for u in range(d.n) if u != v]
    relabel = {u: i for i, u in enumerate(keep)}
    h = induced(d, keep)
    k_new = knotting_graph(h)

    for u in keep:
        if len(k_old.group(u)) != len(k_new.group(relabel[u])):
            return f"class count changes at vertex {u}"
        fwd: dict = {}
        rev: dict = {}
        for x, y in d.arcs():
            if v in (x, y) or u not in (x, y):
                continue
            # an edge's class at u: `.a` when u is the tail, `.b` when the head
            old = k_old.arc_to_edge[(x, y)]
            new = k_new.arc_to_edge[(relabel[x], relabel[y])]
            old_id, new_id = (old.a, new.a) if u == x else (old.b, new.b)
            if fwd.setdefault(old_id, new_id) != new_id:
                return f"class of vertex {u} splits"
            if rev.setdefault(new_id, old_id) != old_id:
                return f"classes of vertex {u} merge"
    return None


# -- class masks -------------------------------------------------------------------


def mask_members(v, masks, relabel=None):
    """Class masks as member-arc sets, optionally relabelled."""
    r = relabel or (lambda x: x)
    return [
        frozenset([(r(u), r(v)) for u in bits(ci)] + [(r(v), r(w)) for w in bits(co)])
        for ci, co in masks
    ]


def test_class_masks_equal_induced_knot_classes_exhaustive_n4():
    for d in small_digraphs():
        for mask in range(1, 1 << d.n):
            sub = induced(d, bits(mask))
            rank = {x: i for i, x in enumerate(bits(mask))}
            for v in bits(mask):
                got = mask_members(v, _class_masks(d, v, mask), rank.__getitem__)
                want = [c.members for c in knot_classes(sub, rank[v])]
                assert (got or [frozenset()]) == want, (d, mask, v)


def bfs_classes(d, v, alive):
    # components of `_compatible` over the arcs at v that stay inside `alive`
    arcs = sorted(
        [(u, v) for u in bits(d.in_masks[v] & alive)]
        + [(v, w) for w in bits(d.out_masks[v] & alive)]
    )
    comps, seen = [], set()
    for a in arcs:
        if a in seen:
            continue
        comp, queue = set(), [a]
        while queue:
            e = queue.pop()
            if e in comp:
                continue
            comp.add(e)
            queue.extend(f for f in arcs if f not in comp and _compatible(d, v, e, f))
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


@pytest.mark.parametrize("n", range(2, 10))
def test_class_masks_match_compatible_bfs_random(n):
    rng = random.Random(n)
    for seed in range(25):
        d = random_digraph(n, (1, 1, 1, 2), seed=1000 * n + seed)
        full = (1 << n) - 1
        for alive in [full] + [rng.randrange(1, full + 1) for _ in range(4)]:
            for v in bits(alive):
                assert mask_members(v, _class_masks(d, v, alive)) == bfs_classes(
                    d, v, alive
                ), (d, alive, v)


# -- subset oracles against the induced-object references ---------------------------


def test_knotting_oracles_match_reference_exhaustive_n4():
    for d in small_digraphs():
        assert ss_chordal_via_knotting(d) == ref_ss_chordal_via_knotting(d), d
        assert theorem2_oracle(d) == ref_theorem2_oracle(d), d


def test_knotting_oracles_match_reference_sampled_n5():
    for d in sampled_n5():
        assert ss_chordal_via_knotting(d) == ref_ss_chordal_via_knotting(d), d
        assert theorem2_oracle(d) == ref_theorem2_oracle(d), d


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_subset_oracle_matches_reference_exhaustive_n4(variant):
    for d in small_digraphs():
        assert oracle_is_chordal(d, variant) == ref_oracle_is_chordal(d, variant), d


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_subset_oracle_matches_reference_sampled_n5(variant):
    for d in sampled_n5():
        assert oracle_is_chordal(d, variant) == ref_oracle_is_chordal(d, variant), d


def test_deletion_probe_matches_copy_based_reference_n2_to_n8():
    kinds = set()
    for seed in range(700):
        n = 2 + seed % 7
        d = random_digraph(n, [(1, 1, 1, 1), (3, 1, 1, 1), (1, 1, 1, 3)][seed % 3], seed=seed)
        k_old = knotting_graph(d)
        for v in range(n):
            got = _deletion_derived_mismatch(d, v)
            assert got == ref_deletion_derived_mismatch(d, v, k_old), (serialize(d), v)
            kinds.add(got and got.split(" vertex")[0])
    # agreement, changed counts and splits all occur; a merge cannot, since
    # deleting v only removes arcs from the compatibility relation at u
    assert kinds == {None, "class count changes at", "class of"}


# -- knotting graph: degree identity and the owner index ------------------------------


def test_degree_identity_and_owner_index_exhaustive_n4():
    for d in small_digraphs():
        k = knotting_graph(d)
        degrees = k.degrees()
        for c in k.classes:
            assert degrees[c.id] == len(c.members)
        for v in range(d.n):
            assert k.group(v) == tuple(c for c in k.classes if c.owner == v)
    with pytest.raises(ValueError):
        knotting_graph(build(2, [(0, 1)])).group(-1)


# -- `knot` output pinned --------------------------------------------------------------


def _digon_path(n):
    # odd labels descending, then even labels ascending
    order = [v for v in range(n - 1, -1, -1) if v % 2] + list(range(0, n, 2))
    arcs = []
    for a, b in zip(order, order[1:]):
        arcs += [(a, b), (b, a)]
    return build(n, arcs)


def _transitive_tournament(n):
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# sha256 of `dichordal knot FILE [flag]` stdout, captured from the code that
# computed classes by union-find over all arc pairs
KNOT_DIGESTS = {
    ("EX1", ""): "ab7848812783795c965192b9cee832249ca1931143f1ce7e0036ce0a53c4c6b3",
    ("EX1", "--json"): "c128202221f1cffd4b0834105b419acc3d715afb7a400d478b1e059bcbc07b93",
    ("EX1", "--dot"): "77e9f3c5c2ec5ca06b0689a9d2c2e07f4b1a1fb181ac14e254802f066dae904e",
    ("EX2", ""): "e46371f20ac1d5fe4e4d4c6e70d208d876c0290f064f65736b48b8d607140fbc",
    ("EX2", "--json"): "328b49a4513592b5c5f29831fd48008eee7f9565da464464cab2110bb395dd02",
    ("EX2", "--dot"): "5d5a1ee9038ac147befd712ebd2ed7d2f3f5ee12a3379dc4186ba1a9ed0ca316",
    ("tt-20", ""): "d7ca96683efe6ee193a1dde5dcda30bb0d021e09b3635ddc019662f9acfcf666",
    ("tt-20", "--json"): "84c51966ffafba0f5540c18b4fe05062876f8d0388a8775d7a7b35767b3e7308",
    ("tt-20", "--dot"): "238baca949920b725c6e4afcd68a40eea5fd3fd8f7b6cf3d3c4585fca2581620",
    ("dp-20", ""): "b2a642221483bb3943634c28f3b812ca818a648d3c91de20352ca9cea8affc24",
    ("dp-20", "--json"): "c5d41a7eac4f02685a339fae78d34241fee1742a3be742d0cf23c3c6cee89a58",
    ("dp-20", "--dot"): "1e17e828124366df4c8a21e4241acf6757fd3f875131d8ce1288244af93b83c2",
}


@pytest.mark.parametrize("name,flag", sorted(KNOT_DIGESTS))
def test_knot_output_is_pinned(tmp_path, name, flag):
    if name == "EX1":
        path = DATA / "example1.dg"
    elif name == "EX2":
        path = DATA / "example2.dg"
    else:
        d = _transitive_tournament(20) if name == "tt-20" else _digon_path(20)
        path = tmp_path / f"{name}.dg"
        path.write_text(serialize(d))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["knot", str(path), *([flag] if flag else [])])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == KNOT_DIGESTS[(name, flag)]


# -- subset oracles above n=5 --------------------------------------------------------
# The subset oracle decides all 2^n subsets as bits of one integer, so the
# bit sets and the comparison against "every nonempty subset" grow with n.

WEIGHTS = [(1, 1, 1, 1), (6, 1, 1, 2), (3, 1, 0, 1), (2, 0, 0, 1), (4, 1, 1, 0)]


def seeded(n, per_weight):
    """Random digraphs of order n under five weightings, then generated lsc ones."""
    for weights in WEIGHTS:
        for seed in range(per_weight):
            yield random_digraph(n, weights, seed=100 * n + seed)
    for seed in range(per_weight):
        yield generate_locally_semicomplete(seed, n)


def test_member_sets_match_brute_force_up_to_n12():
    for n in range(ORACLE_MAX_N + 1):
        has = _member_sets(n)
        assert len(has) == n
        for x in range(n):
            assert has[x] == sum(1 << s for s in range(1 << n) if s >> x & 1), (n, x)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_subset_oracle_matches_reference_n6_to_n8(n, variant):
    outcomes = set()
    for d in seeded(n, 8):
        got = oracle_is_chordal(d, variant)
        assert got == ref_oracle_is_chordal(d, variant), d
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [6, 7])
def test_knotting_oracle_matches_reference_n6_n7(n):
    outcomes = set()
    for d in seeded(n, 4):
        got = theorem2_oracle(d)
        assert got == ref_theorem2_oracle(d), d
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "d",
    [_transitive_tournament(12), build(12, [(i, (i + 1) % 12) for i in range(12)])],
    ids=["transitive-tournament", "dicycle"],
)
def test_oracles_match_greedy_at_n12(d):
    for variant in ALL_VARIANTS:
        assert oracle_is_chordal(d, variant) == is_chordal(d, variant), variant
    assert theorem2_oracle(d) == is_chordal(d, Variant.SEMI_STRICT)


def test_oracles_accept_orders_zero_and_one():
    for n in (0, 1):
        d = build(n, [])
        assert all(oracle_is_chordal(d, variant) for variant in ALL_VARIANTS)
        assert theorem2_oracle(d)
