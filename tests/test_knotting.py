import random

import pytest

from dichordal import knotting
from dichordal.chordality import Variant, is_di_simplicial, oracle_is_chordal
from dichordal.digraph import PairKind, build, enumerate_digraphs, random_digraph
from dichordal.knotting import (
    group_max_degree,
    knot_classes,
    knotting_graph,
    lemma1_check,
    ss_chordal_via_knotting,
    theorem2_oracle,
    to_dot,
)


def _compatible(d, v, e, f):
    """Direct compatibility of arcs e and f at v (the defining relation)."""
    e_out = e[0] == v
    f_out = f[0] == v
    if e_out == f_out:
        return False
    fe = e[1] if e_out else e[0]
    ff = f[1] if f_out else f[0]
    if fe == ff:
        return False
    return d.pair_kind(fe, ff) is not PairKind.DIGON


def members_by_vertex(k):
    out = {}
    for c in k.classes:
        out.setdefault(c.owner, []).append(sorted(c.members))
    return out


def test_knot_classes_ex1_d(ex1):
    classes = knot_classes(ex1, 3)
    assert [sorted(c.members) for c in classes] == [
        [(2, 3), (3, 0), (3, 1)],
        [(3, 2)],
    ]
    assert [c.index for c in classes] == [1, 2]


def test_knot_classes_ex1_c(ex1):
    assert [sorted(c.members) for c in knot_classes(ex1, 2)] == [
        [(1, 2), (2, 3)],
        [(3, 2)],
    ]


def test_knot_classes_path_middle():
    path = build(3, [(0, 1), (1, 2)])
    assert [sorted(c.members) for c in knot_classes(path, 1)] == [[(0, 1), (1, 2)]]


def test_knot_classes_in_star():
    star = build(3, [(0, 1), (2, 1)])
    assert [sorted(c.members) for c in knot_classes(star, 1)] == [[(0, 1)], [(2, 1)]]


def test_knot_classes_isolated():
    lone = knot_classes(build(2, [(0, 1)]) , 0)
    assert len(lone) == 1  # sanity: non-isolated still one class here
    iso = knot_classes(build(3, [(0, 1)]), 2)
    assert len(iso) == 1 and iso[0].members == frozenset() and iso[0].index == 1


def test_knotting_graph_ex1_matches_caption(ex1):
    k = knotting_graph(ex1)
    assert len(k.classes) == 7 and len(k.edges) == 6
    assert members_by_vertex(k) == {
        0: [[(0, 1), (3, 0)]],
        1: [[(0, 1), (1, 2)], [(3, 1)]],
        2: [[(1, 2), (2, 3)], [(3, 2)]],
        3: [[(2, 3), (3, 0), (3, 1)], [(3, 2)]],
    }
    # edge endpoints, keyed by arc
    assert {e.arc: (e.a, e.b) for e in k.edges} == {
        (0, 1): ((0, 1), (1, 1)),
        (1, 2): ((1, 1), (2, 1)),
        (2, 3): ((2, 1), (3, 1)),
        (3, 0): ((3, 1), (0, 1)),
        (3, 1): ((3, 1), (1, 2)),
        (3, 2): ((3, 2), (2, 2)),
    }


def test_knotting_graph_ex2_recomputed(ex2):
    k = knotting_graph(ex2)
    assert len(k.classes) == 11 and len(k.edges) == 10
    assert members_by_vertex(k) == {
        0: [[(0, 1)], [(4, 0)]],
        1: [[(0, 1), (1, 4)], [(2, 1)], [(4, 1)]],
        2: [[(2, 1), (2, 4), (3, 2)], [(2, 3), (4, 2)]],
        3: [[(2, 3)], [(3, 2)], [(4, 3)]],
        4: [[(1, 4), (2, 4), (4, 0), (4, 1), (4, 2), (4, 3)]],
    }


def test_knotting_graph_single_arc():
    k = knotting_graph(build(2, [(0, 1)]))
    assert len(k.classes) == 2 and len(k.edges) == 1


def test_group_max_degree(ex1, ex2, monkeypatch):
    assert group_max_degree(knotting_graph(ex1), 3) == 3
    assert group_max_degree(knotting_graph(ex2), 0) == 1
    iso = knotting_graph(build(2, []))
    assert group_max_degree(iso, 0) == 0
    with pytest.raises(ValueError):
        group_max_degree(iso, 9)
    # seeded random digraphs with digons and isolated vertices: the answer is
    # the maximum over the full degree table, computed first
    rng = random.Random(2019)
    graphs = []
    for _ in range(40):
        weights = (rng.choice((1, 3, 6)), 1, 1, rng.choice((0, 1, 3)))
        d = random_digraph(rng.randrange(1, 13), weights, seed=rng.randrange(10**6))
        graphs.append((d, knotting_graph(d)))
    assert any(not d.neighbor_mask(v) for d, _ in graphs for v in range(d.n))
    assert any(any(d.digon_masks) for d, _ in graphs)
    want = [[max(k.degrees()[c.id] for c in k.group(v)) for v in range(d.n)] for d, k in graphs]

    def refuse(self):
        raise AssertionError("degrees() called")

    monkeypatch.setattr(knotting.KnottingGraph, "degrees", refuse)
    for (d, k), row in zip(graphs, want):
        assert [group_max_degree(k, v) for v in range(d.n)] == row


def test_digon_arcs_can_share_both_classes():
    # digon 0<->1 whose two arcs knot together at both endpoints: the
    # knotting graph gets a doubled class pair, one edge per arc
    d = build(6, [(0, 1), (1, 0), (1, 2), (3, 1), (4, 0), (0, 5)])
    k = knotting_graph(d)
    assert len(k.edges) == d.arc_count == 6
    edge = {e.arc: e for e in k.edges}
    e01 = edge[(0, 1)]
    e10 = edge[(1, 0)]
    assert {e01.a, e01.b} == {e10.a, e10.b}  # same unordered class pair
    assert len({e.arc for e in k.edges}) == 6  # still six distinct edges


def test_lemma1_examples(ex1, ex2):
    assert lemma1_check(ex2, 0)
    assert not lemma1_check(ex1, 3)
    assert lemma1_check(build(1, []), 0)


def test_lemma1_exhaustive_n3():
    for d in enumerate_digraphs(3):
        k = knotting_graph(d)
        for v in range(3):
            assert (group_max_degree(k, v) <= 1) == is_di_simplicial(
                d, v, Variant.SEMI_STRICT
            )


def test_lemma1_check_matches_the_graph_route_without_building_it(monkeypatch):
    # every digraph with n <= 4 and seeded random ones up to n = 8; the
    # graph-route answers are computed first, then `knotting_graph` refuses
    cases = [d for n in range(5) for d in enumerate_digraphs(n)]
    cases += [
        random_digraph(n, weights, seed=seed)
        for n in range(5, 9)
        for weights in ((1, 1, 1, 1), (2, 1, 1, 2), (4, 1, 1, 1))
        for seed in range(40)
    ]
    expected = [[group_max_degree(knotting_graph(d), v) <= 1 for v in range(d.n)] for d in cases]

    def refuse(d):
        raise AssertionError("lemma1_check built a knotting graph")

    monkeypatch.setattr(knotting, "knotting_graph", refuse)
    assert [[lemma1_check(d, v) for v in range(d.n)] for d in cases] == expected
    assert {x for row in expected for x in row} == {False, True}
    for d in (build(0, []), build(3, [(0, 1)])):
        for v in (-1, d.n):
            with pytest.raises(ValueError, match="out of range"):
                lemma1_check(d, v)


def test_lemma1_random_n6():
    for seed in range(120):
        d = random_digraph(6, (2, 1, 1, 2), seed=seed)
        k = knotting_graph(d)
        for v in range(6):
            assert (group_max_degree(k, v) <= 1) == is_di_simplicial(
                d, v, Variant.SEMI_STRICT
            )


def test_partition_and_degree_sum_random():
    for seed in range(80):
        d = random_digraph(2 + seed % 6, (1, 1, 1, 1), seed=seed)
        k = knotting_graph(d)
        assert len(k.edges) == d.arc_count
        degrees = k.degrees()
        assert sum(degrees.values()) == 2 * d.arc_count
        for v in range(d.n):
            incident = sorted(
                [(u, v) for u in d.in_neighbors(v)] + [(v, w) for w in d.out_neighbors(v)]
            )
            union = sorted(a for c in k.group(v) for a in c.members)
            assert union == incident  # classes partition E_v
            for c in k.group(v):
                assert degrees[c.id] == len(c.members)


def _bfs_components(d, v, arcs):
    # independent recomputation of the knotting classes by traversal
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


def test_compatibility_closure_matches_traversal():
    for seed in range(40):
        d = random_digraph(6, (1, 1, 1, 1), seed=seed)
        for v in range(6):
            arcs = sorted(
                [(u, v) for u in d.in_neighbors(v)] + [(v, w) for w in d.out_neighbors(v)]
            )
            if not arcs:
                continue
            assert [c.members for c in knot_classes(d, v)] == _bfs_components(d, v, arcs)


def test_ss_chordal_via_knotting(ex1, ex2):
    assert not ss_chordal_via_knotting(ex1)
    assert ss_chordal_via_knotting(ex2)
    assert ss_chordal_via_knotting(build(4, []))


def test_theorem2_oracle_examples(ex1, ex2):
    assert not theorem2_oracle(ex1)
    assert theorem2_oracle(ex2)
    with pytest.raises(ValueError):
        theorem2_oracle(build(13, []))


def test_theorem2_oracle_equals_subset_oracle_n3():
    for d in enumerate_digraphs(3):
        assert theorem2_oracle(d) == oracle_is_chordal(d, Variant.SEMI_STRICT)


def test_knotting_dot_smoke(ex1):
    dot = to_dot(knotting_graph(ex1), {0: "a", 1: "b", 2: "c", 3: "d"})
    assert "subgraph cluster_3" in dot
    assert '"d^1"' in dot
    assert "--" in dot


# a digon path through 39, 37, ..., 1, 0, 2, ..., 38: its arcs' classes
# have different indices at tail and head
ZIGZAG = list(range(39, 0, -2)) + list(range(0, 40, 2))


def ref_to_dot(k, names=None):
    """to_dot as it was: its own line builder over the graph's objects."""
    labels = [
        str((names or {}).get(v, v)).replace("\\", "\\\\").replace('"', '\\"')
        for v in range(k.n)
    ]
    lines = ["graph K {"]
    for v in range(k.n):
        lines.append(f"  subgraph cluster_{v} {{")
        lines.append(f'    label="{labels[v]}";')
        for cls in k.group(v):
            lines.append(f'    c{v}_{cls.index} [label="{labels[v]}^{cls.index}"];')
        lines.append("  }")
    for e in k.edges:
        lines.append(f"  c{e.a[0]}_{e.a[1]} -- c{e.b[0]}_{e.b[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d, names", [
    (build(0, []), None),
    (build(4, [(0, 1), (1, 0), (1, 2)]), None),  # vertex 3 is isolated
    (build(3, [(0, 1), (1, 2), (2, 1), (2, 0)]), {0: 'a"b', 1: "c\\", 2: 'say "x\\y"'}),
    (build(40, [a for u, w in zip(ZIGZAG, ZIGZAG[1:]) for a in ((u, w), (w, u))]), None),
    (build(30, [(i, j) for i in range(30) for j in range(i + 1, 30)]), {5: "five"}),
    (random_digraph(60, (60, 1, 1, 2), seed=3), None),
], ids=["n0", "isolated", "quoted-names", "path-40", "tournament-30", "sparse-60"])
def test_to_dot_equals_the_line_builder_it_replaced(d, names):
    k = knotting_graph(d)
    # the larger inputs have arcs whose class index differs at tail and head
    assert d.n < 5 or any(e.a[1] != e.b[1] for e in k.edges)
    assert to_dot(k, names) == ref_to_dot(k, names)
