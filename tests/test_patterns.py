import itertools

import pytest

from dichordal.chordality import Variant, is_chordal, is_di_simplicial
from dichordal.digraph import build, enumerate_digraphs, induced, random_digraph
from dichordal.patterns import (
    _ALLOWED_KINDS,
    EdgeConstraint,
    Embedding,
    expand_template,
    fig1_templates,
    find_any_fig1,
    find_induced,
    find_lollipop,
    find_nonsym_induced_dicycle,
    lollipop_template,
    theorem4_rhs,
    theorem5_rhs,
)

CYCLE3 = build(3, [(0, 1), (1, 2), (2, 0)])


def complete_symmetric(n):
    return build(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def brute_force_match(d, t):
    """Independent matcher: try every injective map in order."""
    for mapping in itertools.permutations(range(d.n), t.k):
        ok = True
        for i in range(t.k):
            for j in range(i + 1, t.k):
                kind = d.pair_kind(mapping[i], mapping[j])
                if kind not in _ALLOWED_KINDS[t.constraint(i, j)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Embedding(t.name, mapping)
    return None


def test_fig1_expansion_counts():
    a, b, c, d = fig1_templates()
    assert len(expand_template(a)) == 36
    assert len(expand_template(b)) == 2
    assert len(expand_template(c)) == 2
    assert len(expand_template(d)) == 1
    assert expand_template(d)[0] == CYCLE3


def test_lollipop_template_shapes():
    t1 = lollipop_template(1)
    assert t1.k == 5
    adjacency = [con for con in t1.constraints.values()]
    assert adjacency.count(EdgeConstraint.DIGON) == 2
    assert adjacency.count(EdgeConstraint.ARC_FORWARD) == 4
    t2 = lollipop_template(2)
    assert t2.k == 6 and t2.constraint(2, 3) is EdgeConstraint.ARC_FORWARD
    t3 = lollipop_template(3)
    assert t3.k == 7
    with pytest.raises(ValueError):
        lollipop_template(0)


def test_templates_are_cached_where_they_are_made():
    # the detectors read these objects, so each template's search plan is
    # built once per process
    assert fig1_templates() is fig1_templates()
    for k in range(1, 9):
        assert lollipop_template(k) is lollipop_template(k)


def test_embedding_str_names_the_host_vertex_of_each_template_vertex():
    assert str(Embedding("fig1d", (4, 0, 2))) == "fig1d: t0→h4, t1→h0, t2→h2"


def test_find_induced_triangle_identity():
    t = fig1_templates()[3]
    assert find_induced(CYCLE3, t) == Embedding("fig1d", (0, 1, 2))


def test_example1_contains_no_fig1(ex1):
    for t in fig1_templates():
        assert find_induced(ex1, t) is None
    assert find_any_fig1(ex1) is None


def test_expansions_self_match():
    for t in fig1_templates():
        for host in expand_template(t):
            assert find_induced(host, t) is not None
    host = expand_template(lollipop_template(2))[0]
    hit = find_lollipop(host)
    assert hit is not None and hit.name == "lollipop2"


def test_find_returns_lex_smallest():
    # two disjoint copies of the directed triangle; the matcher must pick
    # the one on the smaller labels
    d = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert find_any_fig1(d).mapping == (0, 1, 2)


def test_complete_symmetric_matches_nothing():
    host = complete_symmetric(6)
    assert find_any_fig1(host) is None
    assert find_lollipop(host) is None
    assert theorem4_rhs(host) and theorem5_rhs(host)


def test_example2_rhs(ex2):
    assert find_any_fig1(ex2) is None
    assert theorem4_rhs(ex2)
    assert theorem5_rhs(ex2)


def test_matcher_agrees_with_brute_force_exhaustive_n4():
    templates = fig1_templates()
    for d in enumerate_digraphs(4):
        for t in templates:
            assert find_induced(d, t) == brute_force_match(d, t)


def test_matcher_agrees_with_brute_force_random_n5():
    templates = fig1_templates() + (lollipop_template(1),)
    for seed in range(60):
        d = random_digraph(5, (1, 1, 1, 1), seed=seed)
        for t in templates:
            assert find_induced(d, t) == brute_force_match(d, t)


def test_match_monotone_under_restriction():
    t = fig1_templates()[0]
    for seed in range(200):
        d = random_digraph(6, (1, 1, 1, 2), seed=seed)
        hit = find_induced(d, t)
        if hit is None:
            continue
        sub = induced(d, hit.mapping)
        assert find_induced(sub, t) is not None


# -- induced non-symmetric directed cycles ---------------------------------------


def test_dicycle_basics(ex1):
    assert find_nonsym_induced_dicycle(CYCLE3) == (0, 1, 2)
    assert find_nonsym_induced_dicycle(ex1) is None
    with pytest.raises(ValueError):
        find_nonsym_induced_dicycle(CYCLE3, 2)


def test_dicycle_chord_excludes_four_cycle():
    # chord 0->2 kills the 4-cycle but creates the induced triangle 0,2,3
    d = build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert find_nonsym_induced_dicycle(d) == (0, 2, 3)
    assert find_nonsym_induced_dicycle(d, min_len=4) is None


def test_dicycle_min_len_threshold():
    c4 = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert find_nonsym_induced_dicycle(c4, 4) == (0, 1, 2, 3)
    assert find_nonsym_induced_dicycle(c4, 5) is None


def _dicycle_exists_brute(d, min_len):
    for k in range(min_len, d.n + 1):
        for verts in itertools.combinations(range(d.n), k):
            sub = induced(d, verts)
            if sub.arc_count != k or any(c == 3 for c in sub.codes):
                continue
            if any(
                sub.out_masks[v].bit_count() != 1 or sub.in_masks[v].bit_count() != 1
                for v in range(k)
            ):
                continue
            # one cycle through all k vertices, not several small ones
            seen, v = {0}, 0
            while True:
                v = next(iter(sub.out_neighbors(v)))
                if v == 0:
                    break
                seen.add(v)
            if len(seen) == k:
                return True
    return False


def test_dicycle_agrees_with_subset_brute_force():
    for d in enumerate_digraphs(4):
        assert (find_nonsym_induced_dicycle(d) is not None) == _dicycle_exists_brute(d, 3)
    for seed in range(120):
        d = random_digraph(6, (2, 2, 2, 1), seed=seed)
        assert (find_nonsym_induced_dicycle(d) is not None) == _dicycle_exists_brute(d, 3)


# -- family soundness ---------------------------------------------------------------


def test_every_fig1_concretization_is_rejected():
    for t in fig1_templates():
        for host in expand_template(t):
            assert not is_chordal(host, Variant.SEMI_STRICT)
            assert not any(
                is_di_simplicial(host, v, Variant.SEMI_STRICT) for v in range(host.n)
            )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_lollipop_is_rejected(k):
    (host,) = expand_template(lollipop_template(k))
    assert not is_chordal(host, Variant.SEMI_STRICT)
    assert not any(is_di_simplicial(host, v, Variant.SEMI_STRICT) for v in range(host.n))


def test_rhs_examples():
    assert not theorem4_rhs(CYCLE3)
    assert not theorem5_rhs(CYCLE3)


def test_ss_chordal_small_digraphs_pass_rhs_necessity():
    # necessity side of both characterizations, checked exhaustively
    for d in enumerate_digraphs(4):
        if is_chordal(d, Variant.SEMI_STRICT):
            assert find_any_fig1(d) is None
            assert find_nonsym_induced_dicycle(d) is None


def test_dicycle_lemma_exhaustive_n5():
    # every semi-strict chordal digraph on 5 vertices is free of induced
    # non-symmetric dicycles and has a chordal symmetric part; scans the
    # full million-instance space, ~19s on a shared 2-core x86_64 host
    from dichordal.chordality import underlying_SD_is_chordal
    from dichordal.digraph import digraph_count, digraph_from_index

    chordal_seen = 0
    for i in range(digraph_count(5)):
        d = digraph_from_index(5, i)
        if not is_chordal(d, Variant.SEMI_STRICT):
            continue
        chordal_seen += 1
        assert find_nonsym_induced_dicycle(d, 3) is None
        assert underlying_SD_is_chordal(d)
    assert chordal_seen == 358302
