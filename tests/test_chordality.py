import itertools

import pytest

from dichordal.chordality import (
    EliminationOrdering,
    Variant,
    elimination_ordering,
    is_chordal,
    is_di_simplicial,
    oracle_is_chordal,
    stalled_subdigraph,
    underlying_SD_is_chordal,
    verify_ordering,
    witness,
)
from dichordal.digraph import (
    Digraph,
    build,
    enumerate_digraphs,
    induced,
    random_digraph,
    symmetric_subdigraph,
)

ALL_VARIANTS = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)


def complete_symmetric(n):
    return build(n, [(i, j) for i in range(n) for j in range(n) if i != j])


# -- di-simplicial tests ---------------------------------------------------------


def test_ex2_vertex_a_semi_strict(ex2):
    # in-neighbour e and out-neighbour b are joined by a digon
    assert is_di_simplicial(ex2, 0, Variant.SEMI_STRICT)


def test_ex1_vertex_d_fails_with_witness(ex1):
    assert not is_di_simplicial(ex1, 3, Variant.SEMI_STRICT)
    assert witness(ex1, 3, Variant.SEMI_STRICT) == (2, 3, 0)


def test_isolated_vertex_all_variants():
    d = build(1, [])
    for variant in ALL_VARIANTS:
        assert is_di_simplicial(d, 0, variant)
        assert witness(d, 0, variant) is None


def test_variant_implications_per_vertex_exhaustive_n3():
    for d in enumerate_digraphs(3):
        for v in range(3):
            strict = is_di_simplicial(d, v, Variant.STRICT)
            semi = is_di_simplicial(d, v, Variant.SEMI_STRICT)
            chordal = is_di_simplicial(d, v, Variant.CHORDAL)
            assert not strict or semi
            assert not semi or chordal


def test_witness_none_for_ex2_a(ex2):
    assert witness(ex2, 0, Variant.SEMI_STRICT) is None


def test_witness_agrees_with_test_everywhere():
    for seed in range(40):
        d = random_digraph(6, (2, 1, 1, 1), seed=seed)
        for v in range(6):
            for variant in ALL_VARIANTS:
                w = witness(d, v, variant)
                assert (w is None) == is_di_simplicial(d, v, variant)
                if w is not None:
                    assert w.v == v and w.u != w.w


# -- elimination orderings --------------------------------------------------------


def test_greedy_ordering_ex2(ex2):
    # stepwise greedy with the lowest-index tie-break: a, b, d, c, e
    ordering = elimination_ordering(ex2, Variant.SEMI_STRICT)
    assert ordering == EliminationOrdering((0, 1, 3, 2, 4), Variant.SEMI_STRICT)
    assert verify_ordering(ex2, ordering)


def test_ex1_has_no_ordering(ex1):
    assert elimination_ordering(ex1, Variant.SEMI_STRICT) is None
    assert stalled_subdigraph(ex1, Variant.SEMI_STRICT) == (0, 1, 2, 3)


def test_arcless_identity_ordering():
    d = build(4, [])
    for variant in ALL_VARIANTS:
        assert elimination_ordering(d, variant).order == (0, 1, 2, 3)


def test_verify_ordering_accepts_alternative(ex2):
    # a, d, b, c, e is valid too, though not what the greedy picks
    assert verify_ordering(ex2, EliminationOrdering((0, 3, 1, 2, 4), Variant.SEMI_STRICT))


def test_verify_ordering_rejects_bad_start(ex2):
    # e in front has in-neighbour b and out-neighbour a with no digon b<->a
    bad = EliminationOrdering((4, 0, 3, 1, 2), Variant.SEMI_STRICT)
    assert not verify_ordering(ex2, bad)


def test_verify_ordering_k1():
    assert verify_ordering(build(1, []), EliminationOrdering((0,), Variant.SEMI_STRICT))


def test_verify_ordering_requires_permutation(ex2):
    with pytest.raises(ValueError):
        verify_ordering(ex2, EliminationOrdering((0, 0, 1, 2, 3), Variant.SEMI_STRICT))


def test_is_chordal_examples(ex1, ex2):
    assert is_chordal(ex2, Variant.SEMI_STRICT)
    assert not is_chordal(ex1, Variant.SEMI_STRICT)
    assert not is_chordal(build(3, [(0, 1), (1, 2), (2, 0)]), Variant.SEMI_STRICT)
    assert is_chordal(complete_symmetric(4), Variant.STRICT)


def test_empty_digraph_vacuously_chordal():
    d = build(0, [])
    for variant in ALL_VARIANTS:
        assert is_chordal(d, variant)
        assert oracle_is_chordal(d, variant)


# -- oracle ------------------------------------------------------------------------


def test_oracle_examples(ex1, ex2):
    assert not oracle_is_chordal(ex1, Variant.SEMI_STRICT)
    assert oracle_is_chordal(ex2, Variant.SEMI_STRICT)


def test_oracle_cap():
    with pytest.raises(ValueError):
        oracle_is_chordal(build(13, []), Variant.SEMI_STRICT)


def test_greedy_equals_oracle_exhaustive_n3():
    for d in enumerate_digraphs(3):
        for variant in ALL_VARIANTS:
            assert is_chordal(d, variant) == oracle_is_chordal(d, variant)


def test_greedy_equals_oracle_random_n5_n6():
    for seed in range(2000):
        d = random_digraph(5 + seed % 2, (2, 1, 1, 2), seed=seed)
        assert is_chordal(d, Variant.SEMI_STRICT) == oracle_is_chordal(
            d, Variant.SEMI_STRICT
        )


def test_greedy_equals_ordering_search_n4():
    # some permutation passes verify_ordering iff the greedy succeeds
    for n in (3, 4):
        for d in enumerate_digraphs(n):
            greedy = is_chordal(d, Variant.SEMI_STRICT)
            brute = any(
                verify_ordering(d, EliminationOrdering(perm, Variant.SEMI_STRICT))
                for perm in itertools.permutations(range(n))
            )
            assert greedy == brute


def test_hereditary_soundness_n3():
    for d in enumerate_digraphs(3):
        for variant in ALL_VARIANTS:
            if not is_chordal(d, variant):
                continue
            for mask in range(1, 8):
                sub = induced(d, [v for v in range(3) if mask >> v & 1])
                assert is_chordal(sub, variant)


# -- symmetric part ------------------------------------------------------------------


def test_underlying_sd_chordal_cases(ex2):
    four_cycle_digons = build(
        4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]
    )
    assert not underlying_SD_is_chordal(four_cycle_digons)
    assert underlying_SD_is_chordal(ex2)
    assert underlying_SD_is_chordal(build(3, [(0, 1), (1, 2), (2, 0)]))
    # only the digons count: the arcs outside them never change the answer
    for d in enumerate_digraphs(4):
        s = symmetric_subdigraph(d)
        assert underlying_SD_is_chordal(d) == is_chordal(s, Variant.SEMI_STRICT)


def _symmetric_digraphs(n):
    m = n * (n - 1) // 2
    for mask in range(1 << m):
        yield Digraph(n, [3 if mask >> s & 1 else 0 for s in range(m)])


def test_symmetric_restriction_exhaustive_n5():
    # on symmetric digraphs, semi-strict chordality is underlying-graph chordality
    for n in range(1, 6):
        for d in _symmetric_digraphs(n):
            assert is_chordal(d, Variant.SEMI_STRICT) == underlying_SD_is_chordal(d)


def test_dicycle_lemma_consequences_n4():
    # semi-strict chordal => chordal symmetric part, and every semi-strict
    # di-simplicial vertex stays di-simplicial in the symmetric part
    for d in enumerate_digraphs(4):
        if not is_chordal(d, Variant.SEMI_STRICT):
            continue
        assert underlying_SD_is_chordal(d)
        s = symmetric_subdigraph(d)
        for v in range(4):
            if is_di_simplicial(d, v, Variant.SEMI_STRICT):
                assert is_di_simplicial(s, v, Variant.SEMI_STRICT)
