"""Neighbourhood masks are what a Digraph is; pair codes are derived.

Reference copies below keep the code-based construction the masks
replaced: the decoder that zips the codes with `pair_slots(n)`, and
`build`, `induced` and `symmetric_subdigraph` writing pair codes first.
Every constructor, `digraph_from_index` included, must give the same
masks and the same `.codes` as those references, and equal digraphs must
hash alike, exhaustively at n <= 4 and on seeded random digraphs up to
n=60.  The class witnesses,
`pair_kind` and `to_dot` are pinned to reference copies too.
"""

import itertools
import random
import sys

import pytest

from dichordal import digraph as digraph_module
from dichordal.classes import _oriented_violation, _symmetric_violation, classify
from dichordal.digraph import (
    Digraph,
    PairKind,
    build,
    digraph_from_index,
    from_out_masks,
    induced,
    pair_slots,
    random_digraph,
    slot_index,
    symmetric_subdigraph,
    to_dot,
)
from dichordal.patterns import are_isomorphic

from conftest import traced
from test_classes import canonical_form

# -- reference copies of the code-based construction -----------------------------------


def ref_masks(n, codes):
    out = [0] * n
    inn = [0] * n
    for (i, j), c in zip(pair_slots(n), codes):
        if c & 1:
            out[i] |= 1 << j
            inn[j] |= 1 << i
        if c & 2:
            out[j] |= 1 << i
            inn[i] |= 1 << j
    return tuple(out), tuple(inn), tuple(a & b for a, b in zip(out, inn))


def ref_build_codes(n, arcs):
    codes = [0] * (n * (n - 1) // 2)
    for u, v in arcs:
        if u < v:
            codes[slot_index(u, v)] |= 1
        else:
            codes[slot_index(v, u)] |= 2
    return tuple(codes)


def ref_induced_codes(codes, vertices):
    vs = sorted(set(vertices))
    k = len(vs)
    sub = [0] * (k * (k - 1) // 2)
    for j in range(1, k):
        for i in range(j):
            sub[slot_index(i, j)] = codes[slot_index(vs[i], vs[j])]
    return tuple(sub)


def ref_symmetric_codes(codes):
    return tuple(c if c == 3 else 0 for c in codes)


def ref_pair_kind(n, codes, u, v):
    if u < v:
        return PairKind(codes[slot_index(u, v)])
    return (PairKind.NONE, PairKind.BACKWARD, PairKind.FORWARD, PairKind.DIGON)[
        codes[slot_index(v, u)]
    ]


def ref_symmetric_violation(n, codes):
    for i, j in pair_slots(n):
        if codes[slot_index(i, j)] in (1, 2):
            return (i, j)
    return None


def ref_oriented_violation(n, codes):
    for i, j in pair_slots(n):
        if codes[slot_index(i, j)] == 3:
            return (i, j)
    return None


def ref_to_dot(n, codes):
    lines = ["digraph D {"]
    lines.extend(f'  {v} [label="{v}"];' for v in range(n))
    for (i, j), c in zip(pair_slots(n), codes):
        if c == 1:
            lines.append(f"  {i} -> {j};")
        elif c == 2:
            lines.append(f"  {j} -> {i};")
        elif c == 3:
            lines.append(f"  {i} -> {j} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_index(codes):
    # the codes as base-4 digits, the first pair most significant
    return int("0" + "".join(map(str, codes)), 4)


def ref_arcs(n, codes):
    out, _, _ = ref_masks(n, codes)
    return [(u, v) for u in range(n) for v in range(n) if out[u] >> v & 1]


# -- the comparison --------------------------------------------------------------------


def assert_matches(d, n, codes):
    """d has the masks and codes of the reference digraph `codes`."""
    assert (d.out_masks, d.in_masks, d.digon_masks) == ref_masks(n, codes)
    assert d.n == n
    assert d.codes == tuple(codes)


def check_constructors(n, codes, subsets):
    codes = tuple(codes)
    d = Digraph(n, codes)
    assert_matches(d, n, codes)
    arcs = ref_arcs(n, codes)
    assert ref_build_codes(n, arcs) == codes
    made = [
        build(n, arcs),
        build(n, reversed(arcs + arcs)),
        from_out_masks(list(d.out_masks)),
        digraph_from_index(n, ref_index(codes)),
    ]
    for e in made:
        assert_matches(e, n, codes)
        assert e == d and hash(e) == hash(d)
    sym = symmetric_subdigraph(d)
    assert_matches(sym, n, ref_symmetric_codes(codes))
    assert sym == Digraph(n, ref_symmetric_codes(codes))
    for s in subsets:
        sub = induced(d, s)
        want = ref_induced_codes(codes, s)
        assert_matches(sub, len(set(s)), want)
        assert hash(sub) == hash(Digraph(len(set(s)), want))


def all_codes(n):
    return itertools.product(range(4), repeat=n * (n - 1) // 2)


def all_subsets(n):
    return [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_constructors_agree_exhaustive(n):
    subsets = all_subsets(n)
    for codes in all_codes(n):
        check_constructors(n, codes, subsets)


def test_constructors_agree_random_up_to_n60():
    rng = random.Random(20260)
    for _ in range(120):
        n = rng.randrange(0, 61)
        weights = [rng.choice((0, 1, 3)) for _ in range(4)]
        weights[0] += 1
        d = random_digraph(n, weights, seed=rng.randrange(10**6))
        codes = ref_build_codes(n, list(d.arcs()))
        subsets = [[v for v in range(n) if rng.random() < p] for p in (0.2, 0.6, 0.95)]
        subsets.append([rng.randrange(n) for _ in range(n)] if n else [])
        # run shapes of the kept set: one run of all, runs of one, an inner run, two ends
        subsets += [list(range(n)), list(range(0, n, 2)), list(range(n // 3, 2 * n // 3))]
        subsets.append(sorted({0, n - 1}) if n else [])
        check_constructors(n, codes, subsets)


def test_distinct_digraphs_differ():
    seen = {}
    for codes in all_codes(3):
        d = build(3, ref_arcs(3, codes))
        assert d not in seen
        seen[d] = codes
    assert len(seen) == 64
    assert Digraph(3, [0, 0, 0]) != Digraph(2, [0])
    assert Digraph(0, []) == build(0, []) != Digraph(1, [])


def test_no_construction_calls_pair_slots(monkeypatch):
    def refuse(n):
        raise AssertionError("pair_slots called")

    monkeypatch.setattr(digraph_module, "pair_slots", refuse)
    d = Digraph(5, [1, 2, 3, 0, 1, 2, 3, 0, 1, 2])
    e = build(5, list(d.arcs()))
    for x in (d, e, from_out_masks(d.out_masks), induced(e, [0, 2, 4]),
              symmetric_subdigraph(e), digraph_from_index(4, 1234)):
        assert x.codes is not None
    assert to_dot(e) == ref_to_dot(5, d.codes)


# -- pair codes are validated ------------------------------------------------------------


@pytest.mark.parametrize("n,codes", [(2, [7]), (2, [-1]), (2, [4]), (3, [0, 3, 5]), (3, [-2, 0, 0])])
def test_pair_codes_outside_0_to_3_are_rejected(n, codes):
    with pytest.raises(ValueError, match="0..3"):
        Digraph(n, codes)


def test_pair_codes_keep_what_they_are_given():
    d = Digraph(3, [3, 0, 2])
    assert d.codes == (3, 0, 2)
    assert d == build(3, [(0, 1), (1, 0), (2, 1)])


# -- pair_kind reads the masks and checks both vertices ------------------------------------


def test_pair_kind_matches_reference_exhaustive_n4():
    for n in range(2, 5):
        for codes in all_codes(n):
            d = build(n, ref_arcs(n, codes))
            for u, v in itertools.permutations(range(n), 2):
                assert d.pair_kind(u, v) is ref_pair_kind(n, codes, u, v)


@pytest.mark.parametrize("u,v", [(-1, 2), (2, -1), (0, 5), (5, 0), (3, 3), (1, 1)])
def test_pair_kind_rejects_bad_vertices(u, v):
    d = build(3, [(0, 1)])
    with pytest.raises(ValueError):
        d.pair_kind(u, v)


# -- classify, are_isomorphic and to_dot read the masks -----------------------------------


def test_class_witnesses_match_reference_exhaustive_n4():
    for n in range(5):
        for codes in all_codes(n):
            d = build(n, ref_arcs(n, codes))
            assert _symmetric_violation(d) == ref_symmetric_violation(n, codes)
            assert _oriented_violation(d) == ref_oriented_violation(n, codes)
            assert to_dot(d) == ref_to_dot(n, codes)
            assert are_isomorphic(d, Digraph(n, codes))


def test_are_isomorphic_matches_canonical_form_n3():
    ds = [build(3, ref_arcs(3, codes)) for codes in all_codes(3)]
    forms = [canonical_form(d) for d in ds]
    for d1, f1 in zip(ds, forms):
        for d2, f2 in zip(ds, forms):
            assert are_isomorphic(d1, d2) == (f1 == f2)


def test_large_path_builds_and_classifies_on_masks():
    n = 4096
    d, _, peak = traced(build, n, [(i, i + 1) for i in range(n - 1)])
    assert peak < 50 * 2**20
    # classify never derives the n(n-1)/2 pair codes: they would take over
    # 60 MB here, and classify on the masks peaks near 1.4 MB
    report, _, peak = traced(classify, d)
    assert peak < 8 * 2**20
    # witnesses captured with the code-based classify
    assert report.witnesses == {
        "semicomplete": (0, 2),
        "weakly_quasi_transitive": (0, 1, 2),
        "quasi_transitive": (0, 1, 2),
        "extended_semicomplete": (0, 2),
        "symmetric": (0, 1),
        "transitive_oriented": (0, 1, 2),
    }
    digons = symmetric_subdigraph(build(n, [(i, i + 1) for i in range(n - 1)] +
                                        [(i + 1, i) for i in range(n - 1)]))
    assert _symmetric_violation(digons) is None
    assert _oriented_violation(digons) == (0, 1)
    report, _, peak = traced(classify, digons)
    assert peak < 8 * 2**20
    assert report.flags["symmetric"] and report.witnesses["oriented"] == (0, 1)


def test_a_digraph_built_from_pair_codes_keeps_only_its_masks():
    # n=400: a tuple of the 79,800 codes takes 0.6 MB, the masks about 0.1 MB
    codes = [c % 4 for c in range(400 * 399 // 2)]
    for make, args in ((random_digraph, (400,)), (Digraph, (400, codes))):
        d, held, _ = traced(make, *args)
        assert held < sys.getsizeof(d.codes) / 3, make.__name__
        assert Digraph(d.n, d.codes) == d
