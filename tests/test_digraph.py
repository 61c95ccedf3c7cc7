import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichordal.classes import is_extended_semicomplete
from dichordal.digraph import (
    Digraph,
    PairKind,
    asynchronous,
    build,
    digraph_count,
    digraph_from_index,
    digraph_to_index,
    enumerate_digraphs,
    induced,
    parse,
    parse_labeled,
    random_digraph,
    serialize,
    serialize_chunks,
    substitute,
    symmetric_subdigraph,
    to_dot,
)
from dichordal.patterns import are_isomorphic

from conftest import digraphs


def test_build_example1(ex1):
    assert ex1.n == 4
    assert sorted(ex1.arcs()) == [(0, 1), (1, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
    assert ex1.pair_kind(2, 3) is PairKind.DIGON
    assert ex1.pair_kind(0, 1) is PairKind.FORWARD
    assert ex1.pair_kind(1, 0) is PairKind.BACKWARD
    assert ex1.pair_kind(0, 2) is PairKind.NONE


def test_build_single_vertex():
    d = build(1, [])
    assert d.n == 1 and d.arc_count == 0


def test_build_digon():
    d = build(2, [(0, 1), (1, 0)])
    assert d.pair_kind(0, 1) is PairKind.DIGON


@pytest.mark.parametrize("n,count", [(3, 2), (3, 4), (0, 1), (2, 0)])
def test_pair_codes_must_fill_every_slot(n, count):
    want = f"^expected {n * (n - 1) // 2} pair codes for n={n}, got {count}$"
    with pytest.raises(ValueError, match=want):
        Digraph(n, [0] * count)


def test_build_rejects_a_negative_order():
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        build(-1, [])


@pytest.mark.parametrize("vertices", [[0, 4], [-1, 2], [5]])
def test_induced_rejects_vertices_outside_the_range(ex1, vertices):
    with pytest.raises(ValueError, match="^induced set must be a subset of the vertex range$"):
        induced(ex1, vertices)


@pytest.mark.parametrize("n,index", [(3, -1), (3, 64), (0, 1), (2, 4)])
def test_digraph_from_index_rejects_an_index_outside_the_range(n, index):
    with pytest.raises(ValueError, match="^digraph index out of range$"):
        digraph_from_index(n, index)
    assert digraph_to_index(digraph_from_index(n, digraph_count(n) - 1)) == digraph_count(n) - 1


def test_build_collapses_duplicates():
    assert build(2, [(0, 1), (0, 1)]) == build(2, [(0, 1)])


@pytest.mark.parametrize("bad", [[(0, 0)], [(0, 5)], [(-1, 0)]])
def test_build_rejects_bad_arcs(bad):
    with pytest.raises(ValueError):
        build(3, bad)


def test_neighbors_example1(ex1):
    assert ex1.in_neighbors(3) == {2}
    assert ex1.out_neighbors(3) == {0, 1, 2}
    assert ex1.in_neighbors(0) == {3}


def test_neighbors_isolated_and_digon():
    d = build(3, [(0, 1), (1, 0)])
    assert d.in_neighbors(2) == set() and d.out_neighbors(2) == set()
    assert 0 in d.in_neighbors(1) and 0 in d.out_neighbors(1)


def test_neighborhoods_agree_with_arc_set_pointwise():
    for d in enumerate_digraphs(3):
        arcs = set(d.arcs())
        for v in range(3):
            for u in range(3):
                if u == v:
                    continue
                assert (u in d.in_neighbors(v)) == ((u, v) in arcs)
                assert (u in d.out_neighbors(v)) == ((v, u) in arcs)


def test_asynchronous_path():
    path = build(3, [(0, 1), (1, 2)])
    assert asynchronous(path, 1, 0, 2)


def test_asynchronous_false_cases():
    two_digons = build(3, [(0, 1), (1, 0), (2, 1), (1, 2)])
    assert not asynchronous(two_digons, 1, 0, 2)
    in_star = build(3, [(0, 1), (2, 1)])
    assert not asynchronous(in_star, 1, 0, 2)


def test_asynchronous_errors():
    path = build(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        asynchronous(path, 0, 1, 2)  # 2 is not a neighbour of 0
    with pytest.raises(ValueError):
        asynchronous(path, 1, 0, 0)


def test_symmetric_subdigraph_example1(ex1):
    assert sorted(symmetric_subdigraph(ex1).arcs()) == [(2, 3), (3, 2)]


def test_symmetric_subdigraph_oriented_and_symmetric():
    oriented = build(3, [(0, 1), (1, 2), (2, 0)])
    assert symmetric_subdigraph(oriented).arc_count == 0
    sym = build(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert symmetric_subdigraph(sym) == sym


@given(digraphs())
def test_symmetric_subdigraph_idempotent(d):
    s = symmetric_subdigraph(d)
    assert symmetric_subdigraph(s) == s


def test_induced_example1(ex1):
    # {a, b, d} relabels to 0, 1, 2; arcs ab, da, db survive
    sub = induced(ex1, {0, 1, 3})
    assert sorted(sub.arcs()) == [(0, 1), (2, 0), (2, 1)]


def test_induced_full_and_singleton(ex1):
    assert induced(ex1, range(4)) == ex1
    assert induced(ex1, {2}).n == 1


@given(digraphs(), st.data())
def test_induced_functorial(d, data):
    s = data.draw(st.sets(st.integers(0, d.n - 1)) if d.n else st.just(set()))
    t = data.draw(st.sets(st.sampled_from(sorted(s))) if s else st.just(set()))
    svs = sorted(s)
    inner = induced(induced(d, s), [svs.index(x) for x in t])
    assert inner == induced(d, t)


def test_substitute_identity_digon():
    digon = build(2, [(0, 1), (1, 0)])
    k1 = build(1, [])
    assert substitute(digon, [k1, k1]) == digon


def test_substitute_blows_up_tail():
    arc = build(2, [(0, 1)])
    two = build(2, [])
    out = substitute(arc, [two, build(1, [])])
    assert sorted(out.arcs()) == [(0, 2), (1, 2)]
    assert out.pair_kind(0, 1) is PairKind.NONE


def test_substitute_semicomplete_blowup_is_extended_semicomplete():
    cycle = build(3, [(0, 1), (1, 2), (2, 0)])
    ind = build(2, [])
    k1 = build(1, [])
    assert is_extended_semicomplete(substitute(cycle, [ind, k1, ind]))


def test_substitute_empty_part_rejected():
    with pytest.raises(ValueError):
        substitute(build(1, []), [build(0, [])])


@pytest.mark.parametrize("count", [0, 1, 3, 4])
def test_substitute_wants_one_part_per_vertex(count):
    k1 = build(1, [])
    with pytest.raises(ValueError, match=f"^expected 2 substitution parts, got {count}$"):
        substitute(build(2, [(0, 1)]), [k1] * count)


@given(digraphs(max_n=5))
def test_substitute_singletons_is_identity(d):
    k1 = build(1, [])
    assert substitute(d, [k1] * d.n) == d


def test_isomorphism_basics(ex1):
    assert are_isomorphic(ex1, ex1)
    cycle = build(3, [(0, 1), (1, 2), (2, 0)])
    transitive = build(3, [(0, 1), (1, 2), (0, 2)])
    assert not are_isomorphic(cycle, transitive)


def test_isomorphism_relabeled_digon_path():
    a = build(3, [(0, 1), (1, 0), (1, 2)])
    b = build(3, [(2, 1), (1, 2), (1, 0)])
    assert are_isomorphic(a, b)


def test_isomorphism_refuses_different_orders():
    assert not are_isomorphic(build(2, []), build(3, []))


def _isomorphisms(a, b):
    return [
        p
        for p in itertools.permutations(range(a.n))
        if all(
            a.pair_kind(u, w) == b.pair_kind(p[u], p[w])
            for u, w in itertools.combinations(range(a.n), 2)
        )
    ]


def test_isomorphism_backtracks_past_a_wrong_first_image():
    # b is a relabelled; a's vertex 0 (in 1, out 1) has the degrees of b's
    # vertices 0 and 3.  The search tries b's vertex 0 first, which no
    # isomorphism uses, so it must undo that choice and go on to 3.
    a = build(4, [(0, 1), (1, 2), (3, 0), (3, 2)])
    b = build(4, [(3, 0), (0, 1), (2, 3), (2, 1)])
    assert {p[0] for p in _isomorphisms(a, b)} == {3}
    assert are_isomorphic(a, b)


def test_isomorphism_refuses_equal_degrees_in_other_shapes():
    # a directed 6-cycle and two directed triangles: every vertex has in
    # and out degree 1, so only the search tells them apart
    six = build(6, [(i, (i + 1) % 6) for i in range(6)])
    two = build(6, [(i, i // 3 * 3 + (i + 1) % 3) for i in range(6)])
    assert not _isomorphisms(six, two)
    assert not are_isomorphic(six, two)


def test_repr_lists_the_arcs():
    d = build(3, [(2, 1), (1, 0), (1, 2)])
    assert repr(d) == "Digraph(n=3, arcs=[(1, 0), (1, 2), (2, 1)])"


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 64), (4, 4096)])
def test_enumeration_counts(n, count):
    assert digraph_count(n) == count
    seen = set(enumerate_digraphs(n, cap=5))
    assert len(seen) == count


def test_enumeration_cap():
    with pytest.raises(ValueError):
        next(enumerate_digraphs(6))


def test_enumeration_matches_index_order():
    for i, d in enumerate(enumerate_digraphs(3)):
        assert digraph_to_index(d) == i
        assert digraph_from_index(3, i) == d


@pytest.mark.parametrize("n", range(5))
def test_enumeration_order_equals_the_code_tuple_product(n):
    # pinned on a route that shares no decoding with digraph_from_index:
    # lexicographic code tuples, pair (0,1) most significant, decoded by Digraph
    want = [Digraph(n, c) for c in itertools.product(range(4), repeat=n * (n - 1) // 2)]
    assert list(enumerate_digraphs(n)) == want


def test_random_digraph_degenerate_weights():
    assert random_digraph(5, (1, 0, 0, 0), seed=3).arc_count == 0
    full = random_digraph(4, (0, 0, 0, 1), seed=3)
    assert all(k == 3 for k in full.codes)


def test_random_digraph_deterministic():
    assert random_digraph(7, (1, 2, 2, 1), seed=42) == random_digraph(
        7, (1, 2, 2, 1), seed=42
    )


def scan_draw(n, kind_weights, seed):
    """random_digraph's earlier draw: each pair's kind is the first k with
    r < cum[k], found by a scan of the cumulative weights, else 3."""
    total = float(sum(kind_weights))
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


@pytest.mark.parametrize("weights", [
    (0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1), (20, 1, 1, 1), (0, 3, 2, 0),
])
def test_random_digraph_draws_as_the_cumulative_scan(weights):
    for n in range(61):
        assert random_digraph(n, weights, seed=n) == scan_draw(n, weights, n), n


@pytest.mark.parametrize("weights", [(1, 1, 1), (-1, 1, 1, 1), (0, 0, 0, 0)])
def test_random_digraph_bad_weights(weights):
    with pytest.raises(ValueError):
        random_digraph(3, weights, seed=0)


@pytest.mark.parametrize("weights", [(1e308, 1e308, 0, 0), (10**400, 1, 1, 1), (0, 0, 10**309, 0)])
def test_random_digraph_refuses_a_sum_past_the_float_range(weights):
    with pytest.raises(ValueError, match="float range"):
        random_digraph(4, weights, seed=0)


class _TopDraw(random.Random):
    """Every draw is the largest float below 1."""

    def random(self):
        return 1 - 2**-53


@pytest.mark.parametrize("weights, kind", [
    ((0.7, 0.7, 0.1, 0), 2), ((0.1, 0.001, 0.001, 0), 2), ((4, 0.001, 0, 0), 1),
    ((1e308, 1e307, 0, 0), 1), ((1, 1, 1, 1), 3),
])
def test_random_digraph_never_draws_a_kind_of_weight_zero(monkeypatch, weights, kind):
    # the top draw goes to the last kind of positive weight, also where
    # rounding leaves the cumulative weights at or below it (kind 2 here)
    total = float(sum(weights))
    cum = list(itertools.accumulate(w / total for w in weights))
    assert kind != 2 or cum[2] <= _TopDraw().random()
    monkeypatch.setattr("dichordal.digraph.random", types.SimpleNamespace(Random=_TopDraw))
    assert set(random_digraph(5, weights, seed=0).codes) == {kind}


def test_serialize_example1(ex1):
    text = serialize(ex1)
    lines = text.splitlines()
    assert lines[0] == "4 6"
    assert len(lines) == 7
    assert parse(text) == ex1


def test_parse_k1():
    assert parse("1 0\n") == build(1, [])


def test_roundtrip_all_n3():
    for d in enumerate_digraphs(3):
        assert parse(serialize(d)) == d
        assert serialize(parse(serialize(d))) == serialize(d)


def test_labels_roundtrip(ex1):
    names = {0: "a", 1: "b", 2: "c", 3: "d"}
    d, parsed = parse_labeled(serialize(ex1, names))
    assert d == ex1 and parsed == names


@pytest.mark.parametrize("names", [
    {0: "a b"}, {1: "a  b\tc"}, {0: "#"}, {0: "# 1"}, {1: "#x y"}, {0: "ü"}, {0: "名前"},
    {0: "0 1"}, {0: "1", 1: "0"}, {0: "a\u00a0b"}, {0: "x", 1: "y"}, {},
])
def test_names_read_back_as_written(names):
    d = build(2, [(0, 1)])
    assert parse_labeled(serialize(d, names)) == (d, names)


@pytest.mark.parametrize("names, message", [
    ({5: "x"}, "name 'x' is on vertex 5, outside 0..1"),
    ({-1: "x"}, "name 'x' is on vertex -1, outside 0..1"),
    ({0: ""}, "name '' of vertex 0 cannot be written on one label line"),
    ({0: " a "}, "name ' a ' of vertex 0 cannot be written on one label line"),
    ({0: "a "}, "name 'a ' of vertex 0 cannot be written on one label line"),
    ({1: "\ta"}, "name '\\ta' of vertex 1 cannot be written on one label line"),
    ({0: "a\nb"}, "name 'a\\nb' of vertex 0 cannot be written on one label line"),
    ({0: "a\r\n"}, "name 'a\\r\\n' of vertex 0 cannot be written on one label line"),
    ({0: "a\x1cb"}, "name 'a\\x1cb' of vertex 0 cannot be written on one label line"),
    ({0: "a\u2028b"}, "name 'a\\u2028b' of vertex 0 cannot be written on one label line"),
    ({0: "a\x85b"}, "name 'a\\x85b' of vertex 0 cannot be written on one label line"),
    ({0: "a\x0bb"}, "name 'a\\x0bb' of vertex 0 cannot be written on one label line"),
    # a key that is no int, or a name that is no str, raised AttributeError
    # or TypeError, or wrote a label line that parse refuses
    ({0: 5}, "name 5 of vertex 0 cannot be written on one label line"),
    ({0: None}, "name None of vertex 0 cannot be written on one label line"),
    ({"a": "x"}, "name 'x' is on vertex 'a', outside 0..1"),
    ({0.0: "x"}, "name 'x' is on vertex 0.0, outside 0..1"),
])
def test_serialize_refuses_names_it_cannot_write(names, message):
    # each of these was written, then refused or read back otherwise by parse
    d = build(2, [(0, 1)])
    with pytest.raises(ValueError) as exc:
        serialize(d, names)
    assert str(exc.value) == message
    with pytest.raises(ValueError):
        next(serialize_chunks(d, names))  # before the header is written


def test_a_bool_key_is_written_as_the_vertex_it_equals():
    d = build(2, [(0, 1)])
    assert serialize(d, {True: "x", 0: "y"}) == "2 1\n0 1\n# 0 y\n# 1 x\n"
    assert parse_labeled(serialize(d, {True: "x"}))[1] == {1: "x"}


# a field that is no integer names its line, like the other format errors
# inputs whose exact message is pinned
NAMED_LINE = {
    "2 1\n0 x\n": "malformed arc line '0 x'",
    "2 0\n# x name\n": "malformed label line '# x name'",
    "a b\n": "malformed header 'a b', expected 'n m'",
    "-1 0\n": "header counts must be nonnegative",
    "2 0\n# 0\n": "malformed label line '# 0'",
}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nonsense\n",
        "2 1\n",  # promised arc missing
        "2 1\n0 0\n",  # loop
        "2 1\n0 5\n",  # out of range
        "2 1\n0 1 2\n",  # malformed arc line
        "2 0\n# 7 z\n",  # label out of range
        *NAMED_LINE,  # a field that is no integer, a negative count, a one-field label
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError) as exc:
        parse(text)
    if text in NAMED_LINE:
        assert str(exc.value) == NAMED_LINE[text]


# the parser fills the masks line by line and raises the first arc that
# `build` refuses only after the arc count, so the checks keep their order
CHECK_ORDER = {
    "3 2\n0 7\n0 1 2\n": "malformed arc line '0 1 2'",  # out of range, then malformed
    "3 2\n0 7\n": "header promises 2 arcs, found 1",  # out of range, wrong count
    "3 2\n1 1\n0 7\n": "loop arc (1,1) not allowed",  # loop, then out of range
    "3 2\n0 7\n1 1\n": "arc (0,7) has an endpoint outside 0..2",  # out of range, then loop
    "3 2\n-1 2\n0 1\n# 5 z\n": "label line '# 5 z' names vertex out of range",
    "0 1\n0 0\n": "arc (0,0) has an endpoint outside 0..-1",
}


@pytest.mark.parametrize("text", CHECK_ORDER)
def test_parse_errors_keep_their_order(text):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == CHECK_ORDER[text]


def test_parse_skips_blank_lines_and_strips_each_line():
    text = "\n  3 2 \n\n 0 1\t\n   \n1 2\r\n# 0  a b \n"
    assert parse_labeled(text) == (build(3, [(0, 1), (1, 2)]), {0: "a b"})
    # messages quote the stripped line
    with pytest.raises(ValueError, match=r"^malformed arc line '0 1 2'$"):
        parse("2 1\n\n   0 1 2  \n")


def test_to_dot_marks_digons(ex1):
    dot = to_dot(ex1, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert "2 -> 3 [dir=both];" in dot
    assert "0 -> 1;" in dot


@given(digraphs(max_n=5))
@settings(max_examples=60)
def test_index_roundtrip(d):
    assert digraph_from_index(d.n, digraph_to_index(d)) == d
