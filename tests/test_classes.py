import itertools
import random
import time

import pytest

from dichordal.classes import (
    _ext_semicomplete_violation,
    _locally_semicomplete_violation,
    _nonuniversal,
    _qt_violation,
    _semicomplete_violation,
    _transitive_oriented_violation,
    _wqt_violation,
    classify,
    generate_locally_semicomplete,
    generate_wqt,
    is_extended_semicomplete,
    is_locally_semicomplete,
    is_oriented,
    is_quasi_transitive,
    is_semicomplete,
    is_symmetric,
    is_transitive_oriented,
    is_weakly_quasi_transitive,
)
from dichordal.digraph import (
    Digraph,
    bits,
    build,
    enumerate_digraphs,
    from_out_masks,
    pair_slots,
    parse,
    random_digraph,
    serialize,
    substitute,
)
from dichordal.patterns import expand_template, lollipop_template

PATH = build(3, [(0, 1), (1, 2)])
CYCLE3 = build(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE3 = build(3, [(0, 1), (1, 2), (0, 2)])


def canonical_form(d):
    """Lexicographically smallest code tuple over all vertex relabellings.

    Brute force over permutations; fine for the n <= 6 uses it has.
    """
    best = None
    m = pair_slots(d.n)
    for perm in itertools.permutations(range(d.n)):
        inv = [0] * d.n
        for old, new in enumerate(perm):
            inv[new] = old
        # kind of the pre-image pair, oriented as the new (i, j)
        t = tuple(int(d.pair_kind(inv[i], inv[j])) for i, j in m)
        if best is None or t < best:
            best = t
    return best if best is not None else ()


def complete_symmetric(n):
    return build(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def test_semicomplete():
    assert is_semicomplete(complete_symmetric(4))
    assert is_semicomplete(CYCLE3)
    assert not is_semicomplete(PATH)
    assert classify(PATH).witnesses["semicomplete"] == (0, 2)


def test_semicomplete_witness_is_the_smallest_non_adjacent_pair():
    # by a plain pair scan, exhaustively at n <= 4 and on seeded random digraphs
    cases = [d for n in range(5) for d in enumerate_digraphs(n)]
    cases += [random_digraph(2 + s % 7, (1, 4, 4, 8), seed=s) for s in range(300)]
    for d in cases:
        pairs = itertools.combinations(range(d.n), 2)
        missing = [(x, y) for x, y in pairs if not d.adjacent(x, y)]
        assert _semicomplete_violation(d) == min(missing, default=None)


def test_locally_semicomplete():
    assert is_locally_semicomplete(PATH)
    lollipop1 = expand_template(lollipop_template(1))[0]
    assert is_locally_semicomplete(lollipop1)
    in_star = build(3, [(0, 1), (2, 1)])
    assert not is_locally_semicomplete(in_star)


def test_weakly_quasi_transitive():
    assert is_weakly_quasi_transitive(CYCLE3)
    assert not is_weakly_quasi_transitive(PATH)


def test_wqt_witness_example1(ex1):
    report = classify(ex1)
    assert not report.flags["weakly_quasi_transitive"]
    assert report.witnesses["weakly_quasi_transitive"] == (0, 1, 2)


def test_quasi_transitive():
    assert is_quasi_transitive(TRANSITIVE3)
    assert not is_quasi_transitive(PATH)
    assert is_quasi_transitive(complete_symmetric(3))


def test_extended_semicomplete():
    assert is_extended_semicomplete(build(3, []))
    blown = substitute(CYCLE3, [build(2, []), build(1, []), build(1, [])])
    assert is_extended_semicomplete(blown)
    assert not is_extended_semicomplete(PATH)


def test_transitive_oriented():
    assert is_transitive_oriented(TRANSITIVE3)
    assert not is_transitive_oriented(CYCLE3)
    assert is_transitive_oriented(build(4, []))
    assert not is_transitive_oriented(build(2, [(0, 1), (1, 0)]))


def test_symmetric_oriented_flags():
    assert is_symmetric(complete_symmetric(3)) and not is_oriented(complete_symmetric(3))
    assert is_oriented(CYCLE3) and not is_symmetric(CYCLE3)
    empty = build(2, [])
    assert is_symmetric(empty) and is_oriented(empty)


def test_implication_lattice_exhaustive_n4():
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            sc = is_semicomplete(d)
            wqt = is_weakly_quasi_transitive(d)
            if sc:
                assert is_locally_semicomplete(d)
                assert is_quasi_transitive(d)
                assert wqt
            if is_extended_semicomplete(d):
                assert wqt
            if is_quasi_transitive(d):
                assert wqt
            if is_symmetric(d):
                assert wqt
            if is_transitive_oriented(d):
                assert wqt


# -- generators ----------------------------------------------------------------


def test_generate_wqt_base_cases():
    for seed in range(60):
        d = generate_wqt(seed, depth=1, width=4)
        assert (
            is_transitive_oriented(d) or is_semicomplete(d) or is_symmetric(d)
        )
        assert is_weakly_quasi_transitive(d)


@pytest.mark.parametrize("depth,width", [(2, 2), (2, 3), (3, 2)])
def test_generate_wqt_outputs_are_wqt(depth, width):
    for seed in range(1000):
        assert is_weakly_quasi_transitive(generate_wqt(seed, depth=depth, width=width))


def test_generate_wqt_deterministic_and_roundtrips():
    a = generate_wqt(99, depth=3, width=3)
    b = generate_wqt(99, depth=3, width=3)
    assert a == b
    assert parse(serialize(a)) == a


def test_generate_wqt_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_wqt(0, depth=0)
    with pytest.raises(ValueError):
        generate_wqt(0, width=0)


def test_generate_lsc_predicate_and_determinism():
    for seed in range(80):
        n = 1 + seed % 8
        d = generate_locally_semicomplete(seed, n)
        assert d.n == n
        assert is_locally_semicomplete(d)
    assert generate_locally_semicomplete(5, 7) == generate_locally_semicomplete(5, 7)
    assert generate_locally_semicomplete(0, 1) == build(1, [])
    assert parse(serialize(generate_locally_semicomplete(3, 6))) is not None


@pytest.mark.parametrize("n", [0, -3])
def test_generate_lsc_rejects_an_empty_order(n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        generate_locally_semicomplete(0, n)


# -- the substitution closure reaches every small WQT digraph --------------------


def _base_members(n):
    for d in enumerate_digraphs(n):
        if is_transitive_oriented(d) or is_semicomplete(d) or is_symmetric(d):
            yield d


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(1, total - slots + 2):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def test_substitution_closure_is_exactly_wqt_up_to_n4():
    max_n = 4
    target = {
        canonical_form(d)
        for n in range(1, max_n + 1)
        for d in enumerate_digraphs(n)
        if is_weakly_quasi_transitive(d)
    }

    reps: dict[tuple, object] = {}
    for n in range(1, max_n + 1):
        for d in _base_members(n):
            reps.setdefault(canonical_form(d), d)
    assert set(reps) <= target  # base classes are all weakly quasi-transitive

    changed = True
    while changed:
        changed = False
        by_size: dict[int, list] = {}
        for d in reps.values():
            by_size.setdefault(d.n, []).append(d)
        hosts = [d for d in reps.values() if 2 <= d.n <= max_n]
        for host in hosts:
            for total in range(host.n, max_n + 1):
                for sizes in _compositions(total, host.n):
                    for parts in itertools.product(*[by_size[s] for s in sizes]):
                        out = substitute(host, parts)
                        cf = canonical_form(out)
                        if cf not in reps:
                            reps[cf] = out
                            changed = True
    assert set(reps) == target


# -- the mask scans against the per-triple loops they replaced -------------------
#
# The references are the scans as they stood before they read the masks:
# one has_arc/adjacent test per triple (per pair for extended
# semicomplete).  The mask scans must return exactly their first witness.


def ref_wqt_violation(d):
    for v in range(d.n):
        nb = list(bits(d.neighbor_mask(v)))
        for i, u in enumerate(nb):
            cu = (d.has_arc(u, v), d.has_arc(v, u))
            for w in nb[i + 1 :]:
                if d.adjacent(u, w):
                    continue
                if cu != (d.has_arc(w, v), d.has_arc(v, w)):
                    return (u, v, w)
    return None


def ref_qt_violation(d):
    for v in range(d.n):
        for u in bits(d.in_masks[v]):
            for w in bits(d.out_masks[v]):
                if u != w and not d.adjacent(u, w):
                    return (u, v, w)
    return None


def ref_ext_semicomplete_violation(d):
    for v in range(d.n):
        for w in range(v + 1, d.n):
            if d.adjacent(v, w):
                continue
            if d.in_masks[v] != d.in_masks[w] or d.out_masks[v] != d.out_masks[w]:
                return (v, w)
    return None


def ref_transitive_oriented_violation(d):
    # the first digon in slot order, else the first (u, v, w) with u -> v -> w
    # and no arc u -> w, by loops over the arcs
    for j in range(d.n):
        for i in range(j):
            if d.has_arc(i, j) and d.has_arc(j, i):
                return (i, j)
    for u, v in d.arcs():
        for w in bits(d.out_masks[v]):
            if w != u and not d.has_arc(u, w):
                return (u, v, w)
    return None


MASK_SCANS = [
    (_wqt_violation, ref_wqt_violation),
    (_qt_violation, ref_qt_violation),
    (_ext_semicomplete_violation, ref_ext_semicomplete_violation),
    (_transitive_oriented_violation, ref_transitive_oriented_violation),
]


def assert_same_witnesses(cases):
    for d in cases:
        for scan, ref in MASK_SCANS:
            assert scan(d) == ref(d), (scan.__name__, serialize(d))


def test_mask_scans_match_the_loops_exhaustively():
    assert_same_witnesses(d for n in range(5) for d in enumerate_digraphs(n))


def test_mask_scans_match_the_loops_seeded():
    weights = [(1, 1, 1, 1), (1, 4, 4, 8), (4, 1, 1, 1), (1, 2, 2, 0), (1, 8, 8, 16)]
    assert_same_witnesses(
        random_digraph(2 + s % 39, weights[s % 5], seed=s) for s in range(5000)
    )


def test_mask_scans_match_the_loops_on_generated_members():
    # mostly members, so the references walk every triple
    cases = [generate_wqt(s, depth=3, width=3) for s in range(300)]
    cases += [generate_locally_semicomplete(s, 2 + s % 20) for s in range(300)]
    assert sum(ref_wqt_violation(d) is None for d in cases) >= 300
    assert_same_witnesses(cases)


def ref_semicomplete_violation(d):
    return _ref_pair(d, range(d.n))


def ref_locally_semicomplete_violation(d):
    for v in range(d.n):
        for side in (d.in_masks[v], d.out_masks[v]):
            pair = _ref_pair(d, list(bits(side)))
            if pair is not None:
                return (v, *pair)
    return None


def _ref_pair(d, vertices):
    for x, y in itertools.combinations(vertices, 2):
        if not d.adjacent(x, y):
            return (x, y)
    return None


def _almost_complete(n, holes, seed):
    """A random semicomplete digraph (each pair an arc either way or a
    digon) with `holes` random pairs made non-adjacent."""
    rng = random.Random(seed)
    codes = [rng.choice((1, 2, 3)) for _ in range(n * (n - 1) // 2)]
    for s in rng.sample(range(len(codes)), min(holes, len(codes))):
        codes[s] = 0
    return Digraph(n, codes)


def _transitive_minus(n, holes, seed):
    """A transitive tournament on n vertices with `holes` random arcs removed."""
    rng = random.Random(seed)
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in sorted(rng.sample(range(len(arcs)), min(holes, len(arcs))), reverse=True):
        del arcs[k]
    return build(n, arcs)


def test_dense_scans_match_the_loops():
    # every vertex adjacent to all others is skipped by the mask scans;
    # here some vertices are skipped and some are not
    scans = MASK_SCANS + [
        (_semicomplete_violation, ref_semicomplete_violation),
        (_locally_semicomplete_violation, ref_locally_semicomplete_violation),
    ]
    cases = [_almost_complete(3 + s % 38, s % 4, seed=s) for s in range(400)]
    cases += [build(n, [(i, j) for i in range(n) for j in range(i + 1, n)]) for n in range(8)]
    # transitive tournaments with a few arcs removed: the transitive-oriented
    # scan passes most vertices on the union and looks for a witness at some
    cases += [_transitive_minus(3 + s % 30, s % 3, seed=s) for s in range(120)]
    transitive = [_transitive_oriented_violation(d) for d in cases]
    assert transitive.count(None) >= 40 and sum(t is not None and len(t) == 3 for t in transitive) >= 40
    mixed = [d for d in cases if 0 < bin(_nonuniversal(d)).count("1") < d.n]
    assert len(mixed) >= 250
    for d in cases:
        for scan, ref in scans:
            assert scan(d) == ref(d), (scan.__name__, serialize(d))


def test_dense_scans_scale_past_the_universal_vertices():
    # a transitive tournament on 2,048 vertices missing the pair 1500-1800:
    # walking every (v, u) arc took 4.1 s for these three scans
    n = 2048
    out = [(1 << n) - (1 << (i + 1)) for i in range(n)]
    out[1500] &= ~(1 << 1800)
    d = from_out_masks(out)
    start = time.perf_counter()
    assert _wqt_violation(d) == (1500, 1501, 1800)
    assert _qt_violation(d) == (1500, 1501, 1800)
    assert _locally_semicomplete_violation(d) == (0, 1500, 1800)
    assert time.perf_counter() - start < 1.0


def test_classify_scales_on_a_transitive_tournament():
    # scans with one test per triple take about 66 s here
    n = 600
    d = build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    start = time.perf_counter()
    report = classify(d)
    assert time.perf_counter() - start < 10.0  # test_forbidden_scales's bound
    assert report.witnesses == {"symmetric": (0, 1)}  # every other flag holds
