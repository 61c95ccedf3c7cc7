import itertools

import pytest

from dichordal.classes import (
    _semicomplete_violation,
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
    build,
    enumerate_digraphs,
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
