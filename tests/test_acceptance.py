"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion.  The whole module finishes in a couple of minutes on one
core; the stated runtime budgets are asserted, not aspirational.
"""

import time

from dichordal.chordality import (
    Variant,
    elimination_ordering,
    is_chordal,
    is_di_simplicial,
    verify_ordering,
)
from dichordal.digraph import (
    build,
    digraph_count,
    enumerate_digraphs,
    parse,
    random_digraph,
    serialize,
)
from dichordal.knotting import group_max_degree, knotting_graph
from dichordal.patterns import expand_template, fig1_templates, lollipop_template
from dichordal.verify import (
    check_nesting,
    check_recognizer_equivalence,
    check_theorem4,
    check_theorem5,
)

EX1 = build(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2), (2, 3)])
EX2 = build(
    5,
    [(0, 1), (4, 0), (2, 1), (1, 4), (4, 1), (3, 2), (2, 3), (4, 2), (2, 4), (4, 3)],
)


def _report(criterion, label, elapsed, limit):
    print(f"[criterion {criterion}] {label}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_worked_example_1():
    t0 = time.perf_counter()
    assert not is_chordal(EX1, Variant.SEMI_STRICT)
    k = knotting_graph(EX1)
    group_sizes = {v: len(k.group(v)) for v in range(4)}
    assert group_sizes == {0: 1, 1: 2, 2: 2, 3: 2}
    assert len(k.edges) == 6
    assert group_max_degree(k, 3) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "worked example 1 rejected, knotting graph matches", elapsed, 1)


def test_criterion_2_worked_example_2():
    t0 = time.perf_counter()
    ordering = elimination_ordering(EX2, Variant.SEMI_STRICT)
    assert ordering is not None and verify_ordering(EX2, ordering)
    k = knotting_graph(EX2)
    assert len(k.classes) == 11 and len(k.edges) == 10
    from dichordal.digraph import bits, induced

    for mask in range(1, 32):
        sub = induced(EX2, bits(mask))
        ks = knotting_graph(sub)
        degrees = ks.degrees()
        assert any(
            all(degrees[c.id] <= 1 for c in ks.group(v)) for v in range(sub.n)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "worked example 2 recognized, all 31 subsets pass", elapsed, 1)


def test_criterion_3_recognizer_equivalence_n4():
    t0 = time.perf_counter()
    for n in range(1, 5):
        r = check_recognizer_equivalence(n)
        assert r.ok, r.to_text()
        assert r.total == digraph_count(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(3, "four recognizers agree on all 4,165 digraphs n<=4", elapsed, 60)


def test_criterion_4_lemma1():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            k = knotting_graph(d)
            for v in range(n):
                assert (group_max_degree(k, v) <= 1) == is_di_simplicial(
                    d, v, Variant.SEMI_STRICT
                )
                checked += 1
    for i in range(10_000):
        d = random_digraph(2 + i % 6, (1, 1, 1, 1), seed=1_000_000 + i)
        k = knotting_graph(d)
        for v in range(d.n):
            assert (group_max_degree(k, v) <= 1) == is_di_simplicial(
                d, v, Variant.SEMI_STRICT
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(4, f"lemma-1 equivalence on {checked} vertex instances", elapsed, 60)


def test_criterion_5_theorem4_exhaustive_n5():
    t0 = time.perf_counter()
    filtered = 0
    for n in range(1, 5):
        r = check_theorem4(n)
        assert r.ok, r.to_text()
        filtered += r.filtered
    r5 = check_theorem4(5, shards=8)
    assert r5.ok, r5.to_text()
    assert r5.total == 4**10
    filtered += r5.filtered
    elapsed = time.perf_counter() - t0
    assert elapsed < 120  # 8-shard budget; single-thread budget is 600
    _report(5, f"theorem-4 equivalence on {filtered} WQT digraphs n<=5", elapsed, 120)


def test_criterion_6_theorem5_exhaustive_and_random():
    t0 = time.perf_counter()
    r = check_theorem5(n_exhaustive=5, n_random=8, samples=100_000, seed=0)
    assert r.ok, r.to_text()
    assert r.total == sum(digraph_count(n) for n in range(1, 6)) + 100_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(
        6,
        f"theorem-5 equivalence on {r.filtered} locally semicomplete digraphs",
        elapsed,
        600,
    )


def test_criterion_7_forbidden_family_soundness():
    t0 = time.perf_counter()
    rejected = 0
    for t in fig1_templates():
        for host in expand_template(t):
            assert not is_chordal(host, Variant.SEMI_STRICT)
            assert not any(
                is_di_simplicial(host, v, Variant.SEMI_STRICT) for v in range(host.n)
            )
            rejected += 1
    for k in range(1, 5):
        for host in expand_template(lollipop_template(k)):
            assert not is_chordal(host, Variant.SEMI_STRICT)
            assert not any(
                is_di_simplicial(host, v, Variant.SEMI_STRICT) for v in range(host.n)
            )
            rejected += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(7, f"all {rejected} forbidden concretizations rejected", elapsed, 5)


def test_criterion_8_nesting_and_symmetric_restriction():
    t0 = time.perf_counter()
    for n in range(1, 5):
        r = check_nesting(n)
        assert r.ok, r.to_text()
    elapsed = time.perf_counter() - t0
    _report(8, "variant nesting and symmetric restriction n<=4", elapsed, 60)


def test_criterion_9_knotting_invariants():
    t0 = time.perf_counter()
    for i in range(10_000):
        d = random_digraph(2 + i % 7, (1, 1, 1, 1), seed=2_000_000 + i)
        k = knotting_graph(d)
        assert len(k.edges) == d.arc_count
        for v in range(d.n):
            incident = sorted(
                [(u, v) for u in d.in_neighbors(v)]
                + [(v, w) for w in d.out_neighbors(v)]
            )
            union = sorted(a for c in k.group(v) for a in c.members)
            assert union == incident
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(9, "edge bijection and class partition on 10k digraphs n<=8", elapsed, 30)


def test_criterion_10_determinism_and_io():
    t0 = time.perf_counter()
    # identical reports across repeated runs and shard counts
    base = check_theorem4(4, shards=1).to_json()
    assert check_theorem4(4, shards=1).to_json() == base
    for shards in (2, 5, 8):
        assert check_theorem4(4, shards=shards).to_json() == base
    # parse/serialize identity over every 3-vertex digraph
    for d in enumerate_digraphs(3):
        assert parse(serialize(d)) == d
    # seeded generation is bit-stable
    from dichordal.classes import generate_locally_semicomplete, generate_wqt

    assert serialize(generate_wqt(11, depth=3, width=3)) == serialize(
        generate_wqt(11, depth=3, width=3)
    )
    assert serialize(generate_locally_semicomplete(11, 8)) == serialize(
        generate_locally_semicomplete(11, 8)
    )
    assert serialize(random_digraph(8, (1, 2, 3, 4), seed=5)) == serialize(
        random_digraph(8, (1, 2, 3, 4), seed=5)
    )
    elapsed = time.perf_counter() - t0
    _report(10, "byte-identical reports, I/O round-trips", elapsed, 60)
