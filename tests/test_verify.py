import itertools

import numpy as np
import pytest

from dichordal.chordality import Variant, _greedy, is_chordal
from dichordal.classes import is_locally_semicomplete, is_weakly_quasi_transitive
from dichordal.digraph import (
    digraph_from_index,
    enumerate_digraphs,
    parse,
    random_digraph,
    serialize,
    symmetric_subdigraph,
)
from dichordal.patterns import find_any_fig1, theorem5_rhs
from dichordal.verify import (
    _deletion_derived_mismatch,
    _lsc_tail,
    _theorem5_rhs_fast,
    check_nesting,
    check_recognizer_equivalence,
    check_theorem4,
    check_theorem5,
    contains_fig1,
    lsc_mask,
    probe_knotting_deletion,
    wqt_mask,
)


def test_wqt_and_lsc_masks_match_predicates_n4():
    idx = np.arange(4096, dtype=np.int64)
    wm = wqt_mask(4, idx)
    lm = lsc_mask(4, idx)
    for i, d in enumerate(enumerate_digraphs(4)):
        assert wm[i] == is_weakly_quasi_transitive(d)
        assert lm[i] == is_locally_semicomplete(d)


def test_contains_fig1_matches_matcher():
    for i in range(0, 4096, 7):
        d = digraph_from_index(4, i)
        assert contains_fig1(d) == (find_any_fig1(d) is not None)
    # sparse weights give fig1-free digraphs at n = 7 and 8 as well
    for n, weights in itertools.product((6, 7, 8), ((1, 1, 1, 1), (4, 1, 1, 1))):
        for seed in range(60):
            d = random_digraph(n, weights, seed=seed)
            assert contains_fig1(d) == (find_any_fig1(d) is not None)


def test_fast_rhs_paths_match_public_ops():
    for seed in range(80):
        d = random_digraph(5 + seed % 3, (2, 1, 1, 2), seed=seed)
        assert _theorem5_rhs_fast(d) == theorem5_rhs(d)
    for d in enumerate_digraphs(3):
        assert _theorem5_rhs_fast(d) == theorem5_rhs(d)
    # the theorem-5 tail's own inputs
    for seed in (0, 1, 2):
        for i in range(1000):
            d = _lsc_tail(range(6, 9), seed, i)
            assert _theorem5_rhs_fast(d) == theorem5_rhs(d)
    # the digon-mask greedy is the semi-strict test of the symmetric part
    for d in enumerate_digraphs(4):
        sym = d.digon_masks
        assert (not _greedy(sym, sym, sym)[1]) == is_chordal(
            symmetric_subdigraph(d), Variant.SEMI_STRICT
        )
        assert _theorem5_rhs_fast(d) == theorem5_rhs(d)


def test_recognizer_equivalence_small():
    r = check_recognizer_equivalence(3)
    assert (r.total, r.filtered, r.passed) == (64, 64, 64)
    assert r.ok and r.failures == 0
    assert check_recognizer_equivalence(1).total == 1


def test_recognizer_equivalence_n5_needs_samples():
    with pytest.raises(ValueError):
        check_recognizer_equivalence(5)
    with pytest.raises(ValueError):
        check_recognizer_equivalence(6, samples=10)
    r = check_recognizer_equivalence(5, samples=8, seed=3)
    assert r.ok and r.filtered == 8


def test_theorem4_small_counts():
    r = check_theorem4(3)
    assert r.total == 64
    # cross-count the filter with the definitional predicate
    expected = sum(1 for d in enumerate_digraphs(3) if is_weakly_quasi_transitive(d))
    assert r.filtered == expected == 46
    assert r.ok


def test_theorem4_cap():
    with pytest.raises(ValueError):
        check_theorem4(6)


def test_theorem5_small():
    r = check_theorem5(n_exhaustive=3, n_random=5, samples=40, seed=9)
    assert r.total == 1 + 4 + 64 + 40
    assert r.ok


def test_nesting_small():
    r = check_nesting(3)
    assert r.total == r.passed == 64
    with pytest.raises(ValueError):
        check_nesting(5)


def test_probe_reports_without_asserting():
    r = probe_knotting_deletion(5, samples=40, seed=2)
    assert not r.asserted
    assert r.passed + r.failures == r.filtered
    assert len(r.counterexamples) <= 10
    # the probe does find real mismatches: stale splitting vertices survive
    assert r.failures > 0
    for cx in r.counterexamples:
        d = parse(cx["digraph"])
        assert serialize(d) == cx["digraph"]
        assert _deletion_derived_mismatch(d, cx["deleted_vertex"]) == cx["mismatch"]


def test_probe_single_arc_agrees():
    from dichordal.digraph import build

    d = build(2, [(0, 1)])
    assert _deletion_derived_mismatch(d, 0) is None
    assert _deletion_derived_mismatch(d, 1) is None


def test_shard_invariance_and_determinism():
    single = check_theorem4(4, shards=1)
    for shards in (2, 3, 8):
        sharded = check_theorem4(4, shards=shards)
        assert (sharded.total, sharded.filtered, sharded.passed) == (
            single.total,
            single.filtered,
            single.passed,
        )
        assert sharded.counterexamples == single.counterexamples
    # canonical text and json are byte-identical run to run
    a = check_recognizer_equivalence(3, seed=1)
    b = check_recognizer_equivalence(3, seed=1)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    assert "wall_time" not in a.to_json()
    assert "wall_time" in a.to_json(timing=True)


def test_report_shapes():
    r = check_nesting(2)
    d = r.to_json_dict()
    assert d["status"] == "PASS" and d["check"] == "nesting"
    text = r.to_text()
    assert text.startswith("check: nesting")
    assert text.rstrip().endswith("status: PASS")


def test_counterexamples_recorded_with_sides():
    # recognizers on n=2 with a deliberately broken side would be artificial;
    # instead exercise the record path through the probe, which has real
    # disagreements, and check value fields are present
    r = probe_knotting_deletion(4, samples=30, seed=0)
    if r.counterexamples:
        cx = r.counterexamples[0]
        assert {"deleted_vertex", "mismatch", "digraph"} <= set(cx)
