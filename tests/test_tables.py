"""Cross-checks of the hereditary lookup tables against the object path."""

import random

import numpy as np
import pytest

from dichordal import verify
from dichordal.chordality import Variant, is_chordal
from dichordal.classes import is_locally_semicomplete, is_weakly_quasi_transitive
from dichordal.digraph import (
    digraph_count,
    digraph_from_index,
    digraph_to_index,
    induced,
    parse,
    random_digraph,
    symmetric_subdigraph,
)
from dichordal.patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle
from dichordal.tables import (
    containment_table,
    deleted_index,
    index_chunks,
    lsc_mask,
    semi_strict_table,
    subset_index,
    symmetric_index,
    wqt_mask,
)
from dichordal.verify import check_theorem4, check_theorem5

N5_SAMPLES = 1500


def _indices(n: int) -> list[int]:
    """Every index for n <= 4; a seeded sample at n = 5."""
    count = digraph_count(n)
    if n <= 4:
        return list(range(count))
    rng = random.Random(20220913)
    return [rng.randrange(count) for _ in range(N5_SAMPLES)]


ORDERS = [1, 2, 3, 4, 5]

DETECTORS = {
    "fig1": lambda d: find_any_fig1(d) is not None,
    "dicycle": lambda d: find_nonsym_induced_dicycle(d, 3) is not None,
    "lollipop": lambda d: find_lollipop(d) is not None,
}


@pytest.mark.parametrize("n", ORDERS)
def test_index_remaps_match_digraph_ops(n):
    ids = _indices(n)
    idx = np.array(ids, dtype=np.int64)
    sym = symmetric_index(idx)
    dels = [deleted_index(n, v, idx) for v in range(n)]
    for k, i in enumerate(ids):
        d = digraph_from_index(n, i)
        assert sym[k] == digraph_to_index(symmetric_subdigraph(d))
        for v in range(n):
            rest = [x for x in range(n) if x != v]
            assert dels[v][k] == digraph_to_index(induced(d, rest))


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_index_matches_induced(n):
    # orders up to 8, whose 56-bit indices still fit an int64 array
    rng = random.Random(n)
    ds = [random_digraph(n, (1, 1, 1, 1), seed=100 * n + s) for s in range(40)]
    idx = np.array([digraph_to_index(d) for d in ds], dtype=np.int64)
    for _ in range(12):
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub = subset_index(n, keep, idx)
        for k, d in enumerate(ds):
            want = digraph_to_index(induced(d, keep))
            assert sub[k] == subset_index(n, keep, digraph_to_index(d)) == want, keep


@pytest.mark.parametrize("n", ORDERS)
def test_class_rows_match_predicates(n):
    ids = _indices(n)
    idx = np.array(ids, dtype=np.int64)
    wqt, lsc = wqt_mask(n, idx), lsc_mask(n, idx)
    for k, i in enumerate(ids):
        d = digraph_from_index(n, i)
        assert wqt[k] == is_weakly_quasi_transitive(d), i
        assert lsc[k] == is_locally_semicomplete(d), i


def test_class_rows_n5_counts():
    chunks = list(index_chunks(0, digraph_count(5)))
    assert sum(int(wqt_mask(5, idx).sum()) for idx in chunks) == 82_012
    assert sum(int(lsc_mask(5, idx).sum()) for idx in chunks) == 71_284


@pytest.mark.parametrize("n", ORDERS)
def test_greedy_table_matches_is_chordal(n):
    table = semi_strict_table(n)
    for i in _indices(n):
        assert table[i] == is_chordal(digraph_from_index(n, i), Variant.SEMI_STRICT), i


def test_greedy_table_n5_count():
    assert int(semi_strict_table(5).sum()) == 358_302


@pytest.mark.parametrize(
    "family, count", [("fig1", 434_938), ("dicycle", 266_388), ("lollipop", 30)]
)
def test_containment_table_n5_counts(family, count):
    assert int(containment_table(family, 5).sum()) == count


@pytest.mark.parametrize("family", sorted(DETECTORS))
@pytest.mark.parametrize("n", ORDERS)
def test_containment_table_matches_detector(family, n):
    table = containment_table(family, n)
    detect = DETECTORS[family]
    for i in _indices(n):
        assert table[i] == detect(digraph_from_index(n, i)), (family, i)


def test_tables_refuse_unknown_family_and_large_orders():
    with pytest.raises(ValueError):
        containment_table("no-such-family", 3)
    with pytest.raises(ValueError):
        semi_strict_table(6)
    with pytest.raises(ValueError, match="lookup tables cover orders"):
        wqt_mask(6, np.zeros(1, dtype=np.int64))


def test_theorem_reports_identical_across_shard_counts():
    assert check_theorem4(5, shards=1).to_json() == check_theorem4(5, shards=3).to_json()
    assert (
        check_theorem5(5, 5, 0, shards=1).to_json()
        == check_theorem5(5, 5, 0, shards=3).to_json()
    )


def test_counterexamples_first_in_index_order(monkeypatch):
    # with the fig1 table blanked out, theorem 4 has real mismatches: the
    # report must list the first ten in index order, for any shard count
    blank = {k: np.zeros(digraph_count(k), dtype=bool) for k in range(6)}
    real = verify.containment_table
    monkeypatch.setattr(
        verify,
        "containment_table",
        lambda family, n: blank[n] if family == "fig1" else real(family, n),
    )
    single = check_theorem4(4, shards=1)
    assert single.failures > 10 and len(single.counterexamples) == 10
    assert single.to_json() == check_theorem4(4, shards=3).to_json()
    indices = []
    for cx in single.counterexamples:
        assert set(cx) == {"lhs", "rhs", "digraph"}
        d = parse(cx["digraph"])
        assert cx["lhs"] is is_chordal(d, Variant.SEMI_STRICT)
        assert cx["lhs"] is not cx["rhs"]
        indices.append(digraph_to_index(d))
    assert indices == sorted(indices)
