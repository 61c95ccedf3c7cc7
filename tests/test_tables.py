"""Cross-checks of the hereditary lookup tables against the object path."""

import random

import numpy as np
import pytest

from dichordal import verify
from dichordal.chordality import Variant, is_chordal
from dichordal.digraph import (
    digraph_count,
    digraph_from_index,
    digraph_to_index,
    induced,
    parse,
    symmetric_subdigraph,
)
from dichordal.patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle
from dichordal.tables import (
    containment_table,
    deleted_index,
    semi_strict_table,
    symmetric_index,
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


@pytest.mark.parametrize("n", ORDERS)
def test_greedy_table_matches_is_chordal(n):
    table = semi_strict_table(n)
    for i in _indices(n):
        assert table[i] == is_chordal(digraph_from_index(n, i), Variant.SEMI_STRICT), i


def test_greedy_table_n5_count():
    assert int(semi_strict_table(5).sum()) == 358_302


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
