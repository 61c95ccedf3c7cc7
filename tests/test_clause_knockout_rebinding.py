"""Clause knock-out through `verify`: each clause, blanked by a rebinding.

A family is blanked by a `containment_table` that returns an all-False
table for it, and the symmetric clause by a `symmetric_index` that maps
every row to 0 (the arcless digraph, which is semi-strict chordal).  The
checks then fail exactly on the rows that `test_clause_knockout` counts
from the tables, and they record their counterexamples, found through the
row source `tables.block_chunks`, as the first mismatches in index order
of the route that filters every index.
"""

import numpy as np
import pytest

from dichordal import verify
from dichordal.digraph import digraph_count, digraph_from_index, serialize
from dichordal.tables import containment_table, index_chunks, semi_strict_table, symmetric_index
from dichordal.verify import COUNTEREXAMPLE_RECORD_LIMIT
from test_clause_knockout import CHECKS, KNOCKOUT

# the first order where blanking the clause makes its check FAIL
FIRST_FAILING = {
    ("theorem4", "symmetric"): 4,
    ("theorem4", "fig1"): 3,
    ("theorem5", "fig1"): 4,
    ("theorem5", "dicycle"): 4,
    ("theorem5", "lollipop"): 5,
}


def _blank(monkeypatch, clause):
    if clause == "symmetric":
        monkeypatch.setattr(verify, "symmetric_index", np.zeros_like)
        return

    def blanked(family, n):
        table = containment_table(family, n)
        return np.zeros_like(table) if family == clause else table

    monkeypatch.setattr(verify, "containment_table", blanked)


def _report(check, n, shards=1):
    """The check's report over order n: theorem 5's covers orders 1..n."""
    if check == "theorem4":
        return verify.check_theorem4(n, shards=shards)
    return verify.check_theorem5(n, n, shards=shards)


def _mismatches(check, clause, n):
    """The order-n indices where the right side without `clause` disagrees
    with the left, by filtering every index through the prefilter."""
    keep, families = CHECKS[check]
    chordal = semi_strict_table(n)
    bad = []
    for idx in index_chunks(0, digraph_count(n)):
        idx = idx[keep(n, idx)]
        rhs = np.ones(idx.size, dtype=bool)
        if clause != "symmetric":
            rhs &= chordal[symmetric_index(idx)]
        for family in families:
            if family != clause:
                rhs &= ~containment_table(family, n)[idx]
        bad.extend(idx[chordal[idx] != rhs].tolist())
    return bad


def test_first_failing_orders_are_the_first_nonzero_counts():
    first = {
        key: 1 + next(i for i, c in enumerate(row) if c)
        for key, row in KNOCKOUT.items()
        if any(row)
    }
    assert first == FIRST_FAILING


@pytest.mark.parametrize("check, clause", sorted(KNOCKOUT))
def test_blanked_clause_fails_on_the_counted_rows(monkeypatch, check, clause):
    row = KNOCKOUT[check, clause]
    _blank(monkeypatch, clause)
    for n in range(6):
        # theorem 5's report covers orders 1..n, theorem 4's order n alone
        want = sum(row[:n]) if check == "theorem5" else sum(row[n - 1 : n])
        report = _report(check, n)
        assert (report.failures, report.status) == (want, "FAIL" if want else "PASS"), n


@pytest.mark.parametrize("check, clause", sorted(FIRST_FAILING))
def test_blanked_clause_records_the_first_mismatches(monkeypatch, check, clause):
    n = FIRST_FAILING[check, clause]
    want = _mismatches(check, clause, n)[:COUNTEREXAMPLE_RECORD_LIMIT]
    assert want
    _blank(monkeypatch, clause)
    report = _report(check, n)
    keys = ["n", "lhs", "rhs", "digraph"] if check == "theorem5" else ["lhs", "rhs", "digraph"]
    assert [list(cx) for cx in report.counterexamples] == [keys] * len(want)
    assert [cx["digraph"] for cx in report.counterexamples] == [
        serialize(digraph_from_index(n, i)) for i in want
    ]
    lhs = semi_strict_table(n)[want].tolist()
    assert [cx["lhs"] for cx in report.counterexamples] == lhs
    assert [cx["rhs"] for cx in report.counterexamples] == [not x for x in lhs]
    if check == "theorem5":
        assert {cx["n"] for cx in report.counterexamples} == {n}
    assert _report(check, n, shards=7).to_json() == report.to_json()
