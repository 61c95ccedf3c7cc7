"""Clause knock-out counts of theorems 4 and 5, read from the tables.

A check passes when its two sides agree.  A clause of the right side is
exercised by a check only if dropping it alone changes the right side on
some row of the check, so that it disagrees with the left side.  For each
order n <= 5 and each clause, these tests count the class rows where that
happens, on the same rows, tables and sides as `verify._table_scan`.
"""

import numpy as np
import pytest

from dichordal.digraph import digraph_count
from dichordal.tables import (
    block_chunks,
    containment_table,
    lsc_mask,
    semi_strict_table,
    symmetric_index,
    wqt_mask,
)

CHECKS = {
    "theorem4": (wqt_mask, ("fig1",)),
    "theorem5": (lsc_mask, ("fig1", "dicycle", "lollipop")),
}

# rows where dropping the clause makes the right side disagree with the left,
# for n = 1..5
KNOCKOUT = {
    ("theorem4", "symmetric"): (0, 0, 0, 15, 1_122),
    ("theorem4", "fig1"): (0, 0, 2, 416, 55_054),
    ("theorem5", "symmetric"): (0, 0, 0, 0, 0),
    ("theorem5", "fig1"): (0, 0, 0, 216, 22_870),
    ("theorem5", "dicycle"): (0, 0, 0, 6, 354),
    ("theorem5", "lollipop"): (0, 0, 0, 0, 30),
}


def knockout_counts(check, n):
    """{clause: rows where the right side without that clause disagrees
    with semi-strict chordality}, over the order-n rows of the check."""
    keep, families = CHECKS[check]
    chordal = semi_strict_table(n)
    tables = [containment_table(f, n) for f in families]
    counts = dict.fromkeys(("symmetric",) + families, 0)
    for idx in block_chunks(keep, n, 0, digraph_count(n)):
        lhs = chordal[idx]
        clauses = {"symmetric": chordal[symmetric_index(idx)]}
        clauses.update((f, ~t[idx]) for f, t in zip(families, tables))
        assert np.array_equal(np.logical_and.reduce(list(clauses.values())), lhs), (check, n)
        for dropped in clauses:
            rest = [c for name, c in clauses.items() if name != dropped]
            counts[dropped] += int(np.count_nonzero(np.logical_and.reduce(rest) != lhs))
    return counts


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_clause_knockout_counts_up_to_n5(check):
    for n in range(1, 6):
        want = {clause: row[n - 1] for (c, clause), row in KNOCKOUT.items() if c == check}
        assert knockout_counts(check, n) == want, (check, n)
