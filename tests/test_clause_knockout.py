"""Clause knock-out counts of theorems 4 and 5, read from the tables.

A check passes when its two sides agree.  A clause of the right side is
exercised by a check only if dropping it alone changes the right side on
some row of the check, so that it disagrees with the left side.  For each
order n <= 5 and each clause, these tests count the class rows where that
happens, on the same rows, tables and sides as `verify._table_scan`.

The rows are then checked again on the object path, which shares no code
with the tables: at n=5, every row that the symmetric part, the dicycle
or the lollipop decides alone, and a seeded sample of the rows that fig1
decides alone, must lie in the class, get the right side from
`is_chordal` of the symmetric part and the `find_*` detectors equal to
`is_chordal`, and lose that equality when the clause is dropped.
"""

import random

import numpy as np
import pytest

from dichordal.chordality import Variant, is_chordal
from dichordal.classes import is_locally_semicomplete, is_weakly_quasi_transitive
from dichordal.digraph import digraph_count, digraph_from_index, symmetric_subdigraph
from dichordal.patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle
from dichordal.tables import (
    block_chunks,
    block_size,
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


def knockout_rows(check, n):
    """{clause: the ascending order-n indices of the check's rows where the
    right side without that clause disagrees with semi-strict chordality}."""
    keep, families = CHECKS[check]
    chordal = semi_strict_table(n)
    tables = [containment_table(f, n) for f in families]
    rows = {clause: [] for clause in ("symmetric",) + families}
    for idx in block_chunks(keep, n, 0, digraph_count(n) // block_size(n)):
        lhs = chordal[idx]
        clauses = {"symmetric": chordal[symmetric_index(idx)]}
        clauses.update((f, ~t[idx]) for f, t in zip(families, tables))
        assert np.array_equal(np.logical_and.reduce(list(clauses.values())), lhs), (check, n)
        for dropped in clauses:
            rest = [c for name, c in clauses.items() if name != dropped]
            rows[dropped].append(idx[np.logical_and.reduce(rest) != lhs])
    return {clause: np.concatenate(parts) for clause, parts in rows.items()}


def knockout_counts(check, n):
    """{clause: rows where the right side without that clause disagrees
    with semi-strict chordality}, over the order-n rows of the check."""
    return {clause: idx.size for clause, idx in knockout_rows(check, n).items()}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_clause_knockout_counts_up_to_n5(check):
    for n in range(1, 6):
        want = {clause: row[n - 1] for (c, clause), row in KNOCKOUT.items() if c == check}
        assert knockout_counts(check, n) == want, (check, n)


# -- the knock-out rows on the object path ---------------------------------------------

MEMBER = {"theorem4": is_weakly_quasi_transitive, "theorem5": is_locally_semicomplete}

# each clause of the right side, as the object path decides it
OBJECT_CLAUSES = {
    "symmetric": lambda d: is_chordal(symmetric_subdigraph(d), Variant.SEMI_STRICT),
    "fig1": lambda d: find_any_fig1(d) is None,
    "dicycle": lambda d: find_nonsym_induced_dicycle(d, 3) is None,
    "lollipop": lambda d: find_lollipop(d) is None,
}

FIG1_SAMPLE = 500


@pytest.mark.parametrize("check, clause", [key for key, row in KNOCKOUT.items() if row[4]])
def test_knockout_rows_hold_on_the_object_path_n5(check, clause):
    rows = knockout_rows(check, 5)[clause].tolist()
    assert len(rows) == KNOCKOUT[(check, clause)][4]
    if clause == "fig1":
        rows = sorted(random.Random(5).sample(rows, FIG1_SAMPLE))
    clauses = ("symmetric",) + CHECKS[check][1]
    for i in rows:
        d = digraph_from_index(5, i)
        lhs = is_chordal(d, Variant.SEMI_STRICT)
        sides = {c: OBJECT_CLAUSES[c](d) for c in clauses}
        assert MEMBER[check](d), (check, i)
        assert all(sides.values()) == lhs, (check, i)
        assert all(v for c, v in sides.items() if c != clause) != lhs, (check, clause, i)
