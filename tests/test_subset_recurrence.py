"""Semi-strict chordality at n <= 5 by the subset oracle's recurrence, a
second route to the greedy table `tables.semi_strict_table`.

The subset oracle asks that every nonempty vertex subset S have a vertex
that is di-simplicial in D[S].  Over one-vertex deletions that is

    O_n[i] = (OR_v simp_v(i)) & AND_v O_{n-1}[del_v(i)],

"some vertex qualifies and every deletion is YES", where the greedy table is
T_n[i] = OR_v (simp_v(i) & T_{n-1}[del_v(i)]), "some qualifying vertex leaves
a YES".  They agree exactly when the greedy answer does not depend on which
qualifying vertex is deleted.  simp_v is read here from the base-4 digits,
arc by arc; only the index remap `deleted_index` is shared with the tables.
Both routes use the same di-simplicial rule, so this checks the quantifier
structure, not the vertex test.

The rows where the AND part holds and O does not are the minimal
non-semi-strict-chordal digraphs, here over all digraphs.  Two mutants show
that the comparison can fail: the chordal variant's rule (the arc u -> w in
place of a digon) and O without its AND part.
"""

from functools import lru_cache

import numpy as np
import pytest

from dichordal.digraph import digraph_count
from dichordal.tables import deleted_index, semi_strict_table


def _digon(arc, u, w):
    return arc[u][w] & arc[w][u]


def _arc_only(arc, u, w):  # the chordal variant's rule
    return arc[u][w]


@lru_cache(maxsize=None)
def _some_simplicial(n: int, joined) -> np.ndarray:
    """OR_v simp_v over every order-n index: v qualifies unless u -> v -> w
    for some u != w that `joined` does not join."""
    idx = np.arange(digraph_count(n), dtype=np.int64)
    arc = [[None] * n for _ in range(n)]
    digit = n * (n - 1) // 2  # the pairs (0,1), (0,2), (1,2), (0,3), ..., first most significant
    for b in range(1, n):
        for a in range(b):
            digit -= 1
            code = idx >> 2 * digit & 3
            arc[a][b], arc[b][a] = code & 1 != 0, code & 2 != 0
    some = np.zeros(idx.size, dtype=bool)
    for v in range(n):
        fails = np.zeros(idx.size, dtype=bool)
        for u in range(n):
            for w in range(n):
                if len({u, v, w}) == 3:
                    fails |= arc[u][v] & arc[v][w] & ~joined(arc, u, w)
        some |= ~fails
    return some


@lru_cache(maxsize=None)
def _subset_tables(top: int, joined) -> tuple:
    """(O_n, AND_v O_{n-1}[del_v]) for n = 0..top."""
    tables = [(np.ones(1, dtype=bool), np.ones(1, dtype=bool))]
    for n in range(1, top + 1):
        idx = np.arange(digraph_count(n), dtype=np.int64)
        every = np.ones(idx.size, dtype=bool)
        for v in range(n):
            every &= tables[-1][0][deleted_index(n, v, idx)]
        tables.append((_some_simplicial(n, joined) & every, every))
    return tuple(tables)


@pytest.mark.parametrize(
    "n, count", [(0, 1), (1, 1), (2, 4), (3, 62), (4, 2_975), (5, 358_302)]
)
def test_subset_recurrence_equals_the_greedy_table(n, count):
    subset, _ = _subset_tables(5, _digon)[n]
    assert np.array_equal(subset, semi_strict_table(n))
    assert int(subset.sum()) == count


@pytest.mark.parametrize("n, count", [(2, 0), (3, 2), (4, 657), (5, 10_686)])
def test_minimal_obstructions_over_all_digraphs(n, count):
    # every deletion is semi-strict chordal, the digraph is not
    subset, every = _subset_tables(5, _digon)[n]
    assert int((every & ~subset).sum()) == count


@pytest.mark.parametrize("n, differ", [(4, 402), (5, 195_760)])
def test_the_chordal_rule_is_seen(n, differ):
    subset, _ = _subset_tables(5, _arc_only)[n]
    assert int((subset != semi_strict_table(n)).sum()) == differ


def test_the_recurrence_without_its_and_part_is_seen():
    assert int((_some_simplicial(5, _digon) != semi_strict_table(5)).sum()) == 267_645
