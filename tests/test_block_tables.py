"""The block-built tables T and C against the per-row builders they replaced.

`tables` builds T_n and C_n one extension block at a time from the
order-(n-1) table.  The references below are the row functions that
built them before: one di-simplicial test and one deleted_index remap per
vertex and row, and np.isin against the family's base.  The reference
tables recurse on their own lower orders, so they share only the index
remaps and the family bases with `tables`.
"""

import os
import platform
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from dichordal import tables
from dichordal.digraph import digraph_count, pair_slots
from dichordal.tables import (
    _base,
    _containment_block,
    _semi_strict_block,
    containment_table,
    deleted_index,
    index_chunks,
    semi_strict_table,
)
from dichordal.verify import check_theorem4, check_theorem5

FAMILIES = ["fig1", "dicycle", "lollipop"]
ROOT = Path(__file__).resolve().parents[1]


# -- the per-row references --------------------------------------------------------


def _arc_matrix(n, idx):
    """arc[x][y] boolean columns over the rows idx: is the arc x->y present.
    Slot 0 is the most significant base-4 digit."""
    m = n * (n - 1) // 2
    arc = np.zeros((n, n, idx.size), dtype=bool)
    for s, (i, j) in enumerate(pair_slots(n)):
        code = idx >> 2 * (m - 1 - s)
        arc[i][j] = code & 1
        arc[j][i] = code & 2
    return arc


def _semi_strict_simplicial(n, arc, v):
    """Is v semi-strict di-simplicial: every in-neighbour u and out-neighbour
    w != u of v joined by a digon."""
    ok = np.ones(arc.shape[2], dtype=bool)
    for u in range(n):
        if u == v:
            continue
        bad = np.zeros_like(ok)
        for w in range(n):
            if w not in (u, v):
                bad |= arc[v][w] & ~(arc[u][w] & arc[w][u])
        ok &= ~(arc[u][v] & bad)
    return ok


def _semi_strict_rows(n, idx):
    arc = _arc_matrix(n, idx)
    smaller = ref_semi_strict_table(n - 1)
    acc = np.zeros(idx.size, dtype=bool)
    for v in range(n):
        acc |= _semi_strict_simplicial(n, arc, v) & smaller[deleted_index(n, v, idx)]
    return acc


def _containment_rows(family, n, idx):
    acc = np.isin(idx, _base(family, n))
    smaller = ref_containment_table(family, n - 1)
    for v in range(n):
        acc |= smaller[deleted_index(n, v, idx)]
    return acc


def _row_table(n, rows):
    table = np.empty(digraph_count(n), dtype=bool)
    for idx in index_chunks(0, table.size):
        table[idx] = rows(idx)
    return table


@lru_cache(maxsize=None)
def ref_semi_strict_table(n):
    if n == 0:
        return np.ones(1, dtype=bool)
    return _row_table(n, lambda idx: _semi_strict_rows(n, idx))


@lru_cache(maxsize=None)
def ref_containment_table(family, n):
    if n == 0:
        return np.zeros(1, dtype=bool)
    return _row_table(n, lambda idx: _containment_rows(family, n, idx))


# -- whole tables and order-6 blocks ------------------------------------------------


@pytest.mark.parametrize("n", range(6))
def test_block_semi_strict_table_equals_the_rows(n):
    assert np.array_equal(semi_strict_table(n), ref_semi_strict_table(n))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(6))
def test_block_containment_table_equals_the_rows(family, n):
    assert np.array_equal(containment_table(family, n), ref_containment_table(family, n))


def _order6_parents():
    """64 ascending order-5 parents: 48 drawn at random, and 8 each whose
    blocks hold members of the order-6 dicycle and lollipop bases."""
    rng = random.Random(20240624)
    picked = {rng.randrange(digraph_count(5)) for _ in range(48)}
    for family in ("dicycle", "lollipop"):
        owners = sorted(set((_base(family, 6) // 4**5).tolist()))
        picked.update(rng.sample(owners, 8))
    parents = np.array(sorted(picked), dtype=np.int64)
    assert parents.size == 64
    return parents


def _block_indices(parents, n):
    size = 4 ** (n - 1)
    return (parents[:, None] * size + np.arange(size, dtype=np.int64)).ravel()


def test_order6_semi_strict_blocks_equal_the_rows():
    parents = _order6_parents()
    rows = _semi_strict_block(6, parents)
    assert rows.shape == (64, 4**5)
    assert np.array_equal(rows.ravel(), _semi_strict_rows(6, _block_indices(parents, 6)))


@pytest.mark.parametrize("family", FAMILIES)
def test_order6_containment_blocks_equal_the_rows(family):
    parents = _order6_parents()
    idx = _block_indices(parents, 6)
    want = _containment_rows(family, 6, idx)
    assert np.array_equal(_containment_block(family, 6, parents).ravel(), want)
    if family != "fig1":  # fig1 has no order-6 members
        assert np.isin(idx, _base(family, 6)).any()


def test_blocks_of_no_parents_are_empty():
    none = np.zeros(0, dtype=np.int64)
    assert _semi_strict_block(5, none).shape == (0, 4**4)
    for family in FAMILIES:
        assert _containment_block(family, 5, none).shape == (0, 4**4)


# -- piece size --------------------------------------------------------------------


CACHED = [tables.semi_strict_table, tables.containment_table, tables._class_table, tables._block_rule]


def _clear_caches():
    for cached in CACHED:
        cached.cache_clear()


def _everything():
    """Every table to order 5 and the theorem 4 and 5 reports at n=5."""
    tabs = [semi_strict_table(n) for n in range(6)]
    tabs += [containment_table(f, n) for f in FAMILIES for n in range(6)]
    reports = [check_theorem4(5).to_json(), check_theorem5(5, 5).to_json()]
    return tabs, reports


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("chunk", [256, 1000])  # one order-5 block a piece, or three
def test_tables_and_reports_do_not_depend_on_chunk(fresh_caches, monkeypatch, chunk):
    tabs, reports = _everything()
    _clear_caches()
    monkeypatch.setattr(tables, "CHUNK", chunk)
    chunked_tabs, chunked_reports = _everything()
    assert all(np.array_equal(a, b) for a, b in zip(chunked_tabs, tabs))
    assert chunked_reports == reports


# -- warm scans ---------------------------------------------------------------------


WARM_FAULTS = """
import resource
from dichordal.verify import check_theorem4
check_theorem4(5)  # builds the tables
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    check_theorem4(5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_warm_theorem4_scans_take_no_page_faults():
    # the one-piece build frees 1 MB buffers, which lifts glibc's mmap
    # threshold above the scan's kept-row arrays (up to about 160 KB per
    # chunk); with the tables built in 256-parent pieces, 50 warm scans
    # took about 13,700 minor faults
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FAULTS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50
