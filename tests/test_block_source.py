"""The extension-block row source of the exhaustive theorem scans.

`tables.block_chunks` expands only the blocks of order-(n-1) digraphs that
the prefilter keeps, and for n >= 4 decides them from the order-(n-1)
table; it must give exactly the rows that filtering every index gives, in
the same (ascending) order, for any range a shard can get.
"""

import random
from functools import cache, partial

import numpy as np
import pytest

from dichordal import verify
from dichordal.classes import is_locally_semicomplete, is_weakly_quasi_transitive
from dichordal.digraph import digraph_count, digraph_from_index
from dichordal.tables import (
    CHUNK,
    _class_rows,
    block_chunks,
    deleted_index,
    index_chunks,
    lsc_mask,
    wqt_mask,
)
from dichordal.verify import _split_range


def _ranges(n: int) -> list[tuple[int, int]]:
    count = digraph_count(n)
    ranges = {(0, count)}
    for shards in (1, 2, 3, 7):
        ranges.update(_split_range(count, shards))
    lo = min(5, count)
    ranges.add((lo, max(lo, count - 3)))  # unaligned at both ends
    return sorted(ranges)


def _expected(keep, n: int, start: int, stop: int) -> np.ndarray:
    parts = [idx[keep(n, idx)] for idx in index_chunks(start, stop)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


@cache
def _bounded(keep):
    """`keep`, asserting that no array handed to it exceeds CHUNK rows.

    One wrapper per `keep`: `tables._block_rule` caches by the function it
    is given, so a fresh wrapper per call would rebuild the rule each time."""

    def bounded(k, idx):
        assert idx.size <= CHUNK
        return keep(k, idx)

    return bounded


def _counting(keep, rows: dict):
    """`keep`, adding the rows handed to it at each order to `rows`."""

    def counting(n, idx):
        rows[n] = rows.get(n, 0) + idx.size
        return keep(n, idx)

    return counting


def _rows(keep, n: int, start: int, stop: int) -> np.ndarray:
    chunks = list(block_chunks(_bounded(keep), n, start, stop))
    assert all(c.dtype == np.int64 for c in chunks)
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("keep", [wqt_mask, lsc_mask], ids=["wqt", "lsc"])
@pytest.mark.parametrize("n", range(6))
def test_blocks_equal_the_filtered_index_range(keep, n):
    for start, stop in _ranges(n):
        assert np.array_equal(_rows(keep, n, start, stop), _expected(keep, n, start, stop))


@pytest.mark.parametrize("keep", [wqt_mask, lsc_mask], ids=["wqt", "lsc"])
def test_shard_pieces_concatenate_to_the_full_scan(keep):
    full = _rows(keep, 5, 0, digraph_count(5))
    assert full.size == {wqt_mask: 82_012, lsc_mask: 71_284}[keep]
    assert np.all(np.diff(full) > 0)
    for shards in (2, 3, 7):
        pieces = [_rows(keep, 5, a, b) for a, b in _split_range(digraph_count(5), shards)]
        assert np.array_equal(np.concatenate(pieces), full)


def test_blocks_reach_past_the_table_orders():
    # order 6 through the order-5 prefilter rows: a range that starts and
    # ends inside a block, against the per-index recurrence over the
    # order-5 table (no class table holds order 6)
    start, stop = 3 * 4**5 + 7, 700 * 4**5 + 17
    rows = partial(_class_rows, is_weakly_quasi_transitive)
    assert np.array_equal(_rows(wqt_mask, 6, start, stop), _expected(rows, 6, start, stop))


@pytest.mark.parametrize(
    "keep, member",
    [(wqt_mask, is_weakly_quasi_transitive), (lsc_mask, is_locally_semicomplete)],
    ids=["wqt", "lsc"],
)
def test_order6_blocks_match_the_object_path(keep, member):
    # ten blocks of member parents and ten of any parents, each decided row
    # by row on the built digraphs; `keep` itself, not a fresh wrapper, so
    # the block rule is built once
    order5 = np.arange(digraph_count(5), dtype=np.int64)
    rng = random.Random(20221006)
    parents = rng.sample(order5[keep(5, order5)].tolist(), 10) + rng.sample(range(4**10), 10)
    kept = 0
    for p in parents:
        start, stop = p * 4**5, (p + 1) * 4**5
        got = [i for rows in block_chunks(keep, 6, start, stop) for i in rows.tolist()]
        assert got == [i for i in range(start, stop) if member(digraph_from_index(6, i))], p
        kept += len(got)
    assert kept == {wqt_mask: 2_029, lsc_mask: 2_544}[keep]


def test_theorem4_order_zero_keeps_its_single_row():
    report = verify.check_theorem4(0)
    assert (report.total, report.filtered, report.passed) == (1, 1, 1)


def test_scan_reads_the_prefilter_through_verify(monkeypatch):
    # the tracer and the golden tests rebind verify's names
    rows = {}
    monkeypatch.setattr(verify, "wqt_mask", _counting(wqt_mask, rows))
    report = verify.check_theorem4(5, shards=3)
    assert (report.total, report.filtered, report.failures) == (4**10, 82_012, 0)
    # the order-5 rows are decided from the order-4 table, read once
    assert rows == {4: 4**6}

    # a rebinding that drops one order-4 member drops every order-5 row
    # with a deletion equal to it
    order4 = np.arange(4**6, dtype=np.int64)
    member = order4[wqt_mask(4, order4)][600]

    def dropping(n, idx):
        ok = wqt_mask(n, idx)
        return ok & (idx != member) if n == 4 else ok

    monkeypatch.setattr(verify, "wqt_mask", dropping)
    expected = _expected(wqt_mask, 5, 0, 4**10)
    for v in range(5):
        expected = expected[deleted_index(5, v, expected) != member]
    assert 0 < expected.size < 82_012
    assert np.array_equal(_rows(verify.wqt_mask, 5, 0, 4**10), expected)
    report = verify.check_theorem4(5, shards=3)
    assert (report.total, report.filtered, report.failures) == (4**10, expected.size, 0)


def test_theorem5_reads_the_order4_table_once_for_all_parts(monkeypatch):
    # shards=10**8 splits the order-5 scan into one part per block: 4,096
    # parts share one read of the order-4 table
    rows = {}
    monkeypatch.setattr(verify, "lsc_mask", _counting(lsc_mask, rows))
    report = verify.check_theorem5(5, 6, samples=2, shards=10**8)
    assert rows[4] == 4**6 and 5 not in rows
    monkeypatch.undo()
    assert report.to_json() == verify.check_theorem5(5, 6, samples=2, shards=1).to_json()


@pytest.mark.parametrize(
    "keep, count", [(wqt_mask, 16_349_848), (lsc_mask, 15_182_881)], ids=["wqt", "lsc"]
)
def test_full_order6_block_counts(keep, count):
    # the full order-6 row counts, summed without holding the rows
    sizes = [c.size for c in block_chunks(_bounded(keep), 6, 0, digraph_count(6))]
    assert max(sizes) <= CHUNK
    assert sum(sizes) == count
