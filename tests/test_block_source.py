"""The extension-block row source of the exhaustive theorem scans.

`tables.block_chunks` takes a range of order-(n-1) parents, expands only
the blocks of those that the prefilter keeps, and for n >= 4 decides them
from the order-(n-1) table; it must give exactly the rows that filtering
every index of the range's blocks gives, in the same (ascending) order,
for any range a shard can get.
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
    block_size,
    containment_table,
    deleted_index,
    index_chunks,
    lsc_mask,
    wqt_mask,
)
from dichordal.verify import _split_range


def _blocks(n: int) -> int:
    """The extension blocks of order n, one per order-(n-1) parent."""
    return digraph_count(n) // block_size(n)


def _ranges(n: int) -> list[tuple[int, int]]:
    blocks = _blocks(n)
    ranges = {(0, blocks)}
    for shards in (1, 2, 3, 7):
        ranges.update(_split_range(blocks, shards))
    lo = min(1, blocks)
    ranges.add((lo, max(lo, blocks - 1)))  # interior: without the first and last block
    return sorted(ranges)


def _expected(keep, n: int, first: int, last: int) -> np.ndarray:
    """Every index of the blocks of parents first..last-1, filtered."""
    size = block_size(n)
    parts = [idx[keep(n, idx)] for idx in index_chunks(first * size, last * size)]
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


def _rows(keep, n: int, first: int, last: int) -> np.ndarray:
    chunks = list(block_chunks(_bounded(keep), n, first, last))
    assert all(c.dtype == np.int64 for c in chunks)
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("keep", [wqt_mask, lsc_mask], ids=["wqt", "lsc"])
@pytest.mark.parametrize("n", range(6))
def test_blocks_equal_the_filtered_index_range(keep, n):
    for first, last in _ranges(n):
        assert np.array_equal(_rows(keep, n, first, last), _expected(keep, n, first, last))


@pytest.mark.parametrize("keep", [wqt_mask, lsc_mask], ids=["wqt", "lsc"])
def test_shard_pieces_concatenate_to_the_full_scan(keep):
    full = _rows(keep, 5, 0, _blocks(5))
    assert full.size == {wqt_mask: 82_012, lsc_mask: 71_284}[keep]
    assert np.all(np.diff(full) > 0)
    for shards in (2, 3, 7):
        pieces = [_rows(keep, 5, a, b) for a, b in _split_range(_blocks(5), shards)]
        assert np.array_equal(np.concatenate(pieces), full)


@pytest.mark.parametrize("blank", [False, True], ids=["tables", "fig1-blanked"])
@pytest.mark.parametrize("check", ["theorem4", "theorem5"])
def test_reports_are_equal_for_every_shard_count(monkeypatch, check, blank):
    # with fig1 blanked, the reports carry counterexamples, whose index
    # order every split between blocks must keep
    if blank:

        def blanked(family, n):
            table = containment_table(family, n)
            return np.zeros_like(table) if family == "fig1" else table

        monkeypatch.setattr(verify, "containment_table", blanked)
    if check == "theorem4":
        run = partial(verify.check_theorem4, 5)
    else:
        run = partial(verify.check_theorem5, 5, 5)
    single = run(shards=1)
    assert (single.failures > 0) == blank
    for shards in (2, 3, 7, 10**8):
        assert run(shards=shards).to_json() == single.to_json(), shards


def test_blocks_reach_past_the_table_orders():
    # order 6 through the order-5 prefilter rows: the blocks of parents
    # 3..700, against the per-index recurrence over the order-5 table (no
    # class table holds order 6)
    rows = partial(_class_rows, is_weakly_quasi_transitive)
    assert np.array_equal(_rows(wqt_mask, 6, 3, 701), _expected(rows, 6, 3, 701))


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
        got = [i for rows in block_chunks(keep, 6, p, p + 1) for i in rows.tolist()]
        block = range(p * 4**5, (p + 1) * 4**5)
        assert got == [i for i in block if member(digraph_from_index(6, i))], p
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
    expected = _expected(wqt_mask, 5, 0, _blocks(5))
    for v in range(5):
        expected = expected[deleted_index(5, v, expected) != member]
    assert 0 < expected.size < 82_012
    assert np.array_equal(_rows(verify.wqt_mask, 5, 0, _blocks(5)), expected)
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
    sizes = [c.size for c in block_chunks(_bounded(keep), 6, 0, _blocks(6))]
    assert max(sizes) <= CHUNK
    assert sum(sizes) == count
