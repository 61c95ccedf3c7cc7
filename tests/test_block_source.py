"""The extension-block row source of the exhaustive theorem scans.

`tables.block_chunks` expands only the blocks of order-(n-1) digraphs that
the prefilter keeps; it must give exactly the rows that filtering every
index gives, in the same (ascending) order, for any range a shard can get.
"""

import numpy as np
import pytest

from dichordal import verify
from dichordal.digraph import digraph_count
from dichordal.tables import CHUNK, block_chunks, index_chunks, lsc_mask, wqt_mask
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


def _rows(keep, n: int, start: int, stop: int) -> np.ndarray:
    def bounded(k, idx):  # the expanded blocks, before the order-n filter
        assert idx.size <= CHUNK
        return keep(k, idx)

    chunks = list(block_chunks(bounded, n, start, stop))
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
    # ends inside a block
    start, stop = 3 * 4**5 + 7, 700 * 4**5 + 17
    assert np.array_equal(_rows(wqt_mask, 6, start, stop), _expected(wqt_mask, 6, start, stop))


def test_theorem4_order_zero_keeps_its_single_row():
    report = verify.check_theorem4(0)
    assert (report.total, report.filtered, report.passed) == (1, 1, 1)


def test_scan_reads_the_prefilter_through_verify(monkeypatch):
    # the tracer and the golden tests rebind verify's names
    rows = {}

    def counting(n, idx):
        rows[n] = rows.get(n, 0) + idx.size
        return wqt_mask(n, idx)

    monkeypatch.setattr(verify, "wqt_mask", counting)
    report = verify.check_theorem4(5, shards=3)
    assert (report.total, report.filtered, report.failures) == (4**10, 82_012, 0)
    # only the blocks of the 1,246 order-4 members reach the order-5 rows
    assert sorted(rows) == [4, 5]
    assert rows[5] == 1_246 * 4**4
