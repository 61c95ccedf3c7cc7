"""The cached inputs of the block rule that `tables.block_chunks` reads.

`_block_rule(keep, n)` caches the ascending order-(n-1) members of `keep`
and their deletion rows, so a warm scan remaps no index: each piece
gathers its E_v rows at slices of the cached rows.
"""

import numpy as np
import pytest

from dichordal import tables, verify
from dichordal.digraph import digraph_count
from dichordal.tables import deleted_index, lsc_mask, wqt_mask

ORDER5_MEMBERS = {wqt_mask: 82_012, lsc_mask: 71_284}


@pytest.mark.parametrize("keep", [wqt_mask, lsc_mask], ids=["wqt", "lsc"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_block_rule_caches_the_member_deletion_rows(keep, n):
    parents, deletions, extensions = tables._block_rule(keep, n)
    order = np.arange(digraph_count(n - 1), dtype=np.int64)
    assert np.array_equal(parents, np.flatnonzero(keep(n - 1, order)))
    assert deletions.dtype == np.int64 and deletions.shape == (n - 1, parents.size)
    for v in range(n - 1):
        assert np.array_equal(deletions[v], deleted_index(n - 1, v, parents))
    assert not any(a.flags.writeable for a in (parents, deletions, extensions))
    if n == 6:  # member parents only, never all 4^10 order-5 indices
        assert deletions.shape == (5, ORDER5_MEMBERS[keep])


def _reports():
    return [verify.check_theorem4(5).to_json(), verify.check_theorem5(5, 5).to_json()]


def test_warm_scans_remap_no_index(monkeypatch):
    reports = _reports()  # builds the tables and the block rules

    def remap(*args):
        raise AssertionError("a warm scan remapped an index")

    monkeypatch.setattr(tables, "deleted_index", remap)
    for _ in range(2):
        assert _reports() == reports
