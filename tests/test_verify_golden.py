"""Golden reports for every entry of `verify.CHECKS`.

Each case pins the sha256 of `to_json() + to_text()`, captured before the
checks were moved onto `verify._check` and its two workers, and requires
the same bytes for every shard count and worker count.  The blanked cases remove the fig1 table, as in
`test_tables.test_counterexamples_first_in_index_order`, so that theorems
4 and 5 report counterexamples; the deletion probe reports real ones.
"""

import hashlib

import numpy as np
import pytest

from dichordal import verify
from dichordal.digraph import digraph_count

# (check, parameters, fig1 table blanked, sha256 of to_json() + to_text())
GOLDEN = [
    ("recognizers", {"n": 1}, False,
     "c6dd75171631744ccff66efd0d409f9fe9a3c1fe6a69afa06ca9252b23521c87"),
    ("recognizers", {"n": 3, "seed": 1}, False,
     "d1d78e4635f88d12b8752167c80cb69eb76752032d2f4d27c9b142e20cad7316"),
    ("recognizers", {"n": 5, "samples": 24, "seed": 4}, False,
     "e2ebcb7ef30fd5ee8528544c123d956b072596c6938ed4ac74e851b40e6920ea"),
    ("theorem4", {"n": 4}, False,
     "86061179be45a8503934e1b5a5e779ca12ef3f128db26bd429e22db7b1a5e9a8"),
    ("theorem4", {"n": 5}, False,
     "00f9fda2ecdcec342ca45657a6c5150c907df84dfa0616f0daba427c39ffc299"),
    ("theorem4", {"n": 4}, True,
     "a984bba9bb137be5371bbdf9a2d49dc8ef9ebb755807e9a3016ade5c548332dc"),
    # captured before the scans read extension blocks; counterexamples at n=5
    ("theorem4", {"n": 5}, True,
     "61f1940c42f88c47fe22ea90f204762c004840f6ff847347c92364ad48c9f759"),
    ("theorem5", {"n_exhaustive": 4, "n_random": 6, "samples": 60, "seed": 3}, False,
     "48c1f288e030a4a239d70e230ec912634391f91785c4bb957aef58368ccb69ba"),
    ("theorem5", {"n_exhaustive": 5, "n_random": 5, "samples": 0}, False,
     "141194aab2cc837180f197467c8820d5e355284ed0eb8a1f86dfa45cc6285bb3"),
    ("theorem5", {"n_exhaustive": 4, "n_random": 6, "samples": 60, "seed": 3}, True,
     "a9711c64e55c0635d2c8bef89145449defe6f1e9dc0b89cb5ce74126913aed70"),
    ("theorem5", {"n_exhaustive": 0, "n_random": 6, "samples": 60, "seed": 3}, True,
     "f4aefee882d78c1ceb2350cd4c5928304afa86d059829f6b60c2961ef055911a"),
    # captured before the scans read extension blocks
    ("theorem5", {"n_exhaustive": 5, "n_random": 5, "samples": 0}, True,
     "47053659b7a3990b987f5ccb9e06e99e1c7952a46dd4c7985436cf803dae2e53"),
    ("nesting", {"n": 3}, False,
     "1186f95b366ffa79d23fd6d99246e19cf6fd788ec8a5c21e6c4f6fcaa7068774"),
    ("knotting-deletion", {"n": 5, "samples": 40, "seed": 2}, False,
     "c08954d001a3c474daa411f33730a727487c11462806c014c5795b355fc1726a"),
]


def _digest(check: str, params: dict, **kwargs) -> str:
    report = verify.CHECKS[check](**params, **kwargs)
    return hashlib.sha256((report.to_json() + report.to_text()).encode()).hexdigest()


def _blank_fig1(monkeypatch) -> None:
    blank = {k: np.zeros(digraph_count(k), dtype=bool) for k in range(6)}
    real = verify.containment_table
    monkeypatch.setattr(
        verify,
        "containment_table",
        lambda family, n: blank[n] if family == "fig1" else real(family, n),
    )


def test_every_check_has_a_golden_case():
    assert {check for check, _, _, _ in GOLDEN} == set(verify.CHECKS)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize(
    "check, params, blanked, digest",
    GOLDEN,
    ids=[f"{c}-{'-'.join(map(str, p.values()))}{'-blanked' * b}" for c, p, b, _ in GOLDEN],
)
def test_report_bytes_match_golden(monkeypatch, check, params, blanked, digest, shards):
    if blanked:
        _blank_fig1(monkeypatch)
    assert _digest(check, params, shards=shards) == digest


def test_report_bytes_match_golden_with_two_workers():
    check, params, _, digest = GOLDEN[-1]
    assert check == "knotting-deletion"
    assert _digest(check, params, shards=3, workers=2) == digest


def test_deletion_probe_builds_no_copy(monkeypatch):
    # the probe reads each vertex's classes on the sampled digraph's own
    # masks: no induced copy of D - v and no knotting graph at all
    def refuse(*args):
        raise AssertionError("the deletion probe built a copy")

    check, params, _, digest = GOLDEN[-1]
    monkeypatch.setattr(verify, "knotting_graph", refuse)
    monkeypatch.setattr(verify, "induced", refuse)
    assert _digest(check, params) == digest


def _golden(check: str, params: dict) -> str:
    """GOLDEN's digest of the unblanked case."""
    return next(d for c, p, b, d in GOLDEN if (c, p, b) == (check, params, False))


# theorem 5 with no tail samples: the tail job of 0 samples has no part,
# so no sample is drawn, whether or not any size lies above n_exhaustive
NO_TAIL = [
    ({"n_exhaustive": 5, "n_random": 5},
     _golden("theorem5", {"n_exhaustive": 5, "n_random": 5, "samples": 0})),
    ({"n_exhaustive": 5, "n_random": 8, "samples": 0},
     "65bca556b16cee8874e71bd868cbeda179eccfc8de592f813c08ab8c1962e312"),
]


@pytest.mark.parametrize("params, digest", NO_TAIL, ids=["empty-sizes", "no-samples"])
def test_theorem5_without_samples_draws_no_tail(monkeypatch, params, digest):
    def refuse(*args):
        raise AssertionError("a tail sample was drawn")

    monkeypatch.setattr(verify, "_lsc_tail", refuse)
    assert _digest("theorem5", params) == digest


# the deletion probe at its smallest order, and with sizes cycling through 2..n
PROBE = [
    ({"n": 2, "samples": 5}, [2] * 5,
     "77211a89f450e8e36646256f8ea01872dd4376e442302e0d25a4ad7fa6317b27"),
    ({"n": 5, "samples": 12}, [2, 3, 4, 5] * 3,
     "d859a9d98b3967390a6ab0a92d6037ef6e19290e8fc1e7e5150f4e0c6495fa08"),
]


@pytest.mark.parametrize("params, sizes, digest", PROBE, ids=["n2", "n5"])
def test_deletion_probe_sizes_cycle_through_2_to_n(monkeypatch, params, sizes, digest):
    drawn = []
    real = verify.random_digraph

    def recording(n, *args, **kwargs):
        drawn.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(verify, "random_digraph", recording)
    assert _digest("knotting-deletion", params) == digest
    assert drawn == sizes
