"""Clause knock-out on the theorem-5 tail, through `verify`'s bindings.

The tail's judge reads `find_nonsym_induced_dicycle`, `contains_fig1` and
`find_lollipop` from `verify` when it is called, so rebinding one of them
to "none found" blanks that clause of the tail's right side.  Over the
35,000 samples of seed 101 (`check_theorem5(5, 8, samples=35000,
seed=101)`) the check then fails on 1, 6,084 and 2 samples.  A full run per
clause takes seconds, so the samples where the dicycle and the lollipop
decide are pinned here, with the first fig1 ones, and the seed-0 check with
5,000 samples runs end to end.
"""

import pytest

from dichordal import verify
from dichordal.verify import _judge_theorem5_tail, _lsc_tail

BLANK = {
    "find_nonsym_induced_dicycle": lambda d, min_len=3: None,
    "contains_fig1": lambda d: False,
    "find_lollipop": lambda d, k_max=None: None,
}

# seed-101 sample indices where blanking the clause alone flips the right side
DECISIVE_SEED_101 = {
    "find_nonsym_induced_dicycle": (31047,),
    "contains_fig1": (3, 10, 12, 15, 28),  # the first five of 6,084
    "find_lollipop": (17691, 27486),
}

# failures of check_theorem5(5, 8, samples=5000, seed=0) with the clause blanked;
# no sample of this run has a lollipop as its only obstruction
FAILURES_SEED_0 = {
    "find_nonsym_induced_dicycle": 1,
    "contains_fig1": 874,
    "find_lollipop": 0,
}


@pytest.mark.parametrize("clause", sorted(BLANK))
def test_blanked_clause_flips_the_pinned_tail_samples(monkeypatch, clause):
    samples = [_lsc_tail(range(6, 9), 101, i) for i in DECISIVE_SEED_101[clause]]
    assert all(agrees for d in samples for agrees, _ in _judge_theorem5_tail(d))
    monkeypatch.setattr(verify, clause, BLANK[clause])
    for d in samples:
        ((agrees, sides),) = _judge_theorem5_tail(d)
        assert (agrees, sides["lhs"], sides["rhs"]) == (False, False, True)


@pytest.mark.parametrize("clause", sorted(BLANK))
def test_blanked_clause_fails_the_seed_0_tail(monkeypatch, clause):
    monkeypatch.setattr(verify, clause, BLANK[clause])
    report = verify.check_theorem5(5, 8, samples=5000, seed=0)
    want = FAILURES_SEED_0[clause]
    assert (report.failures, report.status) == (want, "FAIL" if want else "PASS")
    assert all(cx["n"] > 5 and not cx["lhs"] and cx["rhs"] for cx in report.counterexamples)
