"""Judge knock-out through `verify`: the nesting and recognizer judges, each
shown able to fail.

A judge passes when its sides agree, so a check that passes on correct
code says nothing unless a wrong side makes it fail.  Each test below
rebinds one of the functions that a judge reads from `verify`'s bindings
and pins how the check then reports: the failure count, the status and
the counterexamples.  A judge that dropped the clause a rebinding breaks
would pass instead.
"""

import pytest

from dichordal import verify
from dichordal.chordality import Variant, is_chordal, oracle_is_chordal
from dichordal.digraph import build, digraph_from_index, parse, serialize
from dichordal.knotting import ss_chordal_via_knotting, theorem2_oracle


def _symmetric_cycle(order):
    arcs = list(zip(order, order[1:] + order[:1]))
    return build(len(order), arcs + [(v, u) for u, v in arcs])


def test_nesting_fails_when_every_symmetric_digraph_is_called_chordal(monkeypatch):
    # the symmetric clause: semi-strict chordality of a symmetric digraph
    # equals chordality of its underlying graph, and the three labelled
    # symmetric 4-cycles are neither
    monkeypatch.setattr(verify, "underlying_SD_is_chordal", lambda d: True)
    report = verify.check_nesting(4)
    assert (report.failures, report.status) == (3, "FAIL")
    cycles = {_symmetric_cycle(c) for c in ([0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3])}
    assert {parse(cx["digraph"]) for cx in report.counterexamples} == cycles
    sides = ("strict", "semi_strict", "chordal")
    assert not any(cx[side] for cx in report.counterexamples for side in sides)


def _answering(asked, answered):
    """`is_chordal`, answering the variant `asked` as the variant `answered`."""

    def swapped(d, variant):
        return is_chordal(d, answered if variant == asked else variant)

    return swapped


# failures of check_nesting(4) with one variant answered as another.  Only
# STRICT answered as CHORDAL shows: it breaks strict => semi-strict on the
# n=4 digraphs that are chordal but not semi-strict chordal.  The judge
# checks two implications and, on symmetric digraphs, where the three
# variants agree, one equality; the other three swaps keep both
# implications true and change nothing on symmetric digraphs, so the judge
# cannot see them.
SWAPS = [
    (Variant.STRICT, Variant.CHORDAL, 402),
    (Variant.STRICT, Variant.SEMI_STRICT, 0),
    (Variant.SEMI_STRICT, Variant.STRICT, 0),
    (Variant.SEMI_STRICT, Variant.CHORDAL, 0),
]


@pytest.mark.parametrize(
    "asked, answered, failures", SWAPS, ids=[f"{a.name}-as-{b.name}" for a, b, _ in SWAPS]
)
def test_nesting_sees_only_strict_answered_as_chordal(monkeypatch, asked, answered, failures):
    monkeypatch.setattr(verify, "is_chordal", _answering(asked, answered))
    report = verify.check_nesting(4)
    assert (report.failures, report.status) == (failures, "FAIL" if failures else "PASS")
    if failures:
        # each counterexample is chordal but not semi-strict chordal
        for cx in report.counterexamples:
            d = parse(cx["digraph"])
            assert is_chordal(d, Variant.CHORDAL) and not is_chordal(d, Variant.SEMI_STRICT)


FLIPPED = digraph_from_index(3, 5)

# each recognizer that `_judge_recognizers` reads, and the side it reports
RECOGNIZERS = {
    "is_chordal": (is_chordal, "greedy"),
    "oracle_is_chordal": (oracle_is_chordal, "subset_oracle"),
    "ss_chordal_via_knotting": (ss_chordal_via_knotting, "knotting_iterative"),
    "theorem2_oracle": (theorem2_oracle, "knotting_oracle"),
}


@pytest.mark.parametrize("name", sorted(RECOGNIZERS))
def test_recognizers_fail_when_one_recognizer_flips_one_digraph(monkeypatch, name):
    recognizer, side = RECOGNIZERS[name]

    def flipped(d, *args):
        return (not recognizer(d, *args)) if d == FLIPPED else recognizer(d, *args)

    monkeypatch.setattr(verify, name, flipped)
    report = verify.check_recognizer_equivalence(3)
    assert (report.failures, report.status) == (1, "FAIL")
    [cx] = report.counterexamples
    assert cx["digraph"] == serialize(FLIPPED)
    truth = is_chordal(FLIPPED, Variant.SEMI_STRICT)
    assert [k for k, v in cx.items() if k != "digraph" and v != truth] == [side]
