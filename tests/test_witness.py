"""The single-vertex witness against independent references.

`witness(d, v, variant, within)` is the one non-greedy di-simplicial
definition: `is_di_simplicial`, `verify_ordering`, the CLI's NO verdict
and the rescan reference of `tests/test_incremental.py` all go through
it.  So it is checked here against code it shares nothing with: the
plain-set `_plain_di_simplicial` of the subset oracle and a brute-force
pair scan.  `verify_ordering` is checked against the copy-based version
it replaced, which built an induced relabelled copy of every suffix.
The `recognize` output is pinned by digest, captured before the CLI took
its witness from the whole digraph instead of an induced relabelled copy.
"""

import hashlib
import itertools
import random

import pytest

from dichordal import chordality
from dichordal.chordality import (
    EliminationOrdering,
    Variant,
    elimination_ordering,
    is_di_simplicial,
    verify_ordering,
    witness,
)
from dichordal.classes import generate_locally_semicomplete, generate_wqt
from dichordal.cli import main
from dichordal.digraph import bits, enumerate_digraphs, induced, random_digraph, serialize

from test_cli import EX1

ALL_VARIANTS = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)


def _plain_di_simplicial(ins, outs, v, variant, within):
    """Is v di-simplicial in the subdigraph induced by the vertex set
    `within`?  Over the subset oracle's plain-set pair rule."""
    pairs = chordality._failing_pairs(ins, outs, v, variant)
    return not any(u in within and w in within for u, w in pairs)


def _fails(d, u, w, variant):
    """Does the pair (u, w) miss the adjacency the variant requires?"""
    if variant is Variant.CHORDAL:
        return not d.has_arc(u, w)
    return not (d.has_arc(u, w) and d.has_arc(w, u))


def _failing_pairs(d, ins, outs, v, variant, within):
    """Every failing (u, w) around v inside `within`, by plain set scans."""
    ins, outs = ins[v] & within, outs[v] & within
    if variant is Variant.STRICT:
        nb = ins | outs
        pairs = [(u, w) for u in nb for w in nb if u < w]
    else:
        pairs = [(u, w) for u in ins for w in outs if u != w]
    return sorted(p for p in pairs if _fails(d, *p, variant))


def test_witness_matches_plain_definition_and_pair_scan_exhaustive_n4():
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            ins = [d.in_neighbors(v) for v in range(n)]
            outs = [d.out_neighbors(v) for v in range(n)]
            for mask in range(1 << n):
                within = frozenset(bits(mask))
                for v, variant in itertools.product(range(n), ALL_VARIANTS):
                    w = witness(d, v, variant, mask)
                    plain = _plain_di_simplicial(ins, outs, v, variant, within)
                    assert (w is None) == plain
                    failing = _failing_pairs(d, ins, outs, v, variant, within)
                    if w is None:
                        assert failing == []
                    else:
                        assert w.v == v and (w.u, w.w) == failing[0]


def test_witness_rejects_bad_vertex():
    d = random_digraph(3, seed=0)
    for v in (-1, 3):
        with pytest.raises(ValueError):
            witness(d, v, Variant.SEMI_STRICT, 0b111)
        with pytest.raises(ValueError):
            is_di_simplicial(d, v, Variant.SEMI_STRICT)


# -- verify_ordering against the copy-based certificate check ---------------------


def ref_verify_ordering(d, ordering):
    """The certificate check as it was: one induced relabelled copy and a
    sort per suffix."""
    if sorted(ordering.order) != list(range(d.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    for i, v in enumerate(ordering.order):
        suffix = sorted(ordering.order[i:])
        sub = induced(d, suffix)
        if not is_di_simplicial(sub, suffix.index(v), ordering.variant):
            return False
    return True


def test_verify_ordering_matches_copy_based_reference_exhaustive_n4(monkeypatch):
    # on the greedy ordering (when one exists) and three seeded permutations;
    # `chordality.induced` refuses, so verify_ordering builds no copy
    def refuse(*args):
        raise AssertionError("verify_ordering built an induced copy")

    monkeypatch.setattr(chordality, "induced", refuse)
    rng = random.Random(7)
    verdicts = set()
    for n in range(5):
        for d in enumerate_digraphs(n):
            for variant in ALL_VARIANTS:
                greedy = elimination_ordering(d, variant)
                if greedy is not None:
                    assert verify_ordering(d, greedy) and ref_verify_ordering(d, greedy)
                for _ in range(3):
                    ordering = EliminationOrdering(tuple(rng.sample(range(n), n)), variant)
                    verdict = verify_ordering(d, ordering)
                    assert verdict == ref_verify_ordering(d, ordering)
                    verdicts.add(verdict)
    assert verdicts == {False, True}


# -- recognize output pinned by digest -----------------------------------------

RANDOM_INPUTS = [
    (7, (1, 1, 1, 1), 28),
    (4, (3, 2, 2, 3), 63),
    (4, (1, 1, 1, 1), 72),
    (4, (2, 1, 1, 3), 81),
    (12, (6, 1, 1, 2), 7),
    (12, (6, 1, 1, 2), 9),
    (12, (6, 1, 1, 2), 10),
    (12, (6, 1, 1, 2), 11),
    (13, (3, 2, 2, 3), 3),
    (25, (1, 0, 0, 3), 34),
]
WQT_SEEDS = [0, 3, 4, 12, 21, 27]  # generate_wqt(seed, depth=2, width=4)
LSC_INPUTS = [(0, 8), (1, 8), (5, 12)]  # generate_locally_semicomplete(seed, n)


def _inputs():
    """Example 1 and 20 seeded digraphs, each NO for at least one variant."""
    yield EX1, None
    for n, weights, seed in RANDOM_INPUTS:
        yield None, (random_digraph(n, weights, seed=seed), None)
    n, weights, seed = RANDOM_INPUTS[0]
    yield None, (random_digraph(n, weights, seed=seed), {v: f"v{v}" for v in range(n)})
    for seed in WQT_SEEDS:
        yield None, (generate_wqt(seed, depth=2, width=4), None)
    for seed, n in LSC_INPUTS:
        yield None, (generate_locally_semicomplete(seed, n), None)


# sha256 over the concatenated stdout of `recognize --variant <v>` on the
# inputs above, in order, and the exit codes, one digit per input
RECOGNIZE_PINS = {
    ("chordal", False): (
        "db53f3c793c0ec03845ab53a425d6c8fe3f8e79ab8d43dd39412f22c190ac299",
        "000001111110000111111",
    ),
    ("chordal", True): (
        "c5280c8be7333d7be306b280052d9db9863d2a7e2e6cb0ac73ae0a19f212d44f",
        "000001111110000111111",
    ),
    ("semi-strict", False): (
        "59250a47874c49902652d633b147074dabd43bd890156aee52303f0529c5ce2e",
        "110101111111110111111",
    ),
    ("semi-strict", True): (
        "bd65c078bb68d6ca26d2f5c03f6fc1fc170c9708e40e52612d2ae21f6343c6d3",
        "110101111111110111111",
    ),
    ("strict", False): (
        "f89ae2fe45d981d9c49eb394f3d57b70e25facf34e783a48506dab0e7df91f55",
        "111111111111111111111",
    ),
    ("strict", True): (
        "f262cb8044c3bf49e127f1b7753e0c7ec2b081ca69bc42337fa8bb09959e239f",
        "111111111111111111111",
    ),
    ("all", False): (
        "a6da75dfc5cfd9f4435804e43f61c39edad61ca1cb3572c804deb1f8ce2b7b4f",
        "110101111111110111111",
    ),
    ("all", True): (
        "c83e79d78bd3d4ec0c7423a35660d62bf8a3e122104e7e9d6606ecbabb177aef",
        "110101111111110111111",
    ),
}


@pytest.mark.parametrize("variant, as_json", sorted(RECOGNIZE_PINS))
def test_recognize_output_is_pinned(tmp_path, capsys, variant, as_json):
    h = hashlib.sha256()
    codes = []
    for i, (path, made) in enumerate(_inputs()):
        if path is None:
            path = tmp_path / f"in{i}.dg"
            path.write_text(serialize(*made))
        argv = ["recognize", str(path), "--variant", variant] + ["--json"] * as_json
        codes.append(str(main(argv)))
        h.update(capsys.readouterr().out.encode())
    assert (h.hexdigest(), "".join(codes)) == RECOGNIZE_PINS[variant, as_json]
