"""Pins for the incremental generator repair and greedy elimination.

The locally semicomplete generator must reproduce its seeded output byte
for byte (theorem-5 reports depend on it), and the greedy elimination
must delete and stall exactly as a rescan from vertex 0 would.
"""

import hashlib
import itertools

import pytest

from dichordal import classes
from dichordal.chordality import (
    Variant,
    elimination_ordering,
    stalled_subdigraph,
    witness,
)
from dichordal.classes import (
    _locally_semicomplete_violation,
    generate_locally_semicomplete,
)
from dichordal.digraph import bits, build, enumerate_digraphs, random_digraph, serialize

ALL_VARIANTS = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)

# sha256 over serialize(generate_locally_semicomplete(s, n)), concatenated for
# n in 1..12 and s in 0..499, then n in (16, 24) and s in 0..9; captured from
# the generator that rebuilt its digraph and rescanned from vertex 0 after
# every repair
LSC_DIGEST = "4d73fdc50f20219bc61662c2851f635901ffcb6df6908516db03cda3259ed6b8"


def test_generator_output_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 13):
        for s in range(500):
            h.update(serialize(generate_locally_semicomplete(s, n)).encode())
    for n in (16, 24):
        for s in range(10):
            h.update(serialize(generate_locally_semicomplete(s, n)).encode())
    assert h.hexdigest() == LSC_DIGEST


def test_generator_builds_once(monkeypatch):
    calls = []
    real = classes.from_out_masks

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(classes, "from_out_masks", counting)
    for seed in range(200):
        calls.clear()
        generate_locally_semicomplete(seed, 6 + seed % 3)
        assert len(calls) == 1


def _reference_violation(d):
    for v in range(d.n):
        for side in (d.in_masks[v], d.out_masks[v]):
            xs = list(bits(side))
            for i, x in enumerate(xs):
                for y in xs[i + 1 :]:
                    if not d.adjacent(x, y):
                        return (v, x, y)
    return None


def test_lsc_violation_matches_pair_scan():
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            assert _locally_semicomplete_violation(d) == _reference_violation(d)
    for seed in range(300):
        d = random_digraph(8, (3, 2, 2, 3), seed=seed)
        assert _locally_semicomplete_violation(d) == _reference_violation(d)


# -- greedy elimination against a rescan from vertex 0 -------------------------


def _reference_greedy(d, variant):
    """(order, stalled tuple or None), rescanning every alive vertex from 0."""
    alive = (1 << d.n) - 1
    order = []
    while alive:
        for v in bits(alive):
            if witness(d, v, variant, alive) is None:
                order.append(v)
                alive &= ~(1 << v)
                break
        else:
            return order, tuple(bits(alive))
    return order, None


def _assert_matches_reference(d):
    for variant in ALL_VARIANTS:
        order, stalled = _reference_greedy(d, variant)
        ordering = elimination_ordering(d, variant)
        if stalled is None:
            assert ordering is not None and list(ordering.order) == order
        else:
            assert ordering is None
        assert stalled_subdigraph(d, variant) == stalled


def _digon_path(n):
    # odd labels descending, then even labels ascending: both live ends
    # carry the largest labels
    order = [v for v in range(n - 1, -1, -1) if v % 2] + list(range(0, n, 2))
    return build(n, [a for x, y in zip(order, order[1:]) for a in ((x, y), (y, x))])


def test_elimination_matches_reference_exhaustive_n4():
    for n in range(0, 5):
        for d in enumerate_digraphs(n):
            _assert_matches_reference(d)


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (6, 1, 1, 2), (1, 1, 1, 6), (2, 3, 3, 0)])
def test_elimination_matches_reference_random(weights):
    for n, seed in itertools.product(range(5, 41, 5), range(6)):
        _assert_matches_reference(random_digraph(n, weights, seed=seed))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 120])
def test_elimination_matches_reference_digon_path(n):
    d = _digon_path(n)
    _assert_matches_reference(d)
    ordering = elimination_ordering(d, Variant.SEMI_STRICT)
    assert ordering is not None and ordering.order[0] == max(n - 2, 0)


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_elimination_matches_reference_transitive_tournament(n):
    _assert_matches_reference(build(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
