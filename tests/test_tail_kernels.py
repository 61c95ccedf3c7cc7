"""Pins for the two per-sample kernels of the theorem-5 generated tail.

`generate_locally_semicomplete` repairs with a worklist and draws its
reach values through `getrandbits`; a reference copy of the restart-scan
generator it replaced (with `randint` draws) is kept here and compared on
seeded inputs, and its repair is checked to be order-independent: the
drawn digraph repaired in shuffled orders always reaches the generator's
output.  The greedy elimination with the di-simplicial test inlined is
compared with a rescan from vertex 0 on the digraphs the tail judges.
"""

import random

import pytest
from test_incremental import _assert_matches_reference

from dichordal.classes import generate_locally_semicomplete, is_locally_semicomplete
from dichordal.digraph import bits, from_out_masks, symmetric_subdigraph
from dichordal.verify import _lsc_tail

# -- reference copy of the restart-scan generator -----------------------------


def _ref_side_violation(side, out, inn):
    while side:
        low = side & -side
        side ^= low
        x = low.bit_length() - 1
        ys = side & ~(out[x] | inn[x])
        if ys:
            return x, (ys & -ys).bit_length() - 1
    return None


def _ref_draw(seed, n):
    """The round construction before repair: (out, inn) masks."""
    rng = random.Random(seed)
    out = [0] * n
    inn = [0] * n
    for v in range(n):
        reach = rng.randint(0, n - 1) if n > 1 else 0
        for step in range(1, reach + 1):
            w = (v + step) % n
            out[v] |= 1 << w
            inn[w] |= 1 << v
    forward = list(out)
    for v in range(n):
        for w in bits(forward[v]):
            if rng.random() < 0.3:
                out[w] |= 1 << v
                inn[v] |= 1 << w
    return out, inn


def _join(out, inn, x, y):
    out[x] |= 1 << y
    inn[x] |= 1 << y
    out[y] |= 1 << x
    inn[y] |= 1 << x


def _ref_restart_repair(out, inn):
    """First violation (smallest v, in-side first, then x, then y) each
    time, resuming the scan at min(v, x, y)."""
    n = len(out)
    v = 0
    while v < n:
        bad = _ref_side_violation(inn[v], out, inn) or _ref_side_violation(out[v], out, inn)
        if bad is None:
            v += 1
            continue
        x, y = bad
        _join(out, inn, x, y)
        v = min(v, x, y)
    return out


def _ref_generate(seed, n):
    return _ref_restart_repair(*_ref_draw(seed, n))


def _shuffled_repair(out, inn, rng):
    """Repair one violating pair at a time, drawn at random from all of them."""
    n = len(out)
    while True:
        pairs = [
            (x, y)
            for v in range(n)
            for side in (inn[v], out[v])
            for x in bits(side)
            for y in bits(side & ~(out[x] | inn[x]) & ~((2 << x) - 1))
        ]
        if not pairs:
            return out
        _join(out, inn, *rng.choice(pairs))


# -- generator --------------------------------------------------------------------


def test_generator_matches_restart_scan_copy():
    for n in range(1, 41):
        for seed in range(60 if n <= 12 else 15):
            d = generate_locally_semicomplete(seed, n)
            assert list(d.out_masks) == _ref_generate(seed, n), (seed, n)


def test_generator_matches_restart_scan_copy_on_tail_seeds():
    # the seeds and sizes of a theorem-5 tail: seed * 1_000_003 + i, n = 6..8
    sizes = range(6, 9)
    for seed in (0, 101):
        for i in range(600):
            d = _lsc_tail(sizes, seed, i)
            assert list(d.out_masks) == _ref_generate(seed * 1_000_003 + i, d.n)


def test_reach_draws_match_randint():
    # the rejection draw consumes the stream exactly as randint(0, n - 1)
    for n in (2, 3, 4, 5, 8, 9, 16, 17, 33, 100, 4096):
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            k = n.bit_length()
            for _ in range(50):
                r = b.getrandbits(k)
                while r >= n:
                    r = b.getrandbits(k)
                assert a.randint(0, n - 1) == r
            assert a.getstate() == b.getstate()


@pytest.mark.parametrize("n", [3, 5, 8, 12, 16])
def test_shuffled_repair_orders_reach_the_generator_output(n):
    rng = random.Random(n)
    for seed in range(40):
        expected = list(generate_locally_semicomplete(seed, n).out_masks)
        start = _ref_draw(seed, n)
        for _ in range(4):
            out = _shuffled_repair(list(start[0]), list(start[1]), rng)
            assert out == expected, (seed, n)


def test_repair_adds_only_digons_and_leaves_no_violation():
    for n in range(1, 16):
        for seed in range(30):
            before = from_out_masks(_ref_draw(seed, n)[0])
            after = generate_locally_semicomplete(seed, n)
            assert is_locally_semicomplete(after)
            added = [a ^ b for a, b in zip(before.out_masks, after.out_masks)]
            for x, mask in enumerate(added):
                assert mask & before.out_masks[x] == 0
                for y in bits(mask):
                    # a repair joins a non-adjacent pair by both arcs
                    assert not before.adjacent(x, y) and after.digon_masks[x] >> y & 1


# -- greedy elimination ----------------------------------------------------------


def test_greedy_matches_rescan_on_tail_digraphs():
    sizes = range(6, 9)
    for i in range(400):
        d = _lsc_tail(sizes, 7, i)
        _assert_matches_reference(d)
        _assert_matches_reference(symmetric_subdigraph(d))
