"""The one pair-code encoder, `digraph_to_index(d, vertices)`.

For a sequence of distinct vertices it gives the index of the digraph d
induces on them, relabelled 0, 1, ... in the order given.  It is checked
against references that share no code with it: the decoder
`digraph_from_index` on a digraph built arc by arc, and the vectorized
remap `subset_index`.  `tables._base` is checked against the slot and
arc-swap construction it replaced, kept here as the reference.
"""

import itertools
import random

import numpy as np
import pytest

from dichordal.digraph import (
    build,
    digraph_count,
    digraph_from_index,
    digraph_to_index,
    pair_slots,
    random_digraph,
    slot_index,
)
from dichordal.tables import _base, _members, subset_index


def relabelled(d, vertices):
    """The digraph d induces on `vertices`, vertex vertices[i] renamed i,
    built arc by arc."""
    pos = {v: i for i, v in enumerate(vertices)}
    return build(len(pos), [(pos[u], pos[v]) for u, v in d.arcs() if u in pos and v in pos])


def _check(d, sequences):
    whole = digraph_to_index(d)
    assert whole == digraph_to_index(d, range(d.n)) == digraph_to_index(d, list(range(d.n)))
    for s in sequences:
        index = digraph_to_index(d, s)
        assert digraph_from_index(len(s), index) == relabelled(d, s), s
        if list(s) == sorted(s):
            assert index == subset_index(d.n, s, whole), s


@pytest.mark.parametrize("n", range(4))
def test_every_vertex_sequence_exhaustively(n):
    sequences = [s for k in range(n + 1) for s in itertools.permutations(range(n), k)]
    for i in range(digraph_count(n)):
        _check(digraph_from_index(n, i), sequences)


@pytest.mark.parametrize("n", range(4, 9))
def test_subsets_and_permutations_on_seeded_digraphs(n):
    rng = random.Random(n)
    for seed in range(8):
        d = random_digraph(n, (2, 1, 1, 1), seed=1000 * n + seed)
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        perms = [tuple(rng.sample(range(n), n)) for _ in range(12)]
        _check(d, subsets + perms)


def slot_base(family, n):
    """`tables._base` as it was built before the one encoder: each member's
    codes written into the relabelled slots, the arcs swapped where a pair
    is stored the other way round."""
    slots = pair_slots(n)
    base = set()
    members = [d.codes for d in _members(family, n)]
    for codes, perm in itertools.product(members, itertools.permutations(range(n))):
        index = 0
        for (a, b), c in zip(slots, codes):
            x, y = perm[a], perm[b]
            if x > y:
                x, y, c = y, x, ((c & 1) << 1) | (c >> 1)
            index |= c << 2 * (len(slots) - 1 - slot_index(x, y))
        base.add(index)
    return base


@pytest.mark.parametrize("family", ["fig1", "dicycle", "lollipop"])
@pytest.mark.parametrize("n", range(7))
def test_base_equals_the_slot_construction(family, n):
    base = _base(family, n)
    assert base.dtype == np.int64
    assert len(set(base.tolist())) == base.size
    assert set(base.tolist()) == slot_base(family, n)
