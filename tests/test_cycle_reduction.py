"""Theorem 5's symmetric-part clause, reduced to chordless cycles, for k <= 7.

If the clause "symmetric part semi-strict chordal" alone decided a locally
semicomplete (lsc) digraph D, then D would hold no fig1 member, no induced
non-symmetric dicycle and no lollipop, while its symmetric part had a
chordless cycle C on k >= 4 vertices.  All four properties are hereditary,
so D[C] would be a k-vertex lsc, family-free digraph whose symmetric part
is exactly the cycle C_k.  In such a digraph only the k(k-3)/2 pairs off
the cycle are free, and each is non-adjacent or a single arc (a digon would
change the symmetric part).

The search below sets those pairs in order of cyclic distance and prunes
every triple whose three pairs are set: by the lsc rule (two out- or two
in-neighbours of a vertex are adjacent) and by an induced non-symmetric
3-cycle.  Both are triple conditions, so every leaf is lsc and free of
induced directed triangles; each is asserted lsc and tested by the three
detectors.  No leaf is family-free for k = 4..7, so the clause decides no
lsc digraph whose symmetric part has a chordless cycle of length 4 to 7;
fig1 alone rules out every leaf.
A brute force over all 3^(k(k-3)/2) assignments is the second route for
k <= 6.
"""

import itertools

import pytest

from dichordal.classes import is_locally_semicomplete
from dichordal.digraph import build, from_out_masks, pair_slots, symmetric_subdigraph
from dichordal.patterns import (
    fig1_templates,
    find_any_fig1,
    find_induced,
    find_lollipop,
    find_nonsym_induced_dicycle,
)

DETECTORS = (find_any_fig1, find_nonsym_induced_dicycle, find_lollipop)

# k: (completions, of which family-free)
COUNTS = {4: (4, 0), 5: (32, 0), 6: (288, 0), 7: (2186, 0)}


def _distance(k, i, j):
    return min(j - i, k - (j - i))


def _free_pairs(k):
    """The pairs off the cycle 0, 1, ..., k-1, 0, nearest first."""
    return sorted(
        ((i, j) for i, j in pair_slots(k) if _distance(k, i, j) > 1),
        key=lambda p: (_distance(k, *p), p[1], p[0]),
    )


def _cycle(k):
    return build(k, [a for i in range(k) for a in ((i, (i + 1) % k), ((i + 1) % k, i))])


def _triple_ok(out, inn, a, b, c):
    """The lsc rule and no induced non-symmetric 3-cycle on {a, b, c}."""
    for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
        adjacent = (out[x] | inn[x]) >> y & 1
        both = 1 << x | 1 << y
        if not adjacent and (out[v] & both == both or inn[v] & both == both):
            return False
    one_way = [out[u] >> w & 1 and not inn[u] >> w & 1 for u, w in ((a, b), (b, c), (c, a))]
    back = [inn[u] >> w & 1 and not out[u] >> w & 1 for u, w in ((a, b), (b, c), (c, a))]
    return not all(one_way) and not all(back)


def search(k, detectors=DETECTORS):
    """(completions, family-free completions): the assignments of the free
    pairs that pass every triple, and those of them that no detector
    finds anything in."""
    pairs = _free_pairs(k)
    done = {(min(i, j), max(i, j)) for i, j in ((i, (i + 1) % k) for i in range(k))}
    # closing[p]: the third vertices w whose other two pairs with p are set
    # once p is, so the triple is checked exactly when its last pair is set
    closing = []
    for i, j in pairs:
        closing.append([
            w for w in range(k)
            if w not in (i, j) and {tuple(sorted((i, w))), tuple(sorted((j, w)))} <= done
        ])
        done.add((i, j))
    cycle = _cycle(k)
    out, inn = list(cycle.out_masks), list(cycle.in_masks)
    completions = family_free = 0
    choice = [0] * len(pairs)  # 0: none, 1: i -> j, 2: j -> i
    depth = 0
    while depth >= 0:
        if depth == len(pairs):
            d = from_out_masks(out)
            assert is_locally_semicomplete(d)
            assert symmetric_subdigraph(d) == cycle
            completions += 1
            family_free += not any(detect(d) for detect in detectors)
            depth -= 1
            continue
        i, j = pairs[depth]
        c = choice[depth]
        # undo the current choice of this pair
        out[i] &= ~(1 << j)
        inn[j] &= ~(1 << i)
        out[j] &= ~(1 << i)
        inn[i] &= ~(1 << j)
        if c == 3:
            choice[depth] = 0
            depth -= 1
            continue
        choice[depth] = c + 1
        if c == 1:
            out[i] |= 1 << j
            inn[j] |= 1 << i
        elif c == 2:
            out[j] |= 1 << i
            inn[i] |= 1 << j
        if all(_triple_ok(out, inn, i, j, w) for w in closing[depth]):
            depth += 1
    return completions, family_free


@pytest.mark.parametrize("k", sorted(COUNTS))
def test_cycle_completions_are_never_family_free(k):
    assert search(k) == COUNTS[k]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_brute_force_gives_the_same_completions(k):
    # every assignment of the free pairs, tested whole by the library
    triangle = fig1_templates()[3]
    pairs = _free_pairs(k)
    cycle_arcs = list(_cycle(k).arcs())
    lsc = completions = family_free = 0
    for codes in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = list(cycle_arcs)
        for (i, j), c in zip(pairs, codes):
            if c:
                arcs.append((i, j) if c == 1 else (j, i))
        d = build(k, arcs)
        if not is_locally_semicomplete(d):
            continue
        lsc += 1
        if find_induced(d, triangle) is None:
            completions += 1
            family_free += not any(detect(d) for detect in DETECTORS)
    assert (lsc, completions, family_free) == ({4: 4, 5: 32, 6: 512}[k], *COUNTS[k])


def _none_found(d):
    return None


# blanked detectors: whether every completion then reads family-free (else none)
KNOCKOUTS = {
    ("find_any_fig1", "find_nonsym_induced_dicycle", "find_lollipop"): True,
    ("find_any_fig1",): True,  # fig1 alone rules out every completion
    ("find_nonsym_induced_dicycle",): False,
    ("find_lollipop",): False,
}


@pytest.mark.parametrize("blanked", sorted(KNOCKOUTS))
@pytest.mark.parametrize("k", sorted(COUNTS))
def test_search_reports_witnesses_when_detectors_find_nothing(k, blanked):
    detectors = [_none_found if f.__name__ in blanked else f for f in DETECTORS]
    completions, family_free = search(k, detectors)
    assert completions == COUNTS[k][0]
    assert family_free == (completions if KNOCKOUTS[blanked] else 0)
