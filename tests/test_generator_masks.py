"""Generators and `substitute` write pair codes or out-masks, not arc lists.

Reference copies of the arc-list versions (the three base generators,
`substitute` and the recursive `generate_wqt`) are kept here and compared
on seeded inputs, including the random state each leaves behind, so the
draw order is pinned as well as the output.
"""

import random

import pytest

from dichordal import classes, digraph, patterns
from dichordal.classes import (
    _random_semicomplete,
    _random_symmetric,
    _random_transitive_oriented,
    generate_locally_semicomplete,
    generate_wqt,
)
from dichordal.cli import main
from dichordal.digraph import (
    MAX_VERTICES,
    bits,
    build,
    from_out_masks,
    random_digraph,
    substitute,
)

# -- reference copies of the arc-list code ------------------------------------


def _ref_transitive_oriented(rng, n):
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                reach[i] |= (1 << j) | reach[j]
    return build(n, [(i, j) for i in range(n) for j in bits(reach[i])])


def _ref_semicomplete(rng, n):
    arcs = []
    for j in range(1, n):
        for i in range(j):
            k = rng.randrange(3)
            if k != 1:
                arcs.append((i, j))
            if k != 0:
                arcs.append((j, i))
    return build(n, arcs)


def _ref_symmetric(rng, n):
    arcs = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.5:
                arcs.extend([(i, j), (j, i)])
    return build(n, arcs)


def _ref_substitute(d, parts):
    blocks = [parts[v] for v in range(d.n)]
    offsets = [0] * d.n
    total = 0
    for v, p in enumerate(blocks):
        offsets[v] = total
        total += p.n
    arcs = []
    for v, p in enumerate(blocks):
        arcs.extend((offsets[v] + x, offsets[v] + y) for x, y in p.arcs())
    for u, v in d.arcs():
        for x in range(blocks[u].n):
            for y in range(blocks[v].n):
                arcs.append((offsets[u] + x, offsets[v] + y))
    return build(total, arcs)


def _ref_generate_wqt(seed, depth, width):
    rng = random.Random(seed)
    builders = (_ref_transitive_oriented, _ref_semicomplete, _ref_symmetric)

    def draw(level):
        n = rng.randint(1, width)
        host = builders[rng.randrange(3)](rng, n)
        if level == 1:
            return host, [], n
        parts, total = [], 0
        for _ in range(n):
            parts.append(draw(level - 1))
            total += parts[-1][2]
            if total > MAX_VERTICES:
                raise ValueError("limit")
        return host, parts, total

    def assemble(node):
        host, parts, _ = node
        return _ref_substitute(host, [assemble(p) for p in parts]) if parts else host

    return assemble(draw(depth))


# -- comparisons ----------------------------------------------------------------


@pytest.mark.parametrize(
    "fast, ref",
    [
        (_random_transitive_oriented, _ref_transitive_oriented),
        (_random_semicomplete, _ref_semicomplete),
        (_random_symmetric, _ref_symmetric),
    ],
)
def test_base_generators_match_arc_list_copies(fast, ref):
    for n in range(0, 14):
        for seed in range(25):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            assert fast(rng_a, n) == ref(rng_b, n)
            assert rng_a.getstate() == rng_b.getstate()


def test_substitute_matches_arc_list_copy():
    rng = random.Random(7)
    for i in range(300):
        host = random_digraph(rng.randint(1, 6), seed=i)
        parts = [
            random_digraph(rng.randint(1, 5), (2, 1, 1, 1), seed=1000 * i + v)
            for v in range(host.n)
        ]
        assert substitute(host, parts) == _ref_substitute(host, parts)
    with pytest.raises(ValueError, match="nonempty"):
        substitute(random_digraph(2, seed=0), [random_digraph(0), random_digraph(1)])


def test_generate_wqt_matches_recursive_copy():
    for depth in range(1, 5):
        for width in range(1, 7):
            for seed in range(8 if depth < 4 else 3):
                assert generate_wqt(seed, depth, width) == _ref_generate_wqt(seed, depth, width)
    for depth, width, seed in [(4, 20, 0), (4, 20, 3), (6, 7, 0), (6, 7, 2), (40, 40, 1)]:
        with pytest.raises(ValueError, match="limit"):
            _ref_generate_wqt(seed, depth, width)
        with pytest.raises(ValueError, match="exceeds the limit"):
            generate_wqt(seed, depth, width)


def test_from_out_masks_equals_build():
    for n in range(0, 12):
        for seed in range(20):
            d = random_digraph(n, seed=seed)
            assert from_out_masks(d.out_masks) == d == build(n, d.arcs())
            assert from_out_masks(list(d.out_masks)).codes == d.codes


@pytest.mark.parametrize(
    "out, message",
    [
        ([0b010, 0b010, 0], "loop arc"),
        ([0b001], "loop arc"),
        ([0b1000, 0, 0], "outside 0..2"),
        ([0, 0b1100, 0], "outside 0..2"),
        ([0, -1], "outside 0..1"),
        ([0b10], "outside 0..0"),
    ],
)
def test_from_out_masks_rejects_loops_and_stray_bits(out, message):
    with pytest.raises(ValueError, match=message):
        from_out_masks(out)


def test_generators_build_no_arc_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build called")

    monkeypatch.setattr(digraph, "build", refuse)
    monkeypatch.setattr(classes, "build", refuse)
    for seed in range(20):
        generate_wqt(seed, depth=3, width=4)
        generate_locally_semicomplete(seed, 9)
    for t in patterns.fig1_templates():
        patterns.expand_template(t)


# -- depth ---------------------------------------------------------------------


def test_gen_wqt_deep_and_narrow(capsys):
    # one vertex per level; this recursed once per level and failed
    assert main(["gen", "--class", "wqt", "--depth", "3000", "--width", "1"]) == 0
    assert capsys.readouterr().out == "1 0\n"
    assert generate_wqt(5, depth=MAX_VERTICES, width=1).n == 1


def test_gen_wqt_rejects_depth_above_the_limit(capsys):
    depth = MAX_VERTICES + 1
    code = main(["gen", "--class", "wqt", "--depth", str(depth), "--width", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: depth {depth} exceeds the limit of {MAX_VERTICES}\n"
