"""The mask search in `patterns` against a reference copy of the
pair_kind matcher it replaced.

The reference below is that matcher as it stood: a candidate loop over
every host vertex with a `pair_kind` test per earlier template vertex,
`find_lollipop` as one `find_induced` call per path length, and the
induced dicycle search by `pair_kind`/`adjacent`.  The mask search must
return exactly its first hit, so every comparison is on the returned
embedding or cycle, not on existence.  The reference lives here only.
"""

import hashlib
import io
import itertools
import random
import time
from contextlib import redirect_stdout

import pytest

from dichordal.classes import generate_locally_semicomplete
from dichordal.cli import main
from dichordal.digraph import (
    Digraph,
    PairKind,
    build,
    enumerate_digraphs,
    random_digraph,
    serialize,
    slot_index,
)
from dichordal.patterns import (
    _ALLOWED_KINDS,
    EdgeConstraint,
    Embedding,
    PatternTemplate,
    expand_template,
    fig1_templates,
    find_any_fig1,
    find_induced,
    find_lollipop,
    find_nonsym_induced_dicycle,
    lollipop_template,
)

# -- reference copy of the pair_kind matcher ----------------------------------------


def ref_find_induced(d, t):
    if t.k > d.n:
        return None
    req_in = [0] * t.k
    req_out = [0] * t.k
    req_digon = [0] * t.k
    req_nbr = [0] * t.k
    for (i, j), con in t.constraints.items():
        if con is EdgeConstraint.NON_ADJACENT:
            continue
        req_nbr[i] += 1
        req_nbr[j] += 1
        if con is EdgeConstraint.DIGON:
            req_digon[i] += 1
            req_digon[j] += 1
            req_in[i] += 1
            req_out[i] += 1
            req_in[j] += 1
            req_out[j] += 1
        elif con is EdgeConstraint.ARC_FORWARD:
            req_out[i] += 1
            req_in[j] += 1
        elif con is EdgeConstraint.ARC_BACKWARD:
            req_in[i] += 1
            req_out[j] += 1
    indeg = [d.in_masks[v].bit_count() for v in range(d.n)]
    outdeg = [d.out_masks[v].bit_count() for v in range(d.n)]
    digdeg = [d.digon_masks[v].bit_count() for v in range(d.n)]
    nbrdeg = [d.neighbor_mask(v).bit_count() for v in range(d.n)]
    mapping = [-1] * t.k
    used = [False] * d.n

    def extend(i):
        if i == t.k:
            return True
        for h in range(d.n):
            if used[h]:
                continue
            if (
                indeg[h] < req_in[i]
                or outdeg[h] < req_out[i]
                or digdeg[h] < req_digon[i]
                or nbrdeg[h] < req_nbr[i]
            ):
                continue
            if any(
                d.pair_kind(mapping[p], h) not in _ALLOWED_KINDS[t.constraint(p, i)]
                for p in range(i)
            ):
                continue
            mapping[i] = h
            used[h] = True
            if extend(i + 1):
                return True
            used[h] = False
        return False

    if extend(0):
        return Embedding(t.name, tuple(mapping))
    return None


def ref_find_any_fig1(d):
    by_name = {t.name: t for t in fig1_templates()}
    for name in ("fig1d", "fig1b", "fig1c", "fig1a"):
        hit = ref_find_induced(d, by_name[name])
        if hit is not None:
            return hit
    return None


def ref_find_lollipop(d):
    for k in range(1, d.n - 3):
        hit = ref_find_induced(d, lollipop_template(k))
        if hit is not None:
            return hit
    return None


def ref_find_dicycle(d, min_len=3):
    def extend(path):
        last = path[-1]
        first = path[0]
        for w in range(first + 1, d.n):
            if w in path:
                continue
            if d.pair_kind(last, w) is not PairKind.FORWARD:
                continue
            if any(d.adjacent(w, x) for x in path[1:-1]):
                continue
            if len(path) == 1:
                found = extend(path + [w])
                if found is not None:
                    return found
                continue
            back = d.pair_kind(w, first)
            if back is PairKind.FORWARD and len(path) + 1 >= min_len:
                return tuple(path) + (w,)
            if back is PairKind.NONE:
                found = extend(path + [w])
                if found is not None:
                    return found
        return None

    for start in range(d.n):
        found = extend([start])
        if found is not None:
            return found
    return None


def assert_same_hits(d, fig1=True):
    if fig1:
        for t in fig1_templates():
            assert find_induced(d, t) == ref_find_induced(d, t), (d, t.name)
        assert find_any_fig1(d) == ref_find_any_fig1(d), d
    assert find_lollipop(d) == ref_find_lollipop(d), d
    if d.n >= 3:
        assert find_nonsym_induced_dicycle(d) == ref_find_dicycle(d), d
        assert find_nonsym_induced_dicycle(d, 4) == ref_find_dicycle(d, 4), d


# -- hosts ----------------------------------------------------------------------------


def planted(seed, n):
    """A random host with a relabelled lollipop expansion written over a
    random vertex subset.  Plain random draws rarely hold a lollipop."""
    rng = random.Random(seed)
    k = rng.randint(1, n - 4)
    (lol,) = expand_template(lollipop_template(k))
    weights = rng.choice([(4, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1), (6, 1, 1, 2)])
    host = random_digraph(n, weights, seed=seed)
    verts = rng.sample(range(n), lol.n)
    codes = list(host.codes)
    for i in range(lol.n):
        for j in range(i + 1, lol.n):
            a, b = verts[i], verts[j]
            kind = int(lol.pair_kind(i, j))
            if a < b:
                codes[slot_index(a, b)] = kind
            else:
                codes[slot_index(b, a)] = (0, 2, 1, 3)[kind]
    return Digraph(n, codes)


def digon_path(n):
    """Digon path through the odd labels descending, then the even labels
    ascending (the benchmark's `dp-n` inputs)."""
    order = [v for v in range(n - 1, -1, -1) if v % 2] + list(range(0, n, 2))
    arcs = []
    for a, b in zip(order, order[1:]):
        arcs += [(a, b), (b, a)]
    return build(n, arcs)


def transitive_tournament(n):
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- exhaustive and seeded comparisons --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_same_hits_exhaustive(n):
    for d in enumerate_digraphs(n):
        assert_same_hits(d)


def test_lollipop_same_hits_near_every_n5_copy():
    # At n=5 a lollipop (k=1) covers the host, so the hosts with a hit are
    # the labelled copies of its one expansion.  Every digraph within two
    # changed pair codes of a copy is compared.
    (lol,) = expand_template(lollipop_template(1))
    copies = set()
    for perm in itertools.permutations(range(5)):
        codes = [0] * 10
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = perm[i], perm[j]
                kind = int(lol.pair_kind(i, j))
                codes[slot_index(min(a, b), max(a, b))] = kind if a < b else (0, 2, 1, 3)[kind]
        copies.add(tuple(codes))
    assert len(copies) == 30  # 120 labellings, 4 automorphisms
    hosts = set(copies)
    for codes in copies:
        for s, t in itertools.combinations(range(10), 2):
            for a in range(4):
                for b in range(4):
                    near = list(codes)
                    near[s], near[t] = a, b
                    hosts.add(tuple(near))
    hits = 0
    for codes in sorted(hosts):
        d = Digraph(5, codes)
        got = find_lollipop(d)
        assert got == ref_find_lollipop(d), codes
        hits += got is not None
    assert hits == len(copies)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_same_hits_seeded(n):
    weights = [(1, 1, 1, 1), (4, 1, 1, 1), (2, 2, 2, 1), (3, 1, 1, 2), (8, 1, 1, 1)]
    for s in range(100):
        assert_same_hits(random_digraph(n, weights[s % 5], seed=1000 * n + s))
    for s in range(40):
        assert_same_hits(generate_locally_semicomplete(s, n), fig1=n <= 7)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_same_hits_planted_lollipops(n):
    hits = 0
    for s in range(200):
        d = planted(7000 * n + s, n)
        assert_same_hits(d, fig1=False)
        hits += find_lollipop(d) is not None
    assert hits >= 100  # the planting worked for most hosts


def test_empty_template_embeds_trivially():
    empty = PatternTemplate("empty", 0, {})
    for d in (Digraph(0, []), EX1):
        assert find_induced(d, empty) == ref_find_induced(d, empty) == Embedding("empty", ())


def test_lollipop_respects_k_max():
    host = expand_template(lollipop_template(3))[0]
    assert find_lollipop(host).name == "lollipop3"


# -- the search plan, derived from _ALLOWED_KINDS, against the literal tables -----------

# the row of each constraint, and the rows 1..5 whose degree a partner
# under it counts toward, as hand-written tables before they were derived
REF_ROW = dict(zip(EdgeConstraint, range(6)))
REF_COUNTS = {
    EdgeConstraint.ARC_FORWARD: (1, 3, 5),
    EdgeConstraint.ARC_BACKWARD: (2, 3, 5),
    EdgeConstraint.NONSYM_EITHER: (3, 5),
    EdgeConstraint.DIGON: (4, 5),
    EdgeConstraint.ANY_ADJACENT: (5,),
}
REF_SEEN_FROM_J = {
    EdgeConstraint.ARC_FORWARD: EdgeConstraint.ARC_BACKWARD,
    EdgeConstraint.ARC_BACKWARD: EdgeConstraint.ARC_FORWARD,
}


def ref_plan(t):
    need = [[0] * 5 for _ in range(t.k)]
    cut = list(range(t.k))
    for (i, j), con in t.constraints.items():
        if con is EdgeConstraint.NON_ADJACENT:
            continue
        for r in REF_COUNTS[con]:
            need[i][r - 1] += 1
        for r in REF_COUNTS[REF_SEEN_FROM_J.get(con, con)]:
            need[j][r - 1] += 1
        cut[j] = min(cut[j], i)
    checks = [
        tuple((p, REF_ROW[t.constraint(p, i)]) for p in range(cut[i], i)) for i in range(t.k)
    ]
    return [tuple(x) for x in need], cut, checks


@pytest.mark.parametrize(
    "t",
    list(fig1_templates()) + [lollipop_template(k) for k in range(1, 9)],
    ids=lambda t: t.name,
)
def test_plan_matches_the_literal_tables(t):
    assert t._plan == ref_plan(t)


def test_constraint_reads_a_pair_in_either_order():
    t = fig1_templates()[1]  # fig1b: (1, 2) is ARC_FORWARD, (1, 3) ARC_BACKWARD
    for (i, j), con in t.constraints.items():
        assert t.constraint(j, i) is t.constraint(i, j) is con
    assert t.constraint(3, 1) is EdgeConstraint.ARC_BACKWARD
    assert lollipop_template(2).constraint(5, 0) is EdgeConstraint.NON_ADJACENT


def test_an_explicit_non_adjacent_entry_changes_nothing():
    # lollipops with every unlisted pair written out as NON_ADJACENT
    hosts = [planted(9000 + s, 9) for s in range(60)]
    hosts += [random_digraph(8, (3, 1, 1, 1), seed=s) for s in range(40)]
    hits = 0
    for k in (1, 2, 3):
        t = lollipop_template(k)
        spelled = PatternTemplate(
            t.name,
            t.k,
            {(i, j): t.constraint(i, j) for i, j in itertools.combinations(range(t.k), 2)},
        )
        assert EdgeConstraint.NON_ADJACENT in spelled.constraints.values()
        assert spelled._plan == t._plan
        for d in hosts + expand_template(t):
            got = find_induced(d, spelled)
            assert got == find_induced(d, t)
            hits += got is not None
    assert hits >= 20


# -- `forbidden` output pinned to the pair_kind matcher's ---------------------------------

EX1 = build(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2), (2, 3)])
EX2 = build(
    5, [(0, 1), (4, 0), (2, 1), (1, 4), (4, 1), (3, 2), (2, 3), (4, 2), (2, 4), (4, 3)]
)

# input -> (sha256 of text output, sha256 of --json output, exit code), the
# first 32 hex digits, captured with the pair_kind matcher
FORBIDDEN_DIGESTS = {
    "ex1": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "ex2": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "tt-20": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "tt-80": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "dp-20": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "dp-60": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "dp-100": ("fcf33dfbe13c2354bf0e1b063f9fb422", "e3b0c44298fc1c149afbf4c8996fb924", 0),
    "lsc16-g0": ("b07c07f7e5e6c433922ffd04ac478c38", "1ffd2b66dc95c489d38bf23c47d00345", 1),
    "lsc16-g4": ("cb7dc06640c344242b9eb489eeb13415", "81a6b35e52ab0ec5f16166f11e059539", 1),
    "lsc16-g12": ("6d87aa3fd67c05460055beffdb5e2278", "cb5e50e0bb9336ebb84ed874f30101c1", 1),
    "rnd40-g2": ("e879f9b5445c46183a7d87f6dfce7dfc", "398d1c03e60a0e06ed1ae4960ab739ee", 1),
    "rnd60-g2": ("b14c73af354444689c75eff10b2fd41d", "39d227c37f5bfbc1991ea3d3af060624", 1),
    "rnd60-g3": ("13d4ffe9eda8d75d1d9f80cc6146bc73", "a608a72f7a174e13f9c2ab8b5c93d2cf", 1),
    "plant12-0": ("91b5fb333cbcd10ba490344e0115f5ba", "31c71b43df5675f0593834b550d3cea2", 1),
    "plant12-2": ("348668c3248ccd6915c51b726c0302d9", "881c9ca9b5907d84c5fb66be69c07ba8", 1),
    "plant12-5": ("e7d129bd3773c9a14382926f7b2b7189", "518371ffdb702c42ec8d3d39092962eb", 1),
}


def make_input(name):
    family, _, rest = name.partition("-")
    if name == "ex1":
        return EX1
    if name == "ex2":
        return EX2
    if family == "tt":
        return transitive_tournament(int(rest))
    if family == "dp":
        return digon_path(int(rest))
    if family == "lsc16":
        return generate_locally_semicomplete(int(rest[1:]), 16)
    if family.startswith("rnd"):
        return random_digraph(int(family[3:]), (20, 1, 1, 1), seed=int(rest[1:]))
    return planted(7000 * 12 + int(rest), 12)


def run_forbidden(path, *flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["forbidden", *flags, str(path)])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:32], rc


@pytest.mark.parametrize("name", sorted(FORBIDDEN_DIGESTS))
def test_forbidden_output_unchanged(tmp_path, name):
    path = tmp_path / f"{name}.dg"
    path.write_text(serialize(make_input(name)))
    text, as_json, code = FORBIDDEN_DIGESTS[name]
    assert run_forbidden(path) == (text, code)
    assert run_forbidden(path, "--json") == (as_json, code)


# -- scaling ------------------------------------------------------------------------------

# about 0.2 s each on a 2-core x86_64 host; the pair_kind matcher did not
# finish `forbidden` on a 1,000-vertex digon path within 9 minutes
SCALING_BOUND_S = 10.0


@pytest.mark.parametrize("name", ["dp-1000", "tt-200"])
def test_forbidden_scales(tmp_path, name):
    family, _, n = name.partition("-")
    d = digon_path(int(n)) if family == "dp" else transitive_tournament(int(n))
    path = tmp_path / f"{name}.dg"
    path.write_text(serialize(d))
    start = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["forbidden", str(path)])
    assert time.perf_counter() - start < SCALING_BOUND_S
    assert (rc, buf.getvalue()) == (0, "none\n")


def test_long_patterns_are_found():
    # the search keeps its own stack, so a pattern longer than Python's
    # recursion limit is still found
    n = 1500
    cycle = build(n, [(v, (v + 1) % n) for v in range(n)])
    start = time.perf_counter()
    assert find_nonsym_induced_dicycle(cycle) == tuple(range(n))
    k = 300
    arcs = [(0, 1), (1, 0), (0, 2), (1, 2), (k + 1, k + 2), (k + 1, k + 3)]
    arcs += [(v, v + 1) for v in range(2, k + 1)] + [(k + 2, k + 3), (k + 3, k + 2)]
    hit = find_lollipop(build(k + 4, arcs))
    assert hit == Embedding(f"lollipop{k}", tuple(range(k + 4)))
    assert time.perf_counter() - start < SCALING_BOUND_S
