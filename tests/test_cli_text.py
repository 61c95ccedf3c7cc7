"""The CLI's text against the per-line printers it replaced.

The commands now compute each vertex label once and write their lines in
chunks.  The printers below are the earlier ones, one `print` and one
label lookup per name; every command must give the same stdout and exit
code on labelled files, including NO verdicts with stalled sets, the empty
digraph and isolated vertices.  `knot` is printed from `ref_knotting_graph`,
the two-pass graph construction, and `knot --dot` by `ref_to_dot`, the
line builder that `test_knotting.py` keeps.  These references write their
own lines, labels and DOT quoting, so they share no text code with the
CLI; the decisions they print (the greedy order, the witness, the
splitting-class search of `knotting._class_masks`) come from the library.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dichordal import knotting
from dichordal.chordality import Variant, _greedy, _variant_masks, elimination_ordering, witness
from dichordal.classes import classify, generate_locally_semicomplete
from dichordal.cli import main
from dichordal.digraph import bits, build, induced, parse_labeled, random_digraph, serialize
from dichordal.patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle

from test_knotting import ref_to_dot
from test_knotting_masks import _digon_path, _transitive_tournament, ref_knotting_graph

ALL_VARIANTS = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)


def _namer(names):
    return lambda v: names.get(v, str(v))


# -- the earlier printers, kept as references --------------------------------------


def ref_variant_verdict(d, names, variant, as_json):
    nm = _namer(names)
    order, stalled_mask = _greedy(*_variant_masks(d, variant))
    chordal = not stalled_mask
    if not chordal:
        stalled = tuple(bits(stalled_mask))
        triple = witness(d, stalled[0], variant, stalled_mask)
    if as_json:
        out = {"variant": variant.value, "chordal": chordal}
        if chordal:
            out["ordering"] = order
        else:
            out["witness"] = list(triple)
            out["stalled"] = list(stalled)
        print(json.dumps(out))
    elif chordal:
        print(f"{variant.value}: YES")
        print("ordering: " + " ".join(nm(v) for v in order))
    else:
        print(f"{variant.value}: NO")
        print("witness: (" + ", ".join(nm(x) for x in triple) + ")")
        print("stalled subdigraph on {" + ", ".join(nm(x) for x in stalled) + "}:")
        sub_names = {i: nm(x) for i, x in enumerate(stalled)}
        for line in serialize(induced(d, stalled), sub_names).splitlines():
            print("  " + line)
    return chordal


def ref_recognize(d, names, variant, as_json):
    if variant == "all":
        results = {v: ref_variant_verdict(d, names, v, as_json) for v in ALL_VARIANTS}
        return 0 if results[Variant.SEMI_STRICT] else 1
    return 0 if ref_variant_verdict(d, names, Variant(variant), as_json) else 1


def ref_order(d, names, variant, as_json):
    nm = _namer(names)
    ordering = elimination_ordering(d, Variant(variant))
    if as_json:
        print(json.dumps(list(ordering.order) if ordering else None))
    else:
        print("NONE" if ordering is None else " ".join(nm(v) for v in ordering.order))
    return 0 if ordering is not None else 1


def ref_knot(d, names, flag):
    nm = _namer(names)
    k = ref_knotting_graph(d)
    if flag == "--dot":
        print(ref_to_dot(k, names), end="")
        return 0
    if flag == "--json":
        out = {
            "classes": [
                {
                    "owner": c.owner,
                    "index": c.index,
                    "members": sorted(list(a) for a in c.members),
                }
                for c in k.classes
            ],
            "edges": [{"arc": list(e.arc), "a": list(e.a), "b": list(e.b)} for e in k.edges],
        }
        print(json.dumps(out, indent=2))
        return 0

    def class_name(cid):
        return f"{nm(cid[0])}^{cid[1]}"

    for c in k.classes:
        members = ", ".join(f"{nm(u)}->{nm(v)}" for u, v in sorted(c.members))
        print(f"{class_name(c.id)} = {{{members}}}")
    for e in k.edges:
        print(f"{class_name(e.a)} -- {class_name(e.b)}   [{nm(e.arc[0])}->{nm(e.arc[1])}]")
    print(f"{len(k.classes)} classes, {len(k.edges)} edges")
    return 0


def ref_classify(d, names):
    nm = _namer(names)
    report = classify(d)
    for flag, value in report.flags.items():
        line = f"{flag.replace('_', '-')}: {'yes' if value else 'no'}"
        if not value:
            tup = ", ".join(nm(x) for x in report.witnesses[flag])
            line += f"   (violated by {tup})"
        print(line)
    return 0


def ref_forbidden(d, names):
    nm = _namer(names)
    matches = []
    hit = find_any_fig1(d)
    if hit is not None:
        matches.append(("pattern", hit.name, list(hit.mapping)))
    lol = find_lollipop(d)
    if lol is not None:
        matches.append(("pattern", lol.name, list(lol.mapping)))
    cyc = find_nonsym_induced_dicycle(d)
    if cyc is not None:
        matches.append(("dicycle", f"dicycle{len(cyc)}", list(cyc)))
    if not matches:
        print("none")
        return 0
    for kind, name, verts in matches:
        if kind == "pattern":
            assigns = ", ".join(f"t{t}→h{nm(h)}" for t, h in enumerate(verts))
            print(f"{name}: {assigns}")
        else:
            print(f"{name}: " + "→".join(nm(v) for v in verts + verts[:1]))
    return 1


# -- labelled inputs ------------------------------------------------------------------

LABELS = ["v{}", "a b {}", 'q"{}\\', "ü{}", "x->{}", "{}^2", "{}"]


def labelled_inputs():
    """About twenty seeded (digraph, names) pairs; every third vertex
    keeps its number, so named and numbered vertices mix."""
    digraphs = [build(0, []), build(1, []), build(3, [(0, 1), (1, 0)])]  # n = 0, isolated vertices
    weights = [(1, 1, 1, 1), (4, 1, 1, 1), (1, 1, 1, 4), (2, 1, 0, 1)]
    for seed in range(13):
        digraphs.append(random_digraph(3 + seed, weights[seed % 4], seed=seed))
    digraphs += [generate_locally_semicomplete(seed, 6 + seed) for seed in range(4)]
    # an arc's class index differs at its tail and head: two classes at every
    # vertex of a digon path, n - 1 at the source and sink of a tournament
    digraphs += [_digon_path(9), _transitive_tournament(7)]
    for i, d in enumerate(digraphs):
        names = {v: LABELS[(v + i) % len(LABELS)].format(v) for v in range(d.n) if v % 3 != 2}
        yield d, names


INPUTS = list(labelled_inputs())

COMMANDS = [
    (["recognize", "--variant", "all"], lambda d, nm: ref_recognize(d, nm, "all", False)),
    (["recognize", "--variant", "all", "--json"], lambda d, nm: ref_recognize(d, nm, "all", True)),
    (["recognize", "--variant", "strict"], lambda d, nm: ref_recognize(d, nm, "strict", False)),
    (["order", "--variant", "chordal"], lambda d, nm: ref_order(d, nm, "chordal", False)),
    (["knot"], lambda d, nm: ref_knot(d, nm, "")),
    (["knot", "--json"], lambda d, nm: ref_knot(d, nm, "--json")),
    (["knot", "--dot"], lambda d, nm: ref_knot(d, nm, "--dot")),
    (["classify"], ref_classify),
    (["forbidden"], ref_forbidden),
]


def captured(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(*args)
    return code, out.getvalue()


def test_inputs_cover_the_edge_cases():
    assert len(INPUTS) >= 20
    assert any(d.n == 0 for d, _ in INPUTS)
    assert any(d.n and not d.neighbor_mask(v) for d, _ in INPUTS for v in range(d.n))
    no_with_stalled = [
        d for d, _ in INPUTS
        if _greedy(*_variant_masks(d, Variant.SEMI_STRICT))[1]
    ]
    assert len(no_with_stalled) >= 5
    # `recognize --variant all` prints one block per distinct stalled set:
    # some input has two variants stalling on one set, some on two sets
    stalled_sets = [
        [s for v in ALL_VARIANTS if (s := _greedy(*_variant_masks(d, v))[1])] for d, _ in INPUTS
    ]
    assert any(len(set(sets)) < len(sets) for sets in stalled_sets)
    assert any(len(set(sets)) > 1 for sets in stalled_sets)


@pytest.mark.parametrize("argv, ref", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_stdout_matches_the_per_line_printers(tmp_path, argv, ref):
    for i, (d, names) in enumerate(INPUTS):
        path = tmp_path / f"in{i}.dg"
        path.write_text(serialize(d, names))
        got = captured(main, [*argv, str(path)])
        assert got == captured(ref, d, names), (argv, serialize(d, names))


# -- knot writes from the class table ---------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


# every vertex owns two classes, or the source and sink own n - 1 each, so
# an arc's class index at its tail is not its index at its head
MANY_CLASSES = [("digon-path-40", _digon_path(40)), ("tournament-30", _transitive_tournament(30))]


def test_many_class_inputs_tell_tail_from_head():
    for name, d in MANY_CLASSES:
        assert any(e.a[1] != e.b[1] for e in knotting.knotting_graph(d).edges), name


def knot_inputs(tmp_path):
    """The demo files and a labelled random digraph with digons and
    isolated vertices (0 and n - 1), as (path, digraph, names)."""
    for path in sorted(DATA.glob("*.dg")):
        yield path, *parse_labeled(path.read_text())
    d = random_digraph(30, (2, 1, 1, 2), seed=7)
    d = build(32, [(u + 1, w + 1) for u, w in d.arcs()])
    names = {v: LABELS[v % len(LABELS)].format(v) for v in range(d.n) if v % 3 != 2}
    assert d.digon_masks[1] and not d.neighbor_mask(0) and not d.neighbor_mask(d.n - 1)
    path = tmp_path / "digons.dg"
    path.write_text(serialize(d, names))
    yield path, d, names
    for name, d in MANY_CLASSES:
        path = tmp_path / f"{name}.dg"
        path.write_text(serialize(d))
        yield path, d, {}


@pytest.mark.parametrize("flag", ["", "--json", "--dot"])
def test_knot_builds_no_class_or_edge_objects(tmp_path, monkeypatch, flag):
    cases = [
        (path, captured(ref_knot, d, names, flag)) for path, d, names in knot_inputs(tmp_path)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("knot built a knotting-graph object")

    monkeypatch.setattr(knotting, "SplittingClass", refuse)
    monkeypatch.setattr(knotting, "KnottingEdge", refuse)
    for path, want in cases:
        assert captured(main, ["knot", str(path), *([flag] if flag else [])]) == want, path


@pytest.mark.parametrize("flag", ["", "--dot"])
def test_knot_writes_past_a_run_of_vertices_that_send_no_arc(tmp_path, flag):
    # the edge lines come in one piece per tail, so a piece can be empty;
    # here vertices 0..2047 send no arc, so a long run of pieces is empty
    d = build(2050, [(2049, 0), (2048, 2049)])
    path = tmp_path / "in.dg"
    path.write_text(serialize(d))
    argv = ["knot", str(path), *([flag] if flag else [])]
    assert captured(main, argv) == captured(ref_knot, d, {}, flag)


def knot_json_document(k):
    """`knot --json` as it was printed: json.dumps of one dict built from
    the knotting graph."""
    out = {
        "classes": [
            {"owner": c.owner, "index": c.index, "members": sorted(list(a) for a in c.members)}
            for c in k.classes
        ],
        "edges": [{"arc": list(e.arc), "a": list(e.a), "b": list(e.b)} for e in k.edges],
    }
    return json.dumps(out, indent=2) + "\n"


@pytest.mark.parametrize("d", [
    random_digraph(300, (1, 1, 1, 1), seed=23),
    build(0, []),
    build(4, [(0, 1), (1, 0), (1, 2)]),  # vertex 3 is isolated
    *[d for _, d in MANY_CLASSES],
], ids=["dense-300", "n0", "isolated", *[name for name, _ in MANY_CLASSES]])
def test_knot_json_equals_json_dumps_of_the_graph(tmp_path, d):
    path = tmp_path / "in.dg"
    path.write_text(serialize(d))
    want = knot_json_document(knotting.knotting_graph(d))
    assert captured(main, ["knot", "--json", str(path)]) == (0, want)


@pytest.mark.parametrize("d, names", [
    (random_digraph(300, (1, 1, 1, 1), seed=23), {}),
    (build(0, []), {}),
    (build(4, [(0, 1), (1, 0), (1, 2)]), {}),  # vertex 3 is isolated
    (build(3, [(0, 1), (1, 2), (2, 1), (2, 0)]), {0: 'a"b', 1: "c\\", 2: 'say "x\\y"'}),
    *[(d, {}) for _, d in MANY_CLASSES],
], ids=["dense-300", "n0", "isolated", "quoted-names", *[name for name, _ in MANY_CLASSES]])
def test_knot_dot_equals_to_dot_of_the_graph(tmp_path, d, names):
    path = tmp_path / "in.dg"
    path.write_text(serialize(d, names))
    want = ref_to_dot(knotting.knotting_graph(d), names)
    assert captured(main, ["knot", "--dot", str(path)]) == (0, want)
