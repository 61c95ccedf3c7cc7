"""Command-line interface for batch analysis of digraph files.

Input files use the plain text format (header "n m", then one arc per
line, optional "# v name" label lines); "-" reads standard input.
Exit codes: 0 positive / all checks pass, 1 negative / counterexample
found, 2 usage, parse or internal error.

Each `main` call builds the parser afresh, with only the subparser of the
command that argv[0] names (`_COMMANDS`), and parses argv once; help, a
missing or unknown command and a leading option or "--" get the full
parser.  The one-command parser's usage line names every command, so
argparse reports leftover arguments as the full parser does, with no
second parser.  On 2 cores with Python 3.11.7, best of 300 in one
process, building the parser and parsing `knot FILE` takes about 235 us,
against about 1,110 us with all eight subparsers.  A fresh `python -m
dichordal.cli recognize` process on a 2-vertex file takes a median of
112 ms against 117 ms (24 alternating runs): most of it is the
interpreter's start (59 ms) and, where no bytecode is cached, compiling
the package (about 23-26 ms).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import knotting
from .chordality import Variant, _greedy, _variant_masks, elimination_ordering, witness
from .chordality import is_chordal  # noqa: F401  -- perfbench's tracer binds this name
from .chordality import stalled_subdigraph  # noqa: F401  -- perfbench's tracer binds this name
from .classes import _FLAG_CHECKS, classify, generate_locally_semicomplete, generate_wqt
from .digraph import (
    Digraph,
    _labels,
    bits,
    dot_chunks,
    enumerate_digraphs,
    induced,
    parse_labeled,
    random_digraph,
    serialize,
    serialize_chunks,
)
from .patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle

_VARIANTS = {v.value: v for v in Variant}


def _read_digraph(path: str) -> tuple[Digraph, list[str]]:
    """The digraph and each vertex's printed label."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    d, names = parse_labeled(text)
    return d, _labels(d.n, names)


# -- recognize / order ---------------------------------------------------------


def _stalled_text(d: Digraph, labels: list[str], stalled: tuple[int, ...]) -> str:
    """The "stalled subdigraph on {...}:" block: the stalled set's labels,
    then the induced subdigraph's serialization indented by two spaces.

    The indent is one replace: the text has no line boundary but "\n",
    since every label comes from a line that `parse_labeled` already split.
    """
    sub = serialize(induced(d, stalled), {i: labels[x] for i, x in enumerate(stalled)})
    return "".join([
        "stalled subdigraph on {" + ", ".join([labels[x] for x in stalled]) + "}:\n",
        "  " + sub[:-1].replace("\n", "\n  ") + "\n",
    ])


def _variant_verdict(
    d: Digraph, labels: list[str], variant: Variant, as_json: bool, texts: dict[int, str]
):
    """Print one variant's verdict.  `texts` caches the stalled-subdigraph
    block by stalled mask, so variants that stall on one set share it."""
    order, stalled_mask = _greedy(*_variant_masks(d, variant))
    chordal = not stalled_mask
    if not chordal:
        stalled = tuple(bits(stalled_mask))
        triple = witness(d, stalled[0], variant, stalled_mask)  # the lowest stalled vertex
    if as_json:
        out = {"variant": variant.value, "chordal": chordal}
        if chordal:
            out["ordering"] = order
        else:
            out["witness"] = list(triple)
            out["stalled"] = list(stalled)
        print(json.dumps(out))
    elif chordal:
        ordering = " ".join([labels[v] for v in order])
        sys.stdout.write(f"{variant.value}: YES\nordering: {ordering}\n")
    else:
        if stalled_mask not in texts:
            texts[stalled_mask] = _stalled_text(d, labels, stalled)
        sys.stdout.write("".join([
            f"{variant.value}: NO\n",
            "witness: (" + ", ".join([labels[x] for x in triple]) + ")\n",
            texts[stalled_mask],
        ]))
    return chordal


def cmd_recognize(args) -> int:
    d, labels = _read_digraph(args.input)
    texts: dict[int, str] = {}  # stalled-subdigraph blocks of this command, by stalled mask
    every = args.variant == "all"
    decides = Variant.SEMI_STRICT if every else _VARIANTS[args.variant]  # sets the exit code
    variants = (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT) if every else (decides,)
    chordal = {v: _variant_verdict(d, labels, v, args.json, texts) for v in variants}
    return 0 if chordal[decides] else 1


def cmd_order(args) -> int:
    d, labels = _read_digraph(args.input)
    ordering = elimination_ordering(d, _VARIANTS[args.variant])
    if args.json:
        print(json.dumps(list(ordering.order) if ordering else None))
    else:
        print("NONE" if ordering is None else " ".join([labels[v] for v in ordering.order]))
    return 0 if ordering is not None else 1


# -- knot ------------------------------------------------------------------------


def _sorted_members(v: int, cls_in: int, ins: list, outs: list) -> list:
    """The members of v's class in sorted arc order, given `ins` and `outs`,
    one item per in-arc and per out-arc in far-end order: the in-arcs from
    below v, then the out-arcs, then the in-arcs from above v."""
    k = (cls_in & ((1 << v) - 1)).bit_count()
    return ins[:k] + outs + ins[k:]


def _knot_text(table: knotting._ClassTable, labels: list[str]) -> Iterator[str]:
    """`knot`'s text, one chunk per vertex: each class with its member arcs
    in sorted order, each arc's edge in `d.arcs()` order, then the counts."""
    groups, rows = table
    names = [[f"{lab}^{i}" for i in range(1, len(g) + 1)] for lab, g in zip(labels, groups)]
    for v, (lab, group) in enumerate(zip(labels, groups)):
        yield "".join([
            f"{name} = {{"
            + ", ".join(_sorted_members(
                v, cls_in,
                [f"{labels[u]}->{lab}" for u in bits(cls_in)],
                [f"{lab}->{labels[w]}" for w in bits(cls_out)],
            ))
            + "}\n"
            for name, (cls_in, cls_out) in zip(names[v], group)
        ])
    edges = 0
    for u, row in enumerate(rows):
        lab, at_u = labels[u], names[u]
        edges += len(row)
        yield "".join([
            f"{at_u[i - 1]} -- {names[w][j - 1]}   [{lab}->{labels[w]}]\n" for w, i, j in row
        ])
    yield f"{sum(map(len, groups))} classes, {edges} edges\n"


def _json_array(items: Iterable[str], indent: str) -> Iterator[str]:
    """A JSON array laid out as `json.dumps(.., indent=2)` lays it out, one
    piece per item: "[]" when empty, else one item per line and "]" on its
    own line at `indent`."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "[]" if sep == "[\n" else f"\n{indent}]"


_JSON_CLASS = '    {\n      "owner": %d,\n      "index": %d,\n      "members": '
_JSON_ARC = "        [\n          %d,\n          %d\n        ]"
_JSON_EDGE = (
    '    {\n      "arc": [\n        %d,\n        %d\n      ],\n'
    '      "a": [\n        %d,\n        %d\n      ],\n'
    '      "b": [\n        %d,\n        %d\n      ]\n    }'
)


def _knot_json(table: knotting._ClassTable) -> Iterator[str]:
    """`knot --json`: the document `json.dumps(.., indent=2)` prints for
    {"classes": [{"owner", "index", "members"}, ...], "edges": [{"arc", "a", "b"}, ...]},
    written one class or edge at a time."""
    groups, rows = table
    classes = (
        _JSON_CLASS % (v, idx)
        + "".join(_json_array(_sorted_members(
            v, cls_in,
            [_JSON_ARC % (u, v) for u in bits(cls_in)],
            [_JSON_ARC % (v, w) for w in bits(cls_out)],
        ), "      "))
        + "\n    }"
        for v, group in enumerate(groups)
        for idx, (cls_in, cls_out) in enumerate(group, start=1)
    )
    edges = (_JSON_EDGE % (u, w, u, i, w, j) for u, row in enumerate(rows) for w, i, j in row)
    yield '{\n  "classes": '
    yield from _json_array(classes, "  ")
    yield ',\n  "edges": '
    yield from _json_array(edges, "  ")
    yield "\n}\n"


def cmd_knot(args) -> int:
    d, labels = _read_digraph(args.input)
    table = knotting._class_table(d)
    if args.dot:
        sys.stdout.writelines(knotting._dot_chunks(table, labels))
    else:
        sys.stdout.writelines(_knot_json(table) if args.json else _knot_text(table, labels))
    return 0


# -- classify ----------------------------------------------------------------------


def cmd_classify(args) -> int:
    d, labels = _read_digraph(args.input)
    report = classify(d)
    if args.json:
        print(
            json.dumps(
                {
                    "flags": report.flags,
                    "witnesses": {k: list(v) for k, v in report.witnesses.items()},
                }
            )
        )
        return 0
    for flag, value in report.flags.items():
        line = f"{flag.replace('_', '-')}: {'yes' if value else 'no'}"
        if not value:
            tup = ", ".join([labels[x] for x in report.witnesses[flag]])
            line += f"   (violated by {tup})"
        print(line)
    return 0


# -- forbidden ----------------------------------------------------------------------


def cmd_forbidden(args) -> int:
    d, labels = _read_digraph(args.input)
    hits = []  # one (JSON record, text line) pair per hit, in detector order
    for emb in (find_any_fig1(d), find_lollipop(d)):
        if emb is not None:
            verts = list(emb.mapping)
            assigns = ", ".join([f"t{t}→h{labels[h]}" for t, h in enumerate(verts)])
            hits.append(({"kind": "pattern", "name": emb.name, "vertices": verts},
                         f"{emb.name}: {assigns}"))
    cyc = find_nonsym_induced_dicycle(d)
    if cyc is not None:
        verts, name = list(cyc), f"dicycle{len(cyc)}"
        hits.append(({"kind": "dicycle", "name": name, "vertices": verts},
                     f"{name}: " + "→".join([labels[v] for v in verts + verts[:1]])))
    for record, text in hits:
        print(json.dumps(record) if args.json else text)
    if not hits and not args.json:
        print("none")
    return 1 if hits else 0


# -- verify -------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import CHECKS, _check_samples  # numpy: only this command loads it

    if args.check not in CHECKS:
        choices = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check {args.check!r}; choose from {choices}")
    given = {}  # the check's own default applies unless --samples is given
    if args.samples is not None:
        _check_samples(args.samples)  # also for theorem4 and nesting, which take none
        given["samples"] = args.samples
    if args.check == "theorem5":
        kwargs = {"n_exhaustive": args.n, "n_random": args.n_random, "seed": args.seed, **given}
    elif args.check in ("theorem4", "nesting"):
        kwargs = {"n": args.n}
    else:  # recognizers, knotting-deletion
        kwargs = {"n": args.n, "seed": args.seed, **given}
    report = CHECKS[args.check](**kwargs, shards=args.shards, workers=args.workers)
    if args.json:
        sys.stdout.write(report.to_json(timing=args.timing))
    else:
        sys.stdout.write(report.to_text(timing=args.timing))
    return 0 if (report.ok or not report.asserted) else 1


# -- gen / enumerate -----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.klass == "wqt":
        d = generate_wqt(args.seed, depth=args.depth, width=args.width)
    elif args.klass == "locally-semicomplete":
        d = generate_locally_semicomplete(args.seed, args.n)
    else:  # random
        weights = tuple(float(x) for x in args.weights.split(","))
        d = random_digraph(args.n, weights, seed=args.seed)
    sys.stdout.writelines(dot_chunks(d) if args.dot else serialize_chunks(d))
    return 0


# --filter choices: the class catalogue's flags, hyphenated; each maps to its violation check
_FILTERS = {
    "wqt" if flag == "weakly_quasi_transitive" else flag.replace("_", "-"): violation
    for flag, violation in _FLAG_CHECKS.items()
}


def cmd_enumerate(args) -> int:
    violation = _FILTERS[args.filter] if args.filter else None
    first = True
    for d in enumerate_digraphs(args.n, cap=args.cap):
        if violation is not None and violation(d) is not None:
            continue
        if not first:
            print()
        sys.stdout.write(serialize(d))
        first = False
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_input(p, func) -> None:
    """A command that reads one digraph: its input, --json and `func`."""
    p.add_argument("input", help="digraph file path, or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=func)


def _recognize_args(p) -> None:
    _add_input(p, cmd_recognize)
    p.add_argument("--variant", choices=[*_VARIANTS, "all"], default=Variant.SEMI_STRICT.value)


def _order_args(p) -> None:
    _add_input(p, cmd_order)
    p.add_argument("--variant", choices=list(_VARIANTS), default=Variant.SEMI_STRICT.value)


def _knot_args(p) -> None:
    _add_input(p, cmd_knot)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")


def _verify_args(p) -> None:
    p.add_argument("--check", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--n-random", type=int, default=8, help="theorem5 random size cap")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include wall time in output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


def _gen_args(p) -> None:
    p.add_argument("--class", dest="klass", required=True,
                   choices=["wqt", "locally-semicomplete", "random"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=2, help="wqt recursion depth")
    p.add_argument("--width", type=int, default=3, help="wqt base-digraph size cap")
    p.add_argument("--weights", default="1,1,1,1",
                   help="random pair-kind weights: none,forward,backward,digon")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_gen)


def _enumerate_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=5)
    p.add_argument("--filter", choices=list(_FILTERS))
    p.set_defaults(func=cmd_enumerate)


# each command's name, help text and the function that adds its arguments
# and sets its `func`, in the order `dichordal --help` lists them
_COMMANDS = {
    "recognize": ("test a digraph for (variant-)chordality", _recognize_args),
    "order": ("print a perfect elimination ordering", _order_args),
    "knot": ("print the knotting graph", _knot_args),
    "classify": ("report digraph class memberships", lambda p: _add_input(p, cmd_classify)),
    "forbidden": ("search for forbidden induced patterns", lambda p: _add_input(p, cmd_forbidden)),
    "verify": ("run a verification check", _verify_args),
    "gen": ("generate a class instance", _gen_args),
    "enumerate": ("stream all digraphs of a given order", _enumerate_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or with only `command`'s.

    The one-command parser names every command in its metavar, the string
    argparse derives for the full parser, so its usage line is the full
    parser's."""
    parser = argparse.ArgumentParser(
        prog="dichordal",
        description="Chordality variants of digraphs: recognition, knotting "
        "graphs, forbidden patterns, and exhaustive verification.",
    )
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure, not a verdict: never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
