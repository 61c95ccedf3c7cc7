"""Command-line interface for batch analysis of digraph files.

Input files use the plain text format (header "n m", then one arc per
line, optional "# v name" label lines); "-" reads standard input.
Exit codes: 0 positive / all checks pass, 1 negative / counterexample
found, 2 usage, parse or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import knotting
from .chordality import (
    Variant,
    elimination_ordering,
    is_chordal,
    stalled_subdigraph,
    witness,
)
from .classes import classify, generate_locally_semicomplete, generate_wqt
from .digraph import (
    Digraph,
    enumerate_digraphs,
    induced,
    parse_labeled,
    random_digraph,
    serialize,
    to_dot,
)
from .patterns import find_any_fig1, find_lollipop, find_nonsym_induced_dicycle
from .verify import CHECKS

_VARIANTS = {v.value: v for v in Variant}


def _read_digraph(path: str) -> tuple[Digraph, dict[int, str]]:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    return parse_labeled(text)


def _namer(names: dict[int, str]):
    return lambda v: names.get(v, str(v))


# -- recognize / order ---------------------------------------------------------


def _variant_verdict(d: Digraph, names: dict[int, str], variant: Variant, as_json: bool):
    nm = _namer(names)
    ordering = elimination_ordering(d, variant)
    if ordering is None:
        stalled = stalled_subdigraph(d, variant)
        sub = induced(d, stalled)
        w = witness(sub, 0, variant)  # the lowest stalled vertex
        triple = (stalled[w.u], stalled[w.v], stalled[w.w])
    if as_json:
        out = {"variant": variant.value, "chordal": ordering is not None}
        if ordering is not None:
            out["ordering"] = list(ordering.order)
        else:
            out["witness"] = list(triple)
            out["stalled"] = list(stalled)
        print(json.dumps(out))
    elif ordering is not None:
        print(f"{variant.value}: YES")
        print("ordering: " + " ".join(nm(v) for v in ordering.order))
    else:
        print(f"{variant.value}: NO")
        print("witness: (" + ", ".join(nm(x) for x in triple) + ")")
        print("stalled subdigraph on {" + ", ".join(nm(x) for x in stalled) + "}:")
        sub_names = {i: nm(x) for i, x in enumerate(stalled)}
        for line in serialize(sub, sub_names).splitlines():
            print("  " + line)
    return ordering is not None


def cmd_recognize(args) -> int:
    d, names = _read_digraph(args.input)
    if args.variant == "all":
        results = {
            v: _variant_verdict(d, names, v, args.json)
            for v in (Variant.CHORDAL, Variant.SEMI_STRICT, Variant.STRICT)
        }
        return 0 if results[Variant.SEMI_STRICT] else 1
    ok = _variant_verdict(d, names, _VARIANTS[args.variant], args.json)
    return 0 if ok else 1


def cmd_order(args) -> int:
    d, names = _read_digraph(args.input)
    nm = _namer(names)
    ordering = elimination_ordering(d, _VARIANTS[args.variant])
    if args.json:
        print(json.dumps(list(ordering.order) if ordering else None))
    else:
        print("NONE" if ordering is None else " ".join(nm(v) for v in ordering.order))
    return 0 if ordering is not None else 1


# -- knot ------------------------------------------------------------------------


def cmd_knot(args) -> int:
    d, names = _read_digraph(args.input)
    nm = _namer(names)
    k = knotting.knotting_graph(d)
    if args.dot:
        sys.stdout.write(knotting.to_dot(k, names))
        return 0
    if args.json:
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


# -- classify ----------------------------------------------------------------------


def cmd_classify(args) -> int:
    d, names = _read_digraph(args.input)
    nm = _namer(names)
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
            tup = ", ".join(nm(x) for x in report.witnesses[flag])
            line += f"   (violated by {tup})"
        print(line)
    return 0


# -- forbidden ----------------------------------------------------------------------


def cmd_forbidden(args) -> int:
    d, names = _read_digraph(args.input)
    nm = _namer(names)
    matches = []
    hit = find_any_fig1(d)
    if hit is not None:
        matches.append(("pattern", hit.name, list(hit.mapping)))
    lol = find_lollipop(d)
    if lol is not None:
        matches.append(("pattern", lol.name, list(lol.mapping)))
    cyc = find_nonsym_induced_dicycle(d) if d.n >= 3 else None
    if cyc is not None:
        matches.append(("dicycle", f"dicycle{len(cyc)}", list(cyc)))
    if args.json:
        for kind, name, verts in matches:
            print(json.dumps({"kind": kind, "name": name, "vertices": verts}))
        return 1 if matches else 0
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


# -- verify -------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.check not in CHECKS:
        print(
            f"unknown check {args.check!r}; choose from {', '.join(sorted(CHECKS))}",
            file=sys.stderr,
        )
        return 2
    if args.shards < 1 or args.workers < 1:
        raise ValueError("--shards and --workers must be at least 1")
    kwargs = {"shards": args.shards, "workers": args.workers}
    if args.check == "recognizers":
        kwargs.update(n=args.n, samples=args.samples, seed=args.seed)
    elif args.check == "theorem4":
        kwargs.update(n=args.n)
    elif args.check == "theorem5":
        kwargs.update(
            n_exhaustive=args.n,
            n_random=args.n_random,
            samples=args.samples or 0,
            seed=args.seed,
        )
    elif args.check == "nesting":
        kwargs.update(n=args.n)
    else:  # knotting-deletion
        samples = 1000 if args.samples is None else args.samples
        kwargs.update(n=args.n, samples=samples, seed=args.seed)
    report = CHECKS[args.check](**kwargs)
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
    sys.stdout.write(to_dot(d) if args.dot else serialize(d))
    return 0


_FILTERS = {
    "semicomplete": "is_semicomplete",
    "locally-semicomplete": "is_locally_semicomplete",
    "wqt": "is_weakly_quasi_transitive",
    "quasi-transitive": "is_quasi_transitive",
    "extended-semicomplete": "is_extended_semicomplete",
    "symmetric": "is_symmetric",
    "oriented": "is_oriented",
    "transitive-oriented": "is_transitive_oriented",
}


def cmd_enumerate(args) -> int:
    from . import classes as class_mod

    pred = None
    if args.filter:
        pred = getattr(class_mod, _FILTERS[args.filter])
    first = True
    for d in enumerate_digraphs(args.n, cap=args.cap):
        if pred is not None and not pred(d):
            continue
        if not first:
            print()
        sys.stdout.write(serialize(d))
        first = False
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichordal",
        description="Chordality variants of digraphs: recognition, knotting "
        "graphs, forbidden patterns, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="digraph file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("recognize", help="test a digraph for (variant-)chordality")
    add_input(p)
    p.add_argument(
        "--variant",
        choices=[*_VARIANTS, "all"],
        default=Variant.SEMI_STRICT.value,
    )
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("order", help="print a perfect elimination ordering")
    add_input(p)
    p.add_argument("--variant", choices=list(_VARIANTS), default=Variant.SEMI_STRICT.value)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("knot", help="print the knotting graph")
    add_input(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=cmd_knot)

    p = sub.add_parser("classify", help="report digraph class memberships")
    add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("forbidden", help="search for forbidden induced patterns")
    add_input(p)
    p.set_defaults(func=cmd_forbidden)

    p = sub.add_parser("verify", help="run a verification check")
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

    p = sub.add_parser("gen", help="generate a class instance")
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

    p = sub.add_parser("enumerate", help="stream all digraphs of a given order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=5)
    p.add_argument("--filter", choices=list(_FILTERS))
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
