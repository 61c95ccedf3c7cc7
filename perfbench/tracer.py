"""Span recorder for the traced benchmark run.

The layers are the package modules.  Each layer's public entry points are
wrapped under the name that the calling module binds them to (for example
``dichordal.verify.is_chordal`` or ``dichordal.knotting.knotting_graph``),
so the real ``check_*`` and ``cli.main`` code paths run unchanged and every
call that crosses a layer boundary becomes a span.  Nothing under ``src/``
is edited; the wrappers live only in this process and are removed again by
``uninstall``.

A pass makes more than 10^6 spans, so high-frequency spans are aggregated
in memory: per span name (calls, total time, self time, truthy results) and
per caller/callee edge (calls, total time).  Coarse spans -- passes, check
calls and CLI commands -- are also kept raw with their operation id and
parent.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the wall time of
the outermost spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from importlib import import_module

# (module, attribute, span name).  A function imported into several modules
# is wrapped once per binding, all bindings under one span name.
BINDINGS = (
    # digraph
    ("dichordal.verify", "digraph_from_index", "digraph.from_index"),
    ("dichordal.verify", "symmetric_subdigraph", "digraph.symmetric_subdigraph"),
    ("dichordal.patterns", "symmetric_subdigraph", "digraph.symmetric_subdigraph"),
    ("dichordal.chordality", "symmetric_subdigraph", "digraph.symmetric_subdigraph"),
    ("dichordal.digraph", "induced", "digraph.induced"),  # reached via induced_mask
    ("dichordal.verify", "induced", "digraph.induced"),
    ("dichordal.knotting", "induced", "digraph.induced"),
    ("dichordal.chordality", "induced", "digraph.induced"),
    ("dichordal.cli", "induced", "digraph.induced"),
    ("dichordal.digraph", "build", "digraph.build"),  # reached via parse, substitute
    ("dichordal.classes", "build", "digraph.build"),
    ("dichordal.cli", "parse_labeled", "digraph.parse"),
    ("dichordal.cli", "serialize", "digraph.serialize"),
    # classes
    ("dichordal.verify", "generate_locally_semicomplete",
     "classes.generate_locally_semicomplete"),
    # chordality
    ("dichordal.verify", "is_chordal", "chordality.is_chordal"),
    ("dichordal.patterns", "is_chordal", "chordality.is_chordal"),
    ("dichordal.cli", "is_chordal", "chordality.is_chordal"),
    ("dichordal.chordality", "elimination_ordering", "chordality.elimination_ordering"),
    ("dichordal.cli", "elimination_ordering", "chordality.elimination_ordering"),
    ("dichordal.cli", "stalled_subdigraph", "chordality.stalled_subdigraph"),
    ("dichordal.cli", "witness", "chordality.witness"),
    ("dichordal.verify", "oracle_is_chordal", "chordality.oracle_is_chordal"),
    # knotting (cli reaches knotting_graph through the knotting module)
    ("dichordal.verify", "theorem2_oracle", "knotting.theorem2_oracle"),
    ("dichordal.verify", "ss_chordal_via_knotting", "knotting.ss_chordal_via_knotting"),
    ("dichordal.verify", "knotting_graph", "knotting.knotting_graph"),
    ("dichordal.knotting", "knotting_graph", "knotting.knotting_graph"),
    ("dichordal.knotting", "knot_classes", "knotting.knot_classes"),
    # patterns
    ("dichordal.patterns", "find_induced", "patterns.find_induced"),
    ("dichordal.verify", "find_any_fig1", "patterns.find_any_fig1"),
    ("dichordal.cli", "find_any_fig1", "patterns.find_any_fig1"),
    ("dichordal.verify", "find_lollipop", "patterns.find_lollipop"),
    ("dichordal.cli", "find_lollipop", "patterns.find_lollipop"),
    ("dichordal.verify", "find_nonsym_induced_dicycle",
     "patterns.find_nonsym_induced_dicycle"),
    ("dichordal.cli", "find_nonsym_induced_dicycle",
     "patterns.find_nonsym_induced_dicycle"),
    # verify
    ("dichordal.verify", "wqt_mask", "verify.prefilter"),
    ("dichordal.verify", "lsc_mask", "verify.prefilter"),
    ("dichordal.verify", "contains_fig1", "verify.contains_fig1"),
)

# (module, class, method, span name)
METHODS = (("dichordal.knotting", "KnottingGraph", "group", "knotting.group"),)

# spans whose truthy results are counted, for true-share metrics
COUNT_TRUE = frozenset({"chordality.is_chordal"})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, true]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.spans: list[dict] = []  # raw coarse spans
        self._stack: list[list] = [["<root>", 0.0]]  # frames: [name, child_s]
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[1]
        parent = self._stack[-1]
        parent[1] += elapsed
        edge = self.edges.get((parent[0], name))
        if edge is None:
            self.edges[(parent[0], name)] = [1, elapsed]
        else:
            edge[0] += 1
            edge[1] += elapsed

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        count_true = name in COUNT_TRUE
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_true and result:
                    stat[3] += 1
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                close(name, frame, elapsed)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, op: str):
        """Coarse span, kept raw as well as aggregated."""
        frame = [name, 0.0]
        parent = self._stack[-1][0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(name, frame, end - start)
            self.spans.append(
                {"op": op, "name": name, "parent": parent, "start": start, "end": end}
            )

    # -- instrumentation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def true_count(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), [0])[0]

    def dump(self) -> dict:
        return {
            "stats": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "true": v[3]}
                for k, v in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                for (p, c), v in sorted(self.edges.items())
            ],
            "spans": self.spans,
        }
