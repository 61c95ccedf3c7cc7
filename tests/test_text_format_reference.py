"""The text format's parser and writer against their per-token references.

`parse_labeled` reads an arc token that is a vertex's own decimal spelling
from a table of the spellings of 0..n-1 and calls int() only on any other
token; `serialize_chunks` writes a tail's arc lines as one join over the
same spellings.  `reference_parse_labeled` and `reference_serialize_chunks`
keep the bodies from before the table, which called int() on every token
and formatted one f-string per arc.  The parser must return the same
digraph and names, or raise the same ValueError, on every input of the
benchmark's query pool, every pinned error text of `test_digraph`, and a
seeded corpus of other spellings, loops, out-of-range vertices and
separators; the writer must match byte for byte.
"""

import itertools
import random

import pytest

from dichordal.digraph import (
    _from_masks,
    bits,
    build,
    check_vertex_count,
    enumerate_digraphs,
    parse_labeled,
    random_digraph,
    serialize,
    serialize_chunks,
)

from test_digraph import CHECK_ORDER, NAMED_LINE
from test_query_pool_golden import _workloads


def reference_parse_labeled(text):
    """`parse_labeled` as it was before the spelling table: int() on every
    arc token."""
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    if not lines:
        raise ValueError("empty digraph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n m'") from None
    if n < 0 or m < 0:
        raise ValueError("header counts must be nonnegative")
    check_vertex_count(n)
    out = [0] * n
    inn = [0] * n
    count = 0
    refused = None  # the first arc build() would refuse
    names = {}
    for ln in lines[1:]:
        if ln.startswith("#"):
            fields = ln[1:].split(None, 1)
            if len(fields) != 2:
                raise ValueError(f"malformed label line {ln!r}")
            try:
                v = int(fields[0])
            except ValueError:
                raise ValueError(f"malformed label line {ln!r}") from None
            if not 0 <= v < n:
                raise ValueError(f"label line {ln!r} names vertex out of range")
            names[v] = fields[1]
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"malformed arc line {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"malformed arc line {ln!r}") from None
        count += 1
        if 0 <= u < n and 0 <= v < n and u != v:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        elif refused is None:
            refused = (u, v)
    if count != m:
        raise ValueError(f"header promises {m} arcs, found {count}")
    if refused is not None:
        build(n, [refused])  # raises build's error for that arc
    return _from_masks(tuple(out), tuple(inn)), names


def reference_serialize_chunks(d, names=None):
    """`serialize_chunks` as it was before the spelling table: one f-string
    per arc, and no check of the names."""
    yield f"{d.n} {d.arc_count}\n"
    for u, mask in enumerate(d.out_masks):
        if mask:
            yield "".join([f"{u} {v}\n" for v in bits(mask)])
    if names:
        yield "".join([f"# {v} {names[v]}\n" for v in sorted(names)])


def _outcome(parser, text):
    """What `parser` makes of `text`: its result, or the error it raises."""
    try:
        return parser(text)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_same_parse(text):
    assert _outcome(parse_labeled, text) == _outcome(reference_parse_labeled, text), repr(text)


# -- a seeded corpus of texts ----------------------------------------------------

# int() reads these as the vertex they name, though none is its own spelling
OTHER_SPELLINGS = (
    lambda s: "0" + s,
    lambda s: "00" + s,
    lambda s: "+" + s,
    lambda s: "_".join(s) if len(s) > 1 else "+" + s,
    lambda s: "".join(chr(0x660 + int(c)) for c in s),  # Arabic-Indic digits
    lambda s: "".join(chr(0xFF10 + int(c)) for c in s),  # fullwidth digits
    lambda s: "-0" if s == "0" else "0" + s,
)
# int() refuses these
REFUSED = ("0x1", "1.0", "1e2", "x", "1__0", "_1", "1-", "--1", "0b1", "½", "²")
SEPARATORS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028")
INDENTS = ("", "", "", " ", "  ", "\t", "\x0b ", "\u3000")
GAPS = (" ", " ", "  ", "\t", "\u3000")


def _token(rng, n, u=None, faults=True):
    """One arc token: mostly a vertex's own spelling, else another spelling,
    and with `faults` also a loop on `u`, a vertex out of range or a
    spelling int() refuses."""
    r = rng.random() if faults else rng.uniform(0.13, 1)
    if r < 0.06 and u is not None:
        return str(u)  # a loop
    if r < 0.10:
        v = rng.choice([n, n + 1, n + 7, -1, -2, 10**6])
        return str(v) if rng.random() < 0.5 else rng.choice(OTHER_SPELLINGS[:3])(str(abs(v)))
    if r < 0.13:
        return rng.choice(REFUSED)
    if n == 0:
        return str(rng.randrange(3))
    s = str(rng.randrange(n))
    return rng.choice(OTHER_SPELLINGS)(s) if r < 0.22 else s


def _arc_line(rng, n, faults):
    r = rng.random() if faults else 1
    if r < 0.02:
        return _token(rng, n)  # one field
    if r < 0.04:
        return " ".join(_token(rng, n) for _ in range(3))  # three fields
    a = _token(rng, n, faults=faults)
    if r < 0.1 and n > 0:
        return f"{a} {a}"  # a loop in whatever spelling the tail has
    u = a if a.isascii() and a.isdigit() else None
    return a + rng.choice(GAPS) + _token(rng, n, u, faults)


def _label_line(rng, n, faults):
    r = rng.random() if faults else 1
    v = rng.randrange(max(n, 1))
    if r < 0.04:
        return f"# {n + 2} far"  # out of range
    if r < 0.07:
        return f"# {v}"  # no name
    if r < 0.10:
        return f"#{rng.choice(OTHER_SPELLINGS)(str(v))} spelled"
    name = rng.choice(["a", "b c", "#x", "ü", "name  with\tgaps", "0 1"])
    return f"#{rng.choice([' ', '', '  '])}{v} {name}"


def _text(rng):
    n = rng.choice([0, 1, 2, 3, 4, 5, 8, 11, 12, 30, 101, 150])
    faults = rng.random() < 0.5
    body = []
    arcs = 0
    for _ in range(rng.randrange(0, 16)):
        r = rng.random()
        if r < 0.1:
            body.append("")  # a blank line
        elif r < 0.22:
            body.append(_label_line(rng, n, faults))
        else:
            body.append(_arc_line(rng, n, faults))
            arcs += not body[-1].lstrip().startswith("#")
    if faults and rng.random() < 0.1:
        arcs += rng.choice([-1, 1])
    head = f"{n} {max(arcs, 0)}"
    if faults and rng.random() < 0.05:
        head = rng.choice([f"+{n} {arcs}", f"0{n} {arcs}", f"{n}", f"{n} x"])
    lines = [rng.choice(INDENTS) + ln + rng.choice(["", " ", "\t"]) for ln in [head, *body]]
    sep = rng.choice(SEPARATORS)
    return "".join(ln + (sep if rng.random() < 0.8 else rng.choice(SEPARATORS)) for ln in lines)


CORPUS = [_text(random.Random(f"parse-corpus:{i}")) for i in range(3000)]

# hand-picked texts: each named spelling, loops and ranges in both spellings,
# duplicates, and the separators that str.splitlines breaks at
HAND = [
    "3 2\n007 1\n+1 2\n",
    "12 2\n1_0 11\n-0 ٣\n",
    "4 3\n0 1\n0 1\n00 01\n",  # duplicate arcs, counted each time
    "3 1\n0x1 2\n",
    "3 1\n1.0 2\n",
    "3 1\n1e2 2\n",
    "3 2\n1 1\n0 1\n",
    "3 2\n+1 01\n0 1\n",  # a loop in other spellings
    "3 2\n0 1\n-0 0\n",
    "3 1\n0 3\n",
    "3 1\n0 +3\n",
    "3 2\n٣ 0\n0 1\n",
    "3 1\n-1 0\n",
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\x0b0 1\x0b1 2\x0b",
    "3 2\x1c0 1\x1c1 2\x1c",
    "3 2\n\n   0 1\n\t\n 1 2 \n",
    "3 2\n0 1\n# 0 a\n1 2\n# 2 b c\n",
    "3 2\n0 1\n# 0 a\n1 2\n# 0 again\n",
    "3 2\n0 1\n# 5 z\n1 1\n",
    "0 0\n",
    "0 1\n0 1\n",
    "1 1\n0 0\n",
    "2 1\n1 0\n",
    "2 1\n1 ０\n",
]


def test_the_corpus_reaches_every_path():
    # the corpus ends in every kind of error the parser raises, and its
    # accepted texts hold each other spelling, separator and indent
    outcomes = [_outcome(reference_parse_labeled, t) for t in CORPUS + HAND]
    errors = {o[1].split(" ")[0] for o in outcomes if o[0] == "ValueError"}
    assert {"malformed", "header", "loop", "arc", "label"} <= errors
    accepted = [t for t, o in zip(CORPUS, outcomes) if o[0] != "ValueError"]
    assert len(accepted) > 500
    for ch in ("٣", "０", "+", "_", "\r\n", "\x0b", "\x1c", "\u2028", "\u3000", "#"):
        assert any(ch in t for t in accepted), repr(ch)


@pytest.mark.parametrize("part", range(6))
def test_parser_matches_the_reference_on_the_corpus(part):
    for text in (CORPUS + HAND)[part::6]:
        _assert_same_parse(text)


@pytest.mark.parametrize("text", [*NAMED_LINE, *CHECK_ORDER])
def test_parser_matches_the_reference_on_the_pinned_errors(text):
    _assert_same_parse(text)


def test_parser_and_writer_match_the_references_on_the_query_pool(monkeypatch):
    wl = _workloads(monkeypatch)
    inputs = wl.pool_inputs(wl.wqt_pool())
    assert len(inputs) == 192
    for input_id in inputs:
        d = wl.make_digraph(input_id)
        text = serialize(d)
        assert text == "".join(reference_serialize_chunks(d)), input_id
        _assert_same_parse(text)
        assert parse_labeled(text) == (d, {})


# -- the writer ------------------------------------------------------------------


def _assert_same_text(d, names=None):
    expected = list(reference_serialize_chunks(d, names))
    assert list(serialize_chunks(d, names)) == expected
    assert serialize(d, names) == "".join(expected)
    assert parse_labeled(serialize(d, names)) == (d, dict(names or {}))


def test_writer_matches_the_reference_at_small_orders():
    for n in range(4):
        for d in enumerate_digraphs(n):
            _assert_same_text(d)
            _assert_same_text(d, {v: f"v{v}" for v in range(0, n, 2)})


@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_writer_matches_the_reference_without_arcs(n):
    d = build(n, [])
    _assert_same_text(d)
    _assert_same_text(d, {v: "x y" for v in range(n)})


@pytest.mark.parametrize("n", [4, 9, 10, 11, 40, 99, 100, 101, 300])
def test_writer_matches_the_reference_on_random_digraphs(n):
    for seed, weights in itertools.product(range(3), [(1, 1, 1, 1), (20, 1, 1, 1), (0, 1, 0, 0)]):
        d = random_digraph(n, weights, seed=seed)
        _assert_same_text(d)
        rng = random.Random(f"names:{n}:{seed}")
        names = {v: rng.choice(["a", "b c", "#", "ü", "§ 1", str(v)]) for v in rng.sample(range(n), n // 3)}
        _assert_same_text(d, names)
