import tracemalloc

import pytest
from hypothesis import strategies as st

from dichordal.digraph import Digraph, build


@pytest.fixture
def ex1():
    # 4-cycle a->b->c<->d->a with the extra arc d->b; not semi-strict chordal
    return build(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2), (2, 3)])


@pytest.fixture
def ex2():
    # semi-strict chordal companion example: digons b<->e, c<->d, c<->e,
    # arcs a->b, e->a, c->b, e->d
    return build(
        5,
        [(0, 1), (4, 0), (2, 1), (1, 4), (4, 1), (3, 2), (2, 3), (4, 2), (2, 4), (4, 3)],
    )


@st.composite
def digraphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = n * (n - 1) // 2
    codes = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return Digraph(n, codes)


def traced(f, *args, **kwargs):
    """(f(*args, **kwargs), what of its allocations is still held, and their
    peak), as tracemalloc sees them.  Both are measured above what was
    traced before the call, and the peak is reset first, so the figures
    hold when tracing was already on (PYTHONTRACEMALLOC=1); tracing stops
    afterwards only if this call started it."""
    already_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        result = f(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return result, held - before, peak - before
