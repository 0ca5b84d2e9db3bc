import functools

import pytest

from coalitions import (
    Graph,
    connected_domatic_number,
    enumerate_labeled_graphs,
    expand_domatic_to_cc_partition,
    generate,
)
from coalitions.graphs import full_vertex_mask


@pytest.fixture
def house():
    # C_5 plus the chord (1, 4): the classic house shape
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])


@pytest.fixture
def paw():
    # triangle with a pendant hanging off vertex 0
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


@pytest.fixture
def two_k2():
    return Graph(4, [(0, 1), (2, 3)])


def small_connected(n_max=5):
    """Every connected labeled graph of order 1..n_max (helper, not a fixture)."""
    for n in range(1, n_max + 1):
        yield from enumerate_labeled_graphs(n, connected_only=True)


def cone(g, t=1):
    """g with t new vertices 0..t-1, each adjacent to every other vertex; g's ids shift up by t."""
    n = g.n + t
    return Graph(n, [(u, v) for u in range(t) for v in range(u + 1, n)]
                 + [(u + t, v + t) for u, v in g.edges])


@functools.cache
def connected_without_full_vertex():
    """Every connected labeled graph 2 <= n <= 6 with no full vertex, in enumeration order.

    There are 21,872 of them.  Built once per test run for the tests that
    sweep the whole set.
    """
    return tuple(
        g
        for n in range(2, 7)
        for g in enumerate_labeled_graphs(n, connected_only=True)
        if not full_vertex_mask(g)
    )


@functools.cache
def domatic_sweep():
    """(g, d_c, witness, expansion) for every graph of connected_without_full_vertex().

    The expansion is expand_domatic_to_cc_partition of the witness.  The
    expansion criterion and the pinned expansion digest both need the
    witness and its expansion over the whole set; this computes them once.
    """
    rows = []
    for g in connected_without_full_vertex():
        dc, witness = connected_domatic_number(g)
        rows.append((g, dc, witness, expand_domatic_to_cc_partition(g, witness)))
    return tuple(rows)


@pytest.fixture
def c4():
    return generate("cycle", [4])


@pytest.fixture
def c5():
    return generate("cycle", [5])


@pytest.fixture
def c6():
    return generate("cycle", [6])


@pytest.fixture
def p6():
    return generate("path", [6])
