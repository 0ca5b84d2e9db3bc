"""Property-based tests over randomly drawn graphs.

graphs() draws an order and an adjacency bitmask, so shrinking moves toward
small sparse graphs; connected_graphs_without_full_vertex() builds its graphs
from a spanning tree, so it filters out no draw.  Criterion 08 of the
acceptance suite sweeps several of the same properties over ten thousand
seeded graphs each; what these add is Hypothesis's shrinking, which reports
a failure as a smallest graph that shows it, where the seeded sweeps add
volume on a fixed sample.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from coalitions import (
    Graph,
    cc_number,
    cds_table,
    check_cc_equals_n,
    emit_edgelist,
    emit_graph6,
    enumerate_labeled_graphs,
    in_family_f,
    is_cc_partition,
    is_connected,
    parse_edgelist,
    parse_graph6,
)
from coalitions.domination import mask_is_dominating
from coalitions.graphs import full_vertex_mask, subset_mask
from conftest import cone
from reference import ref_peel, ref_replay_peel, ref_valid_cc_partition


def graph_from(n, mask):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def graphs(min_n=1, max_n=7):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(
            graph_from,
            st.just(n),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


@given(graphs(max_n=13))
def test_graph6_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


@given(graphs(max_n=10))
def test_edgelist_round_trip(g):
    assert parse_edgelist(emit_edgelist(g)) == g


@given(graphs(max_n=7), st.data())
def test_dominating_sets_are_upward_closed(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=0, max_size=g.n))
    assume(mask_is_dominating(g, subset_mask(g, s, "vertex set")))
    extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    assert mask_is_dominating(g, subset_mask(g, s | extra, "vertex set"))


@given(graphs(min_n=2, max_n=7), st.data())
def test_cds_supersets_stay_cds(g, data):
    assume(is_connected(g))
    table = cds_table(g)
    mask = data.draw(st.integers(1, (1 << g.n) - 1))
    assume(table[mask])
    other = data.draw(st.integers(0, (1 << g.n) - 1))
    assert table[mask | other]


@given(graphs(min_n=2, max_n=7), st.data())
def test_coalition_predicate_is_symmetric(g, data):
    a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    b = data.draw(
        st.sets(st.integers(0, g.n - 1).filter(lambda v: v not in a), min_size=1)
    )
    # the vertices outside a and b stay singletons
    rest = [{v} for v in range(g.n) if v not in a and v not in b]
    valid, _ = is_cc_partition(g, [a, b, *rest])
    assert is_cc_partition(g, [b, a, *rest])[0] == valid
    assert valid == ref_valid_cc_partition(g, [a, b, *rest])


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_peel_choice_does_not_change_the_verdict(g, rng):
    member, trace = in_family_f(g)
    assert (member, trace.steps, trace.terminal) == ref_peel(g, min)
    assert member == ref_peel(g, max)[0]
    assert member == ref_peel(g, rng.choice)[0]
    assert ref_replay_peel(g, trace.steps, trace.terminal)


@given(graphs(min_n=2, max_n=6), st.integers(1, 2))
def test_joining_full_vertices_preserves_family_status(g, t):
    # joining K_t onto g adds t full vertices that peel straight back off
    coned = cone(g, t)
    if not is_connected(g):
        assert in_family_f(coned)[0]
    else:
        assert in_family_f(coned)[0] == in_family_f(g)[0]


@given(graphs(max_n=7))
@settings(deadline=None)
def test_cc_witness_replays(g):
    cc, witness = cc_number(g)
    if cc == 0:
        assert witness is None
    else:
        assert len(witness) == cc
        valid, _ = is_cc_partition(g, witness)
        assert valid


def without_full_vertex(n, parent, extra, perm):
    """A connected graph on n >= 4 vertices with no full vertex, for any inputs.

    Vertex v >= 1 hangs off parent[v - 1] < v, so the tree edges connect the
    graph.  A star tree has its last vertex rehung onto the lowest other
    leaf, which leaves no vertex full in the tree; bit k of extra adds the
    k-th remaining pair, and each vertex the extra edges make full loses
    its lowest extra edge.  perm relabels.  Every connected graph with no
    full vertex arises: label it in breadth-first order and take that tree.
    """
    parent = [None, *parent]
    degree = [0] * n
    for v in range(1, n):
        degree[v] += 1
        degree[parent[v]] += 1
    if max(degree) == n - 1:
        center = degree.index(n - 1)
        parent[n - 1] = min(u for u in range(n - 1) if u != center)
    tree = {(parent[v], v) for v in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in tree]
    edges = tree | {others[k] for k in range(len(others)) if extra >> k & 1}
    for v in range(n):
        incident = [e for e in edges if v in e]
        if len(incident) == n - 1:
            edges.remove(min(e for e in incident if e not in tree))
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


@st.composite
def connected_graphs_without_full_vertex(draw):
    n = draw(st.integers(4, 7))
    parent = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    extra = draw(st.integers(0, (1 << (n * (n - 1) // 2 - (n - 1))) - 1))
    return without_full_vertex(n, parent, extra, draw(st.permutations(range(n))))


def test_without_full_vertex_reaches_exactly_the_connected_graphs_without_one_at_n4():
    n = 4
    built = {without_full_vertex(n, parent, extra, perm)
             for parent in itertools.product(*(range(v) for v in range(1, n)))
             for extra in range(1 << 3)
             for perm in itertools.permutations(range(n))}
    assert built == {g for g in enumerate_labeled_graphs(n, connected_only=True)
                     if not full_vertex_mask(g)}


@given(connected_graphs_without_full_vertex())
@settings(deadline=None)
def test_check_n_witness_edges_really_work(g):
    assert is_connected(g) and not full_vertex_mask(g)
    d = check_cc_equals_n(g)
    if d.answer:
        closed = g.closed_masks
        for x, (p, q) in d.witness.items():
            assert x == p or x == q
            assert closed[p] | closed[q] == g.full_mask


@given(graphs(min_n=1, max_n=6))
@settings(deadline=None)
def test_cc_zero_iff_family_membership(g):
    assert (cc_number(g)[0] == 0) == in_family_f(g)[0]
