"""Graph core, generators, serialization, enumeration, and shape recognizers."""

import random

import networkx as nx
import pytest

from coalitions import (
    Graph,
    GraphFormatError,
    GuardExceededError,
    PreconditionError,
    corona,
    emit_edgelist,
    emit_graph6,
    enumerate_labeled_graphs,
    generate,
    is_connected,
    is_corona_of_k1,
    is_tree,
    iter_graph6_lines,
    parse_edgelist,
    parse_graph6,
)
from coalitions.graphs import (
    canonical_form,
    full_vertex_mask,
    induced_connected,
    iter_mask,
    set_from_mask,
    subset_mask,
)

from reference import ref_canonical_key


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [e for e in pairs if rng.random() < 0.5])


def relabel(g, rng):
    """g with its vertex ids shuffled by rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def disjoint_copies(k, h):
    """k vertex-disjoint copies of h."""
    return Graph(k * h.n, [(u + i * h.n, v + i * h.n) for i in range(k) for u, v in h.edges])


def complete_multipartite(*sizes):
    """The complete multipartite graph whose parts have the given sizes, in order."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


class TestGraphBasics:
    def test_edges_sorted_and_deduplicated(self):
        g = Graph(4, [(2, 1), (0, 3), (1, 2), (3, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 3), (1, 2))
        assert g.m == 3

    def test_degree_neighbors_has_edge(self, c5):
        assert c5.degree(0) == 2
        assert set_from_mask(c5.nbr_masks[0]) == frozenset({1, 4})
        assert (0, 4) in c5.edges and (0, 2) not in c5.edges

    def test_adjacency_is_symmetric(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            nbr = g.nbr_masks
            for u in range(g.n):
                for v in range(g.n):
                    edge = (min(u, v), max(u, v)) in g.edges
                    assert (nbr[u] >> v & 1) == (nbr[v] >> u & 1) == edge

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"

    def test_repr_truncates_long_edge_lists(self):
        small = Graph(3, [(0, 1)])
        assert repr(small) == "Graph(n=3, edges=[(0, 1)])"
        big = generate("complete", [7])
        assert "..." in repr(big)

    def test_rejects_self_loops_and_bad_ids(self):
        with pytest.raises(PreconditionError, match=r"self-loop"):
            Graph(3, [(1, 1)])
        with pytest.raises(PreconditionError, match=r"out of range"):
            Graph(3, [(0, 3)])
        with pytest.raises(PreconditionError):
            Graph(-1, [])

    def test_mask_helpers_round_trip(self):
        assert subset_mask(Graph(6, []), [0, 2, 5], "vertex set") == 0b100101
        assert set_from_mask(0b100101) == frozenset({0, 2, 5})
        assert list(iter_mask(0b1101)) == [0, 2, 3]
        assert set_from_mask(0) == frozenset()


class TestConnectivity:
    def test_whole_graph(self, two_k2):
        assert is_connected(generate("path", [1]))
        assert is_connected(generate("path", [6]))
        assert not is_connected(two_k2)
        assert not is_connected(Graph(0, []))
        assert not is_connected(Graph(2, []))

    def test_induced_connected_on_masks(self, c6):
        assert induced_connected(c6, subset_mask(c6, {0, 1, 2}, "vertex set"))
        assert not induced_connected(c6, subset_mask(c6, {0, 2, 4}, "vertex set"))
        assert not induced_connected(c6, 0)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            assert is_connected(g) == nx.is_connected(h)



class TestFullVerticesAndProducts:
    def test_full_vertices(self, c4):
        assert full_vertex_mask(generate("path", [3])) == 0b010
        assert full_vertex_mask(c4) == 0
        assert full_vertex_mask(generate("complete", [4])) == 0b1111
        # the one vertex of K_1 is full: degree 0 equals n - 1
        assert full_vertex_mask(Graph(1, [])) == 0b1

    def test_corona_layout_is_deterministic(self):
        g = corona(generate("cycle", [3]), Graph(1, []))
        assert g.n == 6
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5))

    def test_corona_with_larger_attachment(self):
        g = corona(generate("path", [2]), generate("complete", [2]))
        assert g.n == 6
        # each host vertex is joined to its own K_2 copy
        assert {(0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5)} <= set(g.edges)
        assert (0, 4) not in g.edges

    def test_corona_requires_nonempty_host(self):
        with pytest.raises(PreconditionError):
            corona(Graph(0, []), Graph(1, []))


class TestGenerate:
    @pytest.mark.parametrize(
        "family,params,n,edges",
        [
            ("path", [4], 4, ((0, 1), (1, 2), (2, 3))),
            ("cycle", [4], 4, ((0, 1), (0, 3), (1, 2), (2, 3))),
            ("complete", [3], 3, ((0, 1), (0, 2), (1, 2))),
            ("complete_bipartite", [2, 2], 4, ((0, 2), (0, 3), (1, 2), (1, 3))),
            ("star", [3], 4, ((0, 1), (0, 2), (0, 3))),
            ("friendship", [2], 5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))),
        ],
    )
    def test_family_shapes(self, family, params, n, edges):
        g = generate(family, params)
        assert (g.n, g.edges) == (n, edges)

    def test_constraint_violations_name_the_constraint(self):
        with pytest.raises(PreconditionError, match=r"cycle needs n >= 3"):
            generate("cycle", [2])
        with pytest.raises(PreconditionError, match=r"path needs n >= 1"):
            generate("path", [0])
        with pytest.raises(PreconditionError, match=r"r, s >= 1"):
            generate("complete_bipartite", [0, 3])
        with pytest.raises(PreconditionError, match=r"complete needs n >= 1"):
            generate("complete", [0])
        with pytest.raises(PreconditionError, match=r"star needs at least 1 leaf"):
            generate("star", [0])
        with pytest.raises(PreconditionError, match=r"friendship needs t >= 1"):
            generate("friendship", [0])
        with pytest.raises(PreconditionError, match=r"unknown family"):
            generate("hypercube", [3])
        with pytest.raises(PreconditionError, match=r"takes 2 parameter"):
            generate("complete_bipartite", [3])


class TestGraph6:
    def test_known_encodings(self, c6):
        assert emit_graph6(Graph(1, [])) == "@"
        assert emit_graph6(c6) == "EhEG"
        assert emit_graph6(generate("cycle", [4])) == "Cl"

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_random_larger(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 20))
            assert parse_graph6(emit_graph6(g)) == g

    def test_matches_networkx_encoding(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert emit_graph6(g) == theirs

    def test_optional_prefix_is_stripped(self, c6):
        assert parse_graph6(">>graph6<<EhEG") == c6

    def test_malformed_inputs(self):
        with pytest.raises(GraphFormatError, match=r"empty"):
            parse_graph6("   ")
        with pytest.raises(GraphFormatError, match=r"outside the printable range"):
            parse_graph6("E\x1f???")
        with pytest.raises(GraphFormatError, match=r"truncated"):
            parse_graph6("EhE")
        with pytest.raises(GraphFormatError, match=r"trailing garbage"):
            parse_graph6("EhEGG")
        with pytest.raises(GraphFormatError, match=r"header truncated"):
            parse_graph6("~??")
        with pytest.raises(GraphFormatError, match=r"n <= 258047"):
            parse_graph6("~~??????")
        with pytest.raises(PreconditionError, match=r"n <= 258047"):
            emit_graph6(Graph(258048, []))

    def test_long_header_above_62_vertices(self):
        # n >= 63 takes '~' plus an 18-bit big-endian count
        assert emit_graph6(Graph(63, [])) == "~??~" + "?" * 326
        rng = random.Random(17)
        c2000 = generate("cycle", [2000])
        chords = Graph(2000, list(c2000.edges) + [(rng.randrange(1000), rng.randrange(1000, 2000)) for _ in range(50)])
        for g, header in ((random_graph(rng, 63), "~??~"), (random_graph(rng, 300), "~?Ck"),
                          (c2000, "~?^O"), (chords, "~?^O")):
            text = emit_graph6(g)
            assert text[:4] == header
            assert len(text) == 4 + (g.n * (g.n - 1) // 2 + 5) // 6
            assert parse_graph6(text) == g

    def test_iter_graph6_lines_skips_noise(self):
        text = ">>graph6<<\n\nEhEG\n   \nCl\n"
        graphs = list(iter_graph6_lines(text.splitlines()))
        assert [g.n for g in graphs] == [6, 4]

    def test_iter_graph6_lines_reads_a_graph_on_the_header_line(self):
        # nauty writes the header and the first graph on one line
        graphs = list(iter_graph6_lines([">>graph6<<Cl", ">>sparse6<<", "EhEG"]))
        assert [g.n for g in graphs] == [4, 6]


class TestEdgeList:
    def test_round_trip(self, p6):
        assert parse_edgelist(emit_edgelist(p6)) == p6
        assert emit_edgelist(Graph(2, [])) == "2"

    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\n3\n0 1\n# middle comment\n1 2\n"
        assert parse_edgelist(text) == generate("path", [3])

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("", "no vertex count"),
            ("3 4\n0 1", "expected the vertex count"),
            ("x\n0 1", "not an integer"),
            ("3\n0 1 2", "expected 'u v'"),
            ("3\n0 x", "non-integer endpoint"),
            ("3\n0 5", "out of range"),
            ("3\n1 1", "self-loop"),
        ],
    )
    def test_malformed_inputs(self, text, pattern):
        with pytest.raises(GraphFormatError, match=pattern):
            parse_edgelist(text)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(1)) == 1
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64
        # labeled connected counts, a classical sequence
        for n, want in [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)]:
            assert sum(1 for _ in enumerate_labeled_graphs(n, connected_only=True)) == want

    def test_no_duplicates_and_deterministic_order(self):
        once = list(enumerate_labeled_graphs(4))
        twice = list(enumerate_labeled_graphs(4))
        assert once == twice
        assert len(set(once)) == len(once)
        assert once[0].m == 0  # the edgeless graph comes first
        assert once[-1] == generate("complete", [4])

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            next(enumerate_labeled_graphs(8))
        with pytest.raises(GuardExceededError):
            next(enumerate_labeled_graphs(0))


class TestShapeRecognizers:
    def test_is_tree(self, c4, two_k2):
        assert is_tree(generate("path", [4]))
        assert is_tree(Graph(1, []))
        assert is_tree(generate("star", [5]))
        assert not is_tree(c4)
        assert not is_tree(two_k2)  # right edge count, wrong connectivity

    def test_corona_recognizer_positives(self):
        k1 = Graph(1, [])
        assert is_corona_of_k1(generate("complete", [2]))
        assert is_corona_of_k1(generate("path", [4]))  # P_4 = K_2 with pendants
        for host in ("cycle", "path"):
            g = corona(generate(host, [4]), k1)
            assert is_corona_of_k1(g)

    def test_corona_recognizer_is_label_blind(self):
        rng = random.Random(3)
        base = corona(generate("cycle", [4]), Graph(1, []))
        for _ in range(10):
            perm = list(range(base.n))
            rng.shuffle(perm)
            relabeled = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
            assert is_corona_of_k1(relabeled)

    def test_corona_recognizer_negatives(self, c4, paw, two_k2):
        assert not is_corona_of_k1(c4)
        assert not is_corona_of_k1(paw)
        assert not is_corona_of_k1(generate("star", [3]))
        assert not is_corona_of_k1(two_k2)
        assert not is_corona_of_k1(generate("path", [5]))  # odd order
        # right leaf count, but one support carries two pendants
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5)])
        assert not is_corona_of_k1(g)
        # right leaf count, but two leaves support each other (isolated edge)
        g = Graph(6, [(0, 1), (2, 3), (2, 4), (3, 4), (2, 5)])
        assert not is_corona_of_k1(g)


class TestCanonicalForm:
    def test_one_form_per_isomorphism_class(self):
        # OEIS A000088: graphs on n unlabeled vertices
        for n, classes in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
            assert len({canonical_form(g) for g in enumerate_labeled_graphs(n)}) == classes

    def test_invariant_under_relabeling(self):
        rng = random.Random(41)
        for n in range(1, 13):
            for _ in range(25):
                g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < rng.random()])
                assert canonical_form(relabel(g, rng)) == canonical_form(g)

    def test_same_degree_sequence_pairs_differ(self):
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])
        k3_k2 = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        pairs = [
            (generate("cycle", [6]), disjoint_copies(2, generate("complete", [3]))),
            (generate("complete_bipartite", [3, 3]), prism),
            (generate("path", [5]), k3_k2),
        ]
        for a, b in pairs:
            assert sorted(map(a.degree, range(a.n))) == sorted(map(b.degree, range(b.n)))
            assert canonical_form(a) != canonical_form(b)

    def test_highly_symmetric_graphs(self):
        rng = random.Random(12)
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)])
        rook3 = Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                          if u // 3 == v // 3 or u % 3 == v % 3])
        graphs = [
            generate("complete", [12]),
            Graph(12, []),
            disjoint_copies(6, generate("complete", [2])),
            disjoint_copies(4, generate("complete", [3])),
            disjoint_copies(3, generate("cycle", [4])),
            generate("cycle", [12]),
            # regular with twin classes: one individualized vertex leaves only twin cells, a leaf
            complete_multipartite(6, 6),
            complete_multipartite(3, 3, 3, 3),
            # regular without twins: the root stays [V], and refinement starts from one vertex
            petersen,
            rook3,
            generate("cycle", [30]),
            # 240,000 automorphisms and no twins: needs the orbit prune to finish quickly
            disjoint_copies(4, generate("cycle", [5])),
        ]
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(graphs)
        assert [n for n, _ in forms] == [12] * 8 + [10, 9, 30, 20]
        assert [canonical_form(relabel(g, rng)) for g in graphs] == forms

    def test_agrees_with_the_reference_key_on_random_pairs(self):
        # b has a's order and edge count; about half the b are relabeled copies of a
        rng = random.Random(43)
        isomorphic = 0
        for _ in range(120):
            n = rng.randint(1, 7)
            a = random_graph(rng, n)
            if rng.random() < 0.5:
                b = relabel(a, rng)
            else:
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                b = Graph(n, rng.sample(pairs, a.m))
            same = ref_canonical_key(a) == ref_canonical_key(b)
            isomorphic += same
            assert (canonical_form(a) == canonical_form(b)) == same
        assert 60 <= isomorphic < 120

    def test_agrees_with_the_reference_key_on_twin_heavy_graphs(self):
        rng = random.Random(44)
        k2, k3 = generate("complete", [2]), generate("complete", [3])
        graphs = [
            complete_multipartite(2, 2, 2),
            complete_multipartite(3, 3),
            complete_multipartite(1, 5),
            Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]),  # K_6 - 3K_2
            disjoint_copies(3, k2),
            disjoint_copies(2, k3),
            Graph(6, [(u, v) for u in (1, 2) for v in (3, 4, 5)]),  # K_1 plus K_{2,3}
        ]
        graphs += [relabel(g, rng) for g in graphs]
        keys = [ref_canonical_key(g) for g in graphs]
        forms = [canonical_form(g) for g in graphs]
        for i in range(len(graphs)):
            for j in range(len(graphs)):
                assert (forms[i] == forms[j]) == (keys[i] == keys[j])
        assert forms[0] == forms[3]  # K_{2,2,2} is K_6 minus a perfect matching
