"""Graph core, generators, serialization, enumeration, and shape recognizers."""

import random
import re

import networkx as nx
import pytest

from coalitions import (
    Graph,
    GraphFormatError,
    GuardExceededError,
    PreconditionError,
    emit_edgelist,
    emit_graph6,
    enumerate_labeled_graphs,
    generate,
    graphs,
    is_connected,
    is_corona_of_k1,
    is_tree,
    iter_graph6_lines,
    parse_edgelist,
    parse_graph6,
)
from coalitions.graphs import (
    degree_key,
    first_leaf,
    full_vertex_mask,
    induced_connected,
    iter_mask,
    set_from_mask,
    subset_mask,
)

from conftest import atlas, corona, relabel
from reference import gnp_edges, ref_canonical_key, ref_is_connected_subset


def random_graph(rng, n):
    return Graph(n, gnp_edges(rng, n, 0.5))


def to_networkx(g):
    """g as a networkx graph on the same vertex ids."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


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

    @pytest.mark.parametrize("edge", [(0, 1.0), (1.0, 0), ("0", 1), (0, "1"), (0, 1, 2), 1, (True, 2)],
                             ids=["float", "float_first", "str", "str_second", "triple", "no_pair", "bool"])
    def test_rejects_an_edge_that_is_no_pair_of_ints_naming_it(self, edge):
        message = f"edge {edge!r} is no pair of int vertex ids"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            Graph(3, [(0, 2), edge])

    @pytest.mark.parametrize("v", [1.0, "1", True], ids=["float", "str", "bool"])
    def test_subset_mask_rejects_ids_that_are_no_int(self, v):
        message = f"vertex set contains {v!r}, which is no int vertex id"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            subset_mask(Graph(3, []), [0, v], "vertex set")

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
            assert is_connected(g) == nx.is_connected(to_networkx(g))



class TestWideLevels:
    """induced_connected reads a one-vertex BFS level's row, loops over a narrow level's
    bits, and above 32 vertices ORs the rows of a wide level in C.

    All three must agree with the reference search on large graphs whose levels are
    wide (dense and sparse G(n, p)), narrow (paths, cycles, spiders) or both (two
    halves joined by one edge), on the whole vertex set and on seeded masks.  Each
    leg of a spider hangs on its own row, so a level that skips a row answers no.
    """

    @staticmethod
    def gnp(rng, n, p):
        return Graph(n, list(nx.fast_gnp_random_graph(n, p, seed=rng.randrange(1 << 30)).edges))

    def cases(self, rng, n, densities):
        """(graph, drawn) pairs; drawn marks the seeded graphs, as against the fixed shapes."""
        half = n // 2
        a, b = self.gnp(rng, half, 20 / half), self.gnp(rng, half, 20 / half)
        halves = [(u, v) for u, v in a.edges] + [(u + half, v + half) for u, v in b.edges]
        yield from ((self.gnp(rng, n, p), True) for p in densities)
        yield generate("path", [n]), False
        yield generate("cycle", [n]), False
        for legs in (5, 60):  # vertex i > 0 hangs on i - legs, or on the hub 0
            yield Graph(n, [(max(0, i - legs), i) for i in range(1, n)]), False
        yield Graph(n, halves + [(half - 1, half)]), True
        yield Graph(n, halves), True

    @pytest.fixture
    def c_calls(self, count):
        return count(graphs, "compress")

    # The reference costs O(n^2) a call, about 0.3 s on a whole 2000-vertex set, so at
    # n = 2000 the fixed shapes, whose whole sets n = 300 already covers, get masks only.
    @pytest.mark.parametrize("n, densities, masks", [
        (300, (0.002, 0.01, 0.05, 0.5, 0.97), (0.3, 0.7, 0.95)),
        (2000, (0.002,), (0.5,)),
    ])
    def test_agrees_with_the_reference(self, c_calls, n, densities, masks):
        rng = random.Random(n)
        answers = set()
        for g, drawn in self.cases(rng, n, densities):
            if n <= 300 or drawn:
                got = is_connected(g)
                assert got == ref_is_connected_subset(g, range(n))
                answers.add(got)
            for q in masks:
                mask = sum(1 << v for v in range(n) if rng.random() < q)
                assert induced_connected(g, mask) == ref_is_connected_subset(g, set_from_mask(mask))
        assert answers == {False, True}
        assert c_calls  # some level was wide enough to take the C path

    def test_no_level_of_a_graph_on_32_vertices_takes_the_c_path(self, c_calls):
        assert is_connected(generate("complete", [32])) and not c_calls
        assert is_connected(generate("complete", [33])) and c_calls


class TestFullVerticesAndProducts:
    def test_full_vertices(self, c4):
        assert full_vertex_mask(generate("path", [3])) == 0b010
        assert full_vertex_mask(c4) == 0
        assert full_vertex_mask(generate("complete", [4])) == 0b1111
        # the one vertex of K_1 is full: degree 0 equals n - 1
        assert full_vertex_mask(Graph(1, [])) == 0b1

    def test_corona_layout_is_deterministic(self):
        g = corona(generate("cycle", [3]))
        assert g.n == 6
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5))


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
            theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
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
            ("258048\n", "above the supported 258047"),  # graph6's limit, checked before allocation
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
        assert is_corona_of_k1(generate("complete", [2]))
        assert is_corona_of_k1(generate("path", [4]))  # P_4 = K_2 with pendants
        for host in ("cycle", "path"):
            g = corona(generate(host, [4]))
            assert is_corona_of_k1(g)

    def test_corona_recognizer_is_label_blind(self):
        rng = random.Random(3)
        base = corona(generate("cycle", [4]))
        for _ in range(10):
            assert is_corona_of_k1(relabel(base, rng))

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
    """first_leaf, the key the theorem harness groups graphs by, and degree_key, its memo's key.

    Equal keys must mean isomorphic graphs (soundness).  A class may have
    several keys, so relabeled copies need not share one.
    """

    def test_one_form_per_isomorphism_class(self):
        # OEIS A000088: at n <= 6 each class has one first-leaf key, 208 in all; the per-key
        # kernel counts of corpus6 and TestKernelCalls rest on these
        for n, classes in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
            assert len({first_leaf(g) for g in enumerate_labeled_graphs(n)}) == classes

    def test_equal_first_leaf_keys_mean_isomorphic_graphs(self):
        # a first leaf's code is the adjacency read in one vertex order, so it keys the class
        # soundly; over n <= 5 there is one first-leaf key per class
        for n, classes in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
            judged = {}
            for g in enumerate_labeled_graphs(n):
                key = ref_canonical_key(g)
                assert judged.setdefault(first_leaf(g), key) == key
            assert len(judged) == classes

    def test_equal_degree_keys_mean_isomorphic_graphs(self):
        # a degree key is the adjacency read in degree order, so it is as sound as a leaf code
        for n in range(1, 6):
            judged = {}
            for g in enumerate_labeled_graphs(n):
                key = ref_canonical_key(g)
                assert judged.setdefault(degree_key(g), key) == key

    def test_degree_keys_per_order(self):
        # the harness descends once per new degree key: 1,043 descents over the 33,867 graphs
        # n <= 6, against 208 first-leaf keys
        counts = [len({degree_key(g) for g in enumerate_labeled_graphs(n)}) for n in range(1, 7)]
        assert counts == [1, 2, 4, 16, 84, 936]

    def test_no_degree_key_is_shared_by_two_atlas_classes(self):
        rng = random.Random(46)
        class_of = {}
        for i, g in enumerate(atlas()):
            for h in [g] + [relabel(g, rng) for _ in range(5)]:
                assert class_of.setdefault(degree_key(h), i) == i

    def test_no_key_is_shared_by_two_atlas_classes(self):
        # networkx's atlas lists one graph per class n <= 7 and shares no code with the key;
        # each is keyed in its own labeling and in five shuffled ones
        rng = random.Random(46)
        assert len(atlas()) == 1252
        class_of = {}
        for i, g in enumerate(atlas()):
            for h in [g] + [relabel(g, rng) for _ in range(5)]:
                assert class_of.setdefault(first_leaf(h), i) == i
        assert len(class_of) == 1254  # two classes have two keys each under this seed

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
            assert first_leaf(a) != first_leaf(b)

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
            # regular with twin classes
            complete_multipartite(6, 6),
            complete_multipartite(3, 3, 3, 3),
            # regular without twins: the root stays [V], and refinement starts from one vertex
            petersen,
            rook3,
            generate("cycle", [30]),
            disjoint_copies(4, generate("cycle", [5])),
        ]
        assert [first_leaf(g)[0] for g in graphs] == [12] * 8 + [10, 9, 30, 20]
        # no first-leaf key is shared by two of these pairwise non-isomorphic shapes
        shape_of = {}
        for i, g in enumerate(graphs + [relabel(g, rng) for g in graphs]):
            assert shape_of.setdefault(first_leaf(g), i % len(graphs)) == i % len(graphs)

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
            assert first_leaf(a) != first_leaf(b) or same
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
        leaves = [first_leaf(g) for g in graphs]
        for i in range(len(graphs)):
            for j in range(len(graphs)):
                assert leaves[i] != leaves[j] or keys[i] == keys[j]

    def test_twin_heavy_graphs_agree_with_networkx(self):
        # a twin class is individualized one vertex at a time; the relabeled copies are the
        # isomorphic pairs, and 3C4 / 4K3 and 2K_{3,3} / 3K4 share a degree sequence
        rng = random.Random(45)
        k2, k3, k4 = (generate("complete", [k]) for k in (2, 3, 4))
        shapes = []
        for n in range(7, 13):
            shapes += [generate("complete", [n]), Graph(n, []), generate("star", [n - 1]),
                       complete_multipartite(n // 2, n - n // 2), complete_multipartite(1, 2, n - 3)]
        shapes += [disjoint_copies(k, k2) for k in (4, 5, 6)] + [disjoint_copies(k, k3) for k in (3, 4)]
        shapes += [complete_multipartite(2, 2, 2, 2), complete_multipartite(3, 3, 3),
                   complete_multipartite(3, 3, 3, 3), complete_multipartite(4, 4, 4),
                   disjoint_copies(3, complete_multipartite(2, 2)),
                   disjoint_copies(2, complete_multipartite(3, 3)), disjoint_copies(3, k4)]
        shapes += [relabel(g, rng) for g in shapes]
        leaves = [first_leaf(g) for g in shapes]
        for i in range(len(shapes)):
            for j in range(i):
                if leaves[i] == leaves[j]:
                    assert nx.is_isomorphic(to_networkx(shapes[i]), to_networkx(shapes[j]))

    @pytest.mark.parametrize("graph", [
        disjoint_copies(12, generate("complete", [2])),
        disjoint_copies(4, generate("cycle", [5])),
        disjoint_copies(3, generate("cycle", [5])),
        generate("complete", [12]),
        complete_multipartite(6, 6),
        generate("cycle", [30]),
        generate("star", [11]),
    ], ids=["12K2", "4C5", "3C5", "K12", "K6,6", "C30", "K1,11"])
    def test_refinements_under_ceiling(self, count, graph):
        # a key is one descent: one refinement at the root and one per individualized vertex,
        # so at most n in all, however many automorphisms the graph has
        calls = count(graphs, "_refine")
        first_leaf(graph)
        assert len(calls) <= graph.n
