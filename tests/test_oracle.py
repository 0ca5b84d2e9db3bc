"""Exact CC oracle: frozen values, witness identity, search work, diagnostics, expansion.

cc_number is compared against the unpruned reference witness-for-witness:
the pruned search must return the first maximum partition in the same
restricted-growth order, whatever order it places the vertices in, so equal
answers with different witnesses would mean a prune or the vertex order
changed the semantics, not just the speed.  The raw search is compared the
same way, disconnected graphs included, since cc_number never runs it on
them.
"""

import hashlib
import json
import random

import networkx as nx
import pytest
from reference import gnp_edges, iter_partitions, ref_cc, ref_is_cds, ref_valid_cc_partition

from coalitions import (
    Graph,
    GuardExceededError,
    PreconditionError,
    cc_number,
    cc_partition_search,
    connected_domatic_number,
    emit_graph6,
    enumerate_labeled_graphs,
    expand_domatic_to_cc_partition,
    generate,
    is_cc_partition,
    oracle,
    parse_graph6,
)
from coalitions.graphs import full_vertex_mask
from conftest import corona, domatic_sweep, random_connected, small_connected


def parts(*sets):
    return [frozenset(s) for s in sets]


def digest(graphs):
    """sha256 of cc_partition_search's (value, witness) over graphs, parts as sorted lists."""
    out = []
    for g in graphs:
        cc, witness = cc_partition_search(g)
        out.append([cc, None if witness is None else [sorted(p) for p in witness]])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def readme_draws():
    """README's 60 seeded connected G(12, p): draw i keeps each pair a < b
    with p = 0.3 + 0.2 i / 59 under random.Random(1000 + i), redrawn until connected."""
    return [random_connected(random.Random(1000 + i), 12, 0.3 + 0.2 * i / 59) for i in range(60)]


class TestFrozenValues:
    @pytest.mark.parametrize("maker,cc", [
        (lambda: generate("complete", [1]), 1),
        (lambda: generate("complete", [2]), 2),
        (lambda: generate("complete", [3]), 3),
        (lambda: generate("complete", [5]), 5),
        (lambda: generate("complete_bipartite", [2, 3]), 5),
        (lambda: generate("path", [3]), 0),
        (lambda: generate("path", [6]), 2),
        (lambda: generate("cycle", [4]), 4),
        (lambda: generate("cycle", [5]), 3),
        (lambda: generate("cycle", [6]), 3),
        (lambda: generate("friendship", [2]), 0),
        (lambda: generate("star", [4]), 0),
        # n = 12: the partner tests and the new-part prune cut P12, C12 and
        # P6 corona K1 to a few hundred or thousand table reads (TestSearchWork)
        (lambda: generate("path", [12]), 2),
        (lambda: generate("cycle", [12]), 3),
        (lambda: corona(generate("path", [6])), 2),
    ])
    def test_values(self, maker, cc):
        g = maker()
        value, witness = cc_number(g)
        assert value == cc
        if cc == 0:
            assert witness is None
        else:
            assert len(witness) == cc and is_cc_partition(g, witness)[0]

    def test_house_value(self, house):
        assert cc_number(house)[0] == 4

    def test_frozen_witnesses(self, c4, c5, p6):
        assert cc_number(c5)[1] == parts({0, 1, 3}, {2}, {4})
        assert cc_number(p6)[1] == parts({0, 1, 2, 3, 5}, {4})
        assert cc_number(c4)[1] == parts({0}, {1}, {2}, {3})
        assert cc_number(Graph(1, []))[1] == parts({0})
        # both the all-singleton answer (C4) and the walk's (C5) hand out frozensets
        assert all(type(p) is frozenset for p in cc_number(c4)[1] + cc_number(c5)[1])

    def test_zero_answers_carry_no_witness(self):
        assert cc_number(generate("path", [3])) == (0, None)
        assert cc_number(Graph(4, [(0, 1), (2, 3)])) == (0, None)


class TestAgainstReference:
    def test_exhaustive_to_n5(self):
        # the raw search too, disconnected graphs included: cc_number never runs it on them
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                expected = ref_cc(g)
                assert cc_number(g) == expected
                assert cc_partition_search(g) == expected

    def test_seeded_samples_at_n6(self):
        rng = random.Random(2024)
        for _ in range(120):
            g = Graph(6, gnp_edges(rng, 6, 0.5))
            assert cc_number(g) == ref_cc(g)

    def test_raw_search_seeded_n7_n8_with_full_vertices(self):
        rng = random.Random(78)
        for i in range(12):
            n = 7 + i % 2
            p = rng.choice((0.3, 0.5, 0.7))
            full = set(rng.sample(range(n), i % 3))
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                          if a in full or b in full or rng.random() < p])
            assert cc_partition_search(g) == ref_cc(g)

    def test_tree_classes_and_cycle_at_n7_relabeled(self):
        # The new-part prune fires mostly on sparse graphs, which the
        # exhaustive n <= 5 sweep barely reaches: every tree class n = 7 and
        # C7, each as generated and under one seeded relabeling.
        rng = random.Random(77)
        graphs = [Graph(7, list(t.edges)) for t in nx.nonisomorphic_trees(7)]
        graphs.append(generate("cycle", [7]))
        assert len(graphs) == 12
        for g in graphs:
            perm = rng.sample(range(7), 7)
            for h in (g, Graph(7, [(perm[a], perm[b]) for a, b in g.edges])):
                assert cc_partition_search(h) == ref_cc(h)

    def test_outputs_pinned_over_n6_and_seeded_n7_to_n10(self):
        # Digests of cc_partition_search's (value, witness) over all 32,768
        # labeled graphs with n = 6, and over 120 seeded graphs n = 7-10 with
        # 0-2 full vertices, taken before the search's partner tests were
        # merged into one.
        def seeded():
            rng = random.Random(710)
            for i in range(120):
                n = 7 + i % 4
                p = rng.choice((0.3, 0.5, 0.7))
                full = set(rng.sample(range(n), i % 3))
                yield Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if a in full or b in full or rng.random() < p])

        assert digest(enumerate_labeled_graphs(6)) == (
            "67191c67adcc00c008b0e6df1743a11689833bca851177c9166abbc12b7fd421")
        assert digest(seeded()) == "e2467fc379437b167493452a49275e9fdb440625f907d139077f2f9a26a840a5"

    def test_outputs_pinned_over_readme_draws_at_n12(self):
        # Taken while the search still placed the vertices in label order:
        # the value in degree order and the lex-first walk keep every witness.
        graphs = readme_draws() + [parse_graph6("KpUgs?_Ae_Yj"), parse_graph6("KdD?GKdsKy{N")]
        assert digest(graphs) == "2db1e9eb410f07e80432c70b5cfe1a831c6e2c404b164ee65e8d26fa158c722d"

    def test_tree_classes_at_n12_relabeled(self):
        # Every tree class n = 12 under one seeded relabeling: the search's
        # cost depended on labels while it placed them in label order.  Every
        # non-star tree has CC = 2 (t3); the digest was taken in label order.
        rng = random.Random(5)
        graphs = []
        for t in nx.nonisomorphic_trees(12):
            perm = rng.sample(range(12), 12)
            graphs.append(Graph(12, [(perm[u], perm[v]) for u, v in t.edges]))
        assert len(graphs) == 551
        for g in graphs:
            if not full_vertex_mask(g):
                cc, witness = cc_partition_search(g)
                assert cc == 2 and is_cc_partition(g, witness)[0], emit_graph6(g)
        assert digest(graphs) == "ca276c19ef40d6ab04e731c0fe55dcc02b7fd2a39e9c95ca3256a346b8c31788"

    def test_witnesses_validate(self):
        for g in small_connected(5):
            cc, witness = cc_number(g)
            if cc == 0:
                assert witness is None
                continue
            assert len(witness) == cc
            valid, _ = is_cc_partition(g, witness)
            assert valid


class TestSearchWork:
    """Partner tests away from the leaves are speed-only: without them values
    and witnesses stay the same, so only the table reads they save show them.
    The exact counts pin the search's work: a change to how it carries its
    state, or to how the table is built, must not move them."""

    @pytest.mark.parametrize("maker, cc, reads, ceiling", [
        (lambda: generate("path", [12]), 2, 93, 2000),
        (lambda: generate("cycle", [12]), 3, 2827, 8000),
        (lambda: corona(generate("path", [6])), 2, 145, 2000),
        (lambda: parse_graph6("K_??????@~g@"), 2, 184, 2000),
        (lambda: parse_graph6("KpUgs?_Ae_Yj"), 5, 66_786, 200_000),
    ], ids=["P12", "C12", "P6-corona-K1", "spider-tree", "G12-p0.4"])
    def test_table_lookups_under_ceiling(self, count, maker, cc, reads, ceiling):
        # Without the new-part prune the first three read 25,497, 30,185 and
        # 29,582 entries.  Placed in label order rather than degree order,
        # the spider tree (a hub of degree 9, labels reversed) reads
        # 12,393,677 and the G(12, 0.4) draw 6,798,134.
        table_reads = count(oracle, "cds_table", reads=True)
        assert cc_partition_search(maker())[0] == cc
        assert len(table_reads) == reads <= ceiling


class TestRawSearch:
    def test_no_disconnected_shortcut(self, two_k2):
        # the raw engine proves the zero rather than assuming it
        assert cc_partition_search(two_k2) == (0, None)
        assert cc_number(two_k2) == (0, None)

    def test_guard_applies_before_anything_else(self):
        k13 = generate("complete", [13])
        with pytest.raises(GuardExceededError, match=r"got n=13"):
            cc_number(k13)
        with pytest.raises(GuardExceededError):
            cc_partition_search(Graph(13, []))
        # the guard comes before the disconnected shortcut, so this is refused, not answered 0
        with pytest.raises(GuardExceededError):
            cc_number(Graph(13, []))
        # an explicit override runs; the all-singleton partition is tried first
        assert cc_number(k13, guard=13) == (13, [{v} for v in range(13)])

    def test_rejects_empty_graph(self):
        with pytest.raises(PreconditionError):
            cc_number(Graph(0, []))


class TestPredicatesAndDiagnostics:
    def test_diagnostics_roles(self, c4):
        valid, roles = is_cc_partition(generate("complete", [3]), parts({0}, {1}, {2}))
        assert valid and roles == ["full-singleton"] * 3

        c6 = generate("cycle", [6])
        valid, roles = is_cc_partition(c6, parts({0, 1, 2}, {3, 4, 5}))
        assert valid and roles == ["partnered(1)", "partnered(0)"]

        valid, roles = is_cc_partition(c4, parts({0, 1, 2}, {3}))
        assert not valid
        assert roles == ["illegal-CDS", "unpartnered"]

    def test_roles_name_the_lowest_partner(self):
        # Judged by the reference predicate, not the bitmask code: four seeded
        # partitions of every labeled graph n <= 5, their parts shuffled so
        # a part's index is not its lowest vertex.
        rng = random.Random(505)
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                for _ in range(4):
                    labels = [0]
                    for _ in range(1, n):
                        labels.append(rng.randint(0, max(labels) + 1))
                    partition = [frozenset(v for v in range(n) if labels[v] == b)
                                 for b in range(max(labels) + 1)]
                    rng.shuffle(partition)
                    cds = [ref_is_cds(g, p) for p in partition]
                    expected = []
                    for i, p in enumerate(partition):
                        if cds[i]:
                            # a one-vertex CDS is a full vertex
                            expected.append("full-singleton" if len(p) == 1 else "illegal-CDS")
                            continue
                        partners = [j for j, q in enumerate(partition)
                                    if j != i and not cds[j] and ref_is_cds(g, p | q)]
                        expected.append(f"partnered({partners[0]})" if partners else "unpartnered")
                    valid = ref_valid_cc_partition(g, partition)
                    assert is_cc_partition(g, partition) == (valid, expected)

    def test_partition_must_cover_exactly(self, c4):
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, {1, 2, 3}))  # overlap
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, {2}))  # vertex 3 missing
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, set(), {2, 3}))  # empty part

    def test_part_with_an_id_that_is_no_int_is_named(self, c4):
        # 0.0 == 0 and True == 1, but neither is a vertex id
        for bad in (0.0, "0", True):
            with pytest.raises(PreconditionError, match=r"^part 0 contains .*, which is no int vertex id$"):
                is_cc_partition(c4, [{bad, 2}, {1, 3}])


class TestExpansion:
    def test_c4_from_its_domatic_witness(self, c4):
        _, domatic = connected_domatic_number(c4)
        out = expand_domatic_to_cc_partition(c4, domatic)
        assert sorted(sorted(p) for p in out) == [[0], [1], [2], [3]]

    def test_c4_from_the_coarse_partition(self, c4):
        # {V} is not a maximum domatic partition; the refinement path handles it
        out = expand_domatic_to_cc_partition(c4, parts(range(4)))
        assert sorted(sorted(p) for p in out) == [[0], [1], [2], [3]]

    def test_c6_from_the_coarse_partition(self, c6):
        out = expand_domatic_to_cc_partition(c6, parts(range(6)))
        assert sorted(sorted(p) for p in out) == [[0, 1], [2], [3, 4, 5]]

    def test_p6_exercises_the_absorb_branch(self, p6):
        out = expand_domatic_to_cc_partition(p6, parts(range(6)))
        assert sorted(sorted(p) for p in out) == [[0, 2, 3, 4, 5], [1]]

    def test_output_contract_over_small_connected_graphs(self):
        for g in small_connected(5):
            if g.n <= 1 or full_vertex_mask(g):
                continue
            dc, domatic = connected_domatic_number(g)
            out = expand_domatic_to_cc_partition(g, domatic)
            assert len(out) >= 2 * dc
            valid, _ = is_cc_partition(g, out)
            assert valid

    def test_outputs_pinned_over_connected_graphs_without_full_vertex(self):
        # Digest of the expansions of the d_c witness and of {V} for every
        # connected labeled graph 2 <= n <= 6 with no full vertex (21,872
        # graphs), taken before the split was reduced to its one candidate.
        rows = [
            [
                emit_graph6(g),
                [sorted(p) for p in expanded],
                [sorted(p) for p in expand_domatic_to_cc_partition(g, parts(range(g.n)))],
            ]
            for g, _, _, expanded in domatic_sweep()
        ]
        assert len(rows) == 21872
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "60a2e4fa2f7a1b02e1d88931fe66d4e3555624768b7868d02a392df7c4588273"

    def test_preconditions(self, two_k2, c4):
        with pytest.raises(PreconditionError, match=r"order >= 2"):
            expand_domatic_to_cc_partition(Graph(1, []), parts({0}))
        with pytest.raises(PreconditionError, match=r"connected"):
            expand_domatic_to_cc_partition(two_k2, parts({0, 1}, {2, 3}))
        with pytest.raises(PreconditionError, match=r"vertex 1 is full"):
            expand_domatic_to_cc_partition(generate("path", [3]), parts({0, 1, 2}))
        with pytest.raises(PreconditionError, match=r"part 1 .* not a connected dominating set"):
            expand_domatic_to_cc_partition(c4, parts({0, 1}, {2}, {3}))


class TestReferenceEnumeratorSanity:
    """Guards on the reference itself, so the cross-checks above mean something."""

    def test_partition_counts_are_bell_numbers(self):
        got = [sum(1 for _ in iter_partitions(n)) for n in range(6)]
        assert got == [1, 1, 2, 5, 15, 52]

    def test_validators_agree_on_every_partition_to_n4(self):
        for g in small_connected(4):
            for partition in iter_partitions(g.n):
                valid, _ = is_cc_partition(g, partition)
                assert valid == ref_valid_cc_partition(g, partition)
