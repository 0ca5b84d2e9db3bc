"""Domination predicates on vertex masks, the CDS table, gamma_c, d_c, and minimal shrinking.

The exact searches are cross-checked against the unpruned references in
reference.py, witness-for-witness, over every connected labeled graph up to
n = 5 and seeded samples at n = 6 to 8.
"""

import hashlib
import random

import pytest
from reference import gnp_edges, ref_connected_domatic, ref_gamma_c, ref_is_cds, ref_is_dominating

from coalitions import (
    Graph,
    GuardExceededError,
    PreconditionError,
    cds_table,
    connected_domatic_number,
    enumerate_labeled_graphs,
    gamma_c,
    generate,
)
from coalitions import domination
from coalitions.domination import mask_is_cds, mask_is_dominating, shrink_to_minimal_cds
from coalitions.graphs import set_from_mask, subset_mask
from conftest import random_connected, small_connected


def seeded_table_graphs():
    """Three seeded G(n, p) graphs for each n = 6..14, disconnected ones included."""
    rng = random.Random(1614)
    return [Graph(n, gnp_edges(rng, n, p)) for n in range(6, 15) for p in (0.2, 0.5, 0.8)]


def seeded_dense_graphs():
    """One seeded G(n, 0.9) for each of n = 15, 17 and 20, where most masks are CDSs."""
    rng = random.Random(1520)
    return [Graph(n, gnp_edges(rng, n, 0.9)) for n in (15, 17, 20)]


def table_digest(graphs):
    """sha256 over the graphs' CDS tables, each written as a line of 0/1 characters by mask."""
    h = hashlib.sha256()
    for g in graphs:
        h.update("".join("01"[ok] for ok in cds_table(g)).encode() + b"\n")
    return h.hexdigest()


class TestPredicates:
    def test_dominating_basics(self, c5, two_k2):
        assert mask_is_dominating(c5, 0b00101)
        assert not mask_is_dominating(c5, 0b00001)
        assert mask_is_dominating(two_k2, 0b0101)
        assert not mask_is_dominating(two_k2, 0b0011)

    def test_empty_set_dominates_only_the_empty_graph(self):
        assert mask_is_dominating(Graph(0, []), 0)
        assert not mask_is_dominating(Graph(1, []), 0)

    def test_cds_needs_both_halves(self, c6):
        assert mask_is_cds(c6, 0b011110)
        assert not mask_is_cds(c6, 0b010101)  # dominates, disconnected
        assert not mask_is_cds(c6, 0b000111)  # connected, misses 4
        assert not mask_is_cds(c6, 0)

    def test_singleton_cds_iff_full_vertex(self):
        assert mask_is_cds(generate("star", [4]), 0b00001)
        assert not mask_is_cds(generate("star", [4]), 0b00010)
        assert mask_is_cds(Graph(1, []), 0b1)

    def test_out_of_range_vertex(self, c5):
        # a vertex set reaches the predicates through subset_mask, which checks its ids
        with pytest.raises(PreconditionError, match=r"vertex 9"):
            subset_mask(c5, {0, 9}, "vertex set")


class TestCdsTable:
    @pytest.mark.parametrize("maker", [
        lambda: generate("cycle", [5]),
        lambda: generate("path", [4]),
        lambda: generate("complete_bipartite", [2, 3]),
        lambda: Graph(4, [(0, 1), (2, 3)]),
        lambda: Graph(1, []),
    ])
    def test_agrees_with_reference_on_every_mask(self, maker):
        g = maker()
        table = cds_table(g)
        for mask in range(1 << g.n):
            s = set_from_mask(mask)
            assert table[mask] == mask_is_cds(g, mask) == ref_is_cds(g, s)
            assert mask_is_dominating(g, mask) == ref_is_dominating(g, s)

    def test_agrees_with_both_predicates_on_every_labeled_graph_n_le_5(self):
        # the table is built without the predicates, so this is a cross-check
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                table = cds_table(g)
                assert len(table) == 1 << n
                for mask in range(1 << n):
                    assert table[mask] == mask_is_cds(g, mask) == ref_is_cds(g, set_from_mask(mask))

    # the first two taken with the mask-by-mask build (a cover array and a BFS
    # per dominating mask), the dense one with the build that made every
    # avoiding set by doubling per graph
    @pytest.mark.parametrize("graphs,digest", [
        (seeded_table_graphs, "2a93418095df4aa3eccca696a0f0f09266b6ae1c3bf480fea2dc110afd913e6a"),
        (lambda: [generate("cycle", [20]), generate("path", [20]), generate("star", [19])],
         "d119ea5b23a0d23a8fc184cb507d33577e24a1c8bbc4a7e43a319b1f5d905364"),
        # the digest of the one line "0": the empty graph's table is [False]
        (lambda: [Graph(0, [])], "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (seeded_dense_graphs, "be74e8f518e887251b1959db9b72b500571873d867108567b12d77ed1248dd6a"),
    ], ids=["seeded_n6_to_14", "C20_P20_K1_19", "empty", "dense_n15_17_20"])
    def test_tables_pinned(self, graphs, digest):
        assert table_digest(graphs()) == digest

    @pytest.mark.parametrize("n", [8, 12])
    def test_both_fills_against_reference(self, n):
        # cds_table fills a table of fewer than 2^n / 32 CDSs per set bit and
        # a larger one per entry.  A tree's CDSs are its internal vertices
        # plus any set of its L leaves, 2^L of them, so the broom (a path with
        # its last vertex holding the rest as leaves) has exactly 2^n / 32.
        rng = random.Random(8012)
        leaves = {8: 3, 12: 7}[n]
        spine = n - leaves + 1
        broom = Graph(n, [(v, v + 1) for v in range(spine - 1)]
                      + [(spine - 1, v) for v in range(spine, n)])
        tree = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        cases = [
            (generate("path", [n]), 4),
            (broom, 1 << n - 5),
            (generate("cycle", [n]), 2 * n + 1),
            (generate("star", [n - 1]), 1 << n - 1),
            (tree, None),
            (random_connected(rng, n, 0.9), None),
            (Graph(n, []), 0),
            (Graph(0, []), 0),
        ]
        sparse = dense = 0
        for g, count in cases:
            table = cds_table(g)
            assert len(table) == 1 << g.n
            assert all(type(entry) is bool for entry in table)
            for mask, entry in enumerate(table):
                assert entry == ref_is_cds(g, set_from_mask(mask))
            if count is not None:
                assert sum(table) == count
            if sum(table) * 32 < len(table):
                sparse += 1
            else:
                dense += 1
        assert sparse >= 3 and dense >= 3

    def test_orders_interleaved(self):
        # the masks of each order are made once and reused, so revisit orders out of turn
        rng = random.Random(906)
        for n in (9, 2, 9, 0, 1, 6, 12, 3, 6):
            g = random_connected(rng, n) if n else Graph(0, [])
            before = gamma_c(g) if n else None
            table = cds_table(g)
            assert len(table) == 1 << n
            for mask in range(1 << n):
                assert table[mask] == mask_is_cds(g, mask) == ref_is_cds(g, set_from_mask(mask))
            if n:
                assert before == gamma_c(g) == ref_gamma_c(g)

    def test_guard(self, monkeypatch):
        # the guard fires before the masks of the order are made
        monkeypatch.setattr(domination, "_order_masks", None)
        star = generate("star", [20])
        with pytest.raises(GuardExceededError, match=r"n <= 20"):
            cds_table(Graph(21, []))
        with pytest.raises(GuardExceededError, match=r"n <= 20"):
            gamma_c(star)
        with pytest.raises(GuardExceededError, match=r"n <= 20"):
            connected_domatic_number(star, guard=21)


class TestGammaC:
    @pytest.mark.parametrize("maker,size,witness", [
        (lambda: generate("cycle", [6]), 4, {0, 1, 2, 3}),
        (lambda: generate("path", [6]), 4, {1, 2, 3, 4}),
        (lambda: generate("cycle", [5]), 3, {0, 1, 2}),
        (lambda: generate("complete", [5]), 1, {0}),
        (lambda: generate("star", [6]), 1, {0}),
        (lambda: generate("complete_bipartite", [2, 3]), 2, {0, 2}),
    ])
    def test_frozen_values(self, maker, size, witness):
        assert gamma_c(maker()) == (size, frozenset(witness))

    def test_matches_reference_exhaustively(self):
        for g in small_connected(5):
            assert gamma_c(g) == ref_gamma_c(g)

    def test_matches_reference_on_seeded_n6(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_connected(rng, 6)
            assert gamma_c(g) == ref_gamma_c(g)
        for n in (7, 8, 9):
            for p in (0.3, 0.5, 0.7):
                for _ in range(5):
                    g = random_connected(rng, n, p)
                    assert gamma_c(g) == ref_gamma_c(g)

    def test_matches_reference_on_dense_n10_to_14(self):
        # gamma_c is 1 or 2 here and most masks are CDSs
        rng = random.Random(1014)
        sizes = set()
        for n in range(10, 15):
            for p in (0.75, 0.9):
                for _ in range(3):
                    g = random_connected(rng, n, p)
                    size, witness = gamma_c(g)
                    assert (size, witness) == ref_gamma_c(g)
                    sizes.add(size)
        assert sizes == {1, 2}

    @pytest.mark.parametrize("maker,size,witness", [
        (lambda: generate("cycle", [20]), 18, range(18)),
        (lambda: generate("path", [20]), 18, range(1, 19)),
        (lambda: generate("star", [19]), 1, {0}),
    ], ids=["C20", "P20", "K1_19"])
    def test_frozen_values_at_the_limit(self, maker, size, witness):
        assert gamma_c(maker()) == (size, frozenset(witness))

    def test_refuses_more_than_20_vertices(self):
        # gamma_c reads the 2^n CDS table, so it shares the table's guard
        with pytest.raises(GuardExceededError, match=r"n <= 20, got 21"):
            gamma_c(generate("star", [20]))

    def test_rejects_disconnected_and_empty(self, two_k2):
        with pytest.raises(PreconditionError, match=r"disconnected"):
            gamma_c(two_k2)
        with pytest.raises(PreconditionError):
            gamma_c(Graph(0, []))


class TestConnectedDomatic:
    @pytest.mark.parametrize("maker,dc", [
        (lambda: generate("cycle", [4]), 2),
        (lambda: generate("cycle", [6]), 1),
        (lambda: generate("complete", [4]), 4),
        (lambda: generate("star", [5]), 1),
        (lambda: generate("path", [6]), 1),
        (lambda: Graph(1, []), 1),
    ])
    def test_frozen_values(self, maker, dc):
        assert connected_domatic_number(maker())[0] == dc

    def test_frozen_witnesses(self, c4, c6):
        assert connected_domatic_number(c4) == (2, [frozenset({0, 1}), frozenset({2, 3})])
        assert connected_domatic_number(c6) == (1, [frozenset(range(6))])

    def test_witness_parts_are_all_cds(self):
        for g in small_connected(5):
            k, parts = connected_domatic_number(g)
            assert len(parts) == k
            assert set().union(*parts) == set(range(g.n))
            for p in parts:
                assert mask_is_cds(g, subset_mask(g, p, "part"))

    def test_matches_reference_exhaustively(self):
        for g in small_connected(5):
            assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_matches_reference_on_seeded_n6(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_connected(rng, 6)
            assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_matches_reference_on_seeded_n7_to_n9(self):
        rng = random.Random(708)
        for n in (7, 8, 9):
            for p in (0.3, 0.6, 0.9):
                for _ in range(2):
                    g = random_connected(rng, n, p)
                    assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_frozen_witnesses_on_seeded_n12(self):
        rng = random.Random(1200)
        frozen = [
            (0.3, 1, [range(12)]),
            (0.3, 1, [range(12)]),
            (0.5, 3, [{0, 1, 2, 3, 4, 7}, {5, 8, 9}, {6, 10, 11}]),
            (0.5, 4, [{0, 1, 5}, {2, 3, 10}, {4, 6, 8}, {7, 9, 11}]),
            (0.7, 4, [{0, 1, 3, 7}, {2, 9}, {4, 5, 10}, {6, 8, 11}]),
            (0.7, 5, [{0, 1, 6}, {2, 9}, {3, 7, 8}, {4, 10}, {5, 11}]),
        ]
        for p, dc, witness in frozen:
            g = random_connected(rng, 12, p)
            assert connected_domatic_number(g) == (dc, [frozenset(w) for w in witness])

    def test_dense_n12(self):
        g = random_connected(random.Random(12), 12, 0.9)
        k, parts = connected_domatic_number(g)
        assert k == 7 and len(parts) == 7
        assert set().union(*parts) == set(range(12)) and sum(map(len, parts)) == 12
        for p in parts:
            assert mask_is_cds(g, subset_mask(g, p, "part"))

    def test_guard_and_override(self):
        with pytest.raises(GuardExceededError, match=r"n <= 12"):
            connected_domatic_number(generate("star", [12]))
        assert connected_domatic_number(generate("star", [12]), guard=13)[0] == 1

    def test_rejects_disconnected(self, two_k2):
        with pytest.raises(PreconditionError):
            connected_domatic_number(two_k2)

    @pytest.mark.parametrize("maker, dc, reads", [
        (lambda: generate("cycle", [10]), 1, 51),
        (lambda: random_connected(random.Random(610), 10, 0.6), 3, 3617),
        (lambda: random_connected(random.Random(612), 12, 0.6), 3, 88931),
    ], ids=["C10", "G10-p0.6", "G12-p0.6"])
    def test_reach_prune_work_is_pinned(self, count, maker, dc, reads):
        # The reach prune (a part whose union with the unassigned vertices is
        # no CDS ends the branch) is speed-only: at a leaf a part that is no
        # CDS still owes the deficit one vertex, so the bound alone refuses
        # it, and every value and witness stays.  Only the table reads show
        # the prune.  Without it the three read 28, 6,281 and 215,553
        # entries: fewer on C10, where its own reads outweigh what it cuts.
        table_reads = count(domination, "_unpack", reads=True)
        assert connected_domatic_number(maker())[0] == dc
        assert len(table_reads) == reads

    @pytest.mark.parametrize("maker, gc, dc, reads", [
        (lambda: random_connected(random.Random(1001), 10, 0.3), 4, 1, 357),
        (lambda: random_connected(random.Random(1003), 11, 0.3), 4, 2, 98),
    ], ids=["G10-p0.3", "G11-p0.3"])
    def test_full_deficit_work_is_pinned(self, count, maker, gc, dc, reads):
        # A part that is no CDS yet owes the deficit max(1, gamma_c - |part|)
        # vertices, not one.  That is speed-only: at a leaf one owed vertex
        # already refuses a part that is no CDS.  It shows only where gamma_c
        # is above 2, as here; charging one vertex per part, these read 965
        # and 27,834 entries.
        g = maker()
        assert gamma_c(g)[0] == gc
        table_reads = count(domination, "_unpack", reads=True)
        assert connected_domatic_number(g)[0] == dc
        assert len(table_reads) == reads


class TestShrinkToMinimal:
    def test_known_shrink(self, c6):
        assert shrink_to_minimal_cds(c6, 0b111111) == 0b111100

    def test_result_is_minimal_in_the_strong_sense(self):
        # no proper nonempty subset of the fixed point is a CDS
        import itertools

        for g in small_connected(5):
            core = shrink_to_minimal_cds(g, g.full_mask)
            assert mask_is_cds(g, core)
            for k in range(1, core.bit_count()):
                for sub in itertools.combinations(sorted(set_from_mask(core)), k):
                    assert not ref_is_cds(g, set(sub))

    def test_rejects_non_cds_input(self, c6):
        with pytest.raises(PreconditionError, match=r"needs a connected dominating set"):
            shrink_to_minimal_cds(c6, 0b000011)

    def test_superset_of_cds_is_cds(self):
        # the structural fact behind both the shrink and the search prune
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 7))
            table = cds_table(g)
            full = (1 << g.n) - 1
            for mask in range(1, full + 1):
                if table[mask] and mask != full:
                    extra = rng.choice([v for v in range(g.n) if not mask >> v & 1])
                    assert table[mask | 1 << extra]
