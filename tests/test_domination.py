"""Domination predicates on vertex masks, the CDS table, gamma_c, d_c, and minimal shrinking.

The exact searches are cross-checked against the unpruned references in
reference.py, witness-for-witness, over every connected labeled graph up to
n = 5 and seeded samples at n = 6 to 8.
"""

import random

import pytest
from reference import ref_connected_domatic, ref_gamma_c, ref_is_cds, ref_is_dominating

from coalitions import (
    Graph,
    GuardExceededError,
    PreconditionError,
    cds_table,
    connected_domatic_number,
    gamma_c,
    generate,
)
from coalitions.domination import mask_is_cds, mask_is_dominating, shrink_to_minimal_cds
from coalitions.graphs import set_from_mask, subset_mask
from conftest import small_connected


def random_connected(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    from coalitions import is_connected

    while True:
        g = Graph(n, [e for e in pairs if rng.random() < p])
        if is_connected(g):
            return g


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
            subset_mask(c5, {0, 9})


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

    def test_guard(self):
        with pytest.raises(GuardExceededError, match=r"n <= 20"):
            cds_table(Graph(21, []))


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
                assert mask_is_cds(g, subset_mask(g, p))

    def test_matches_reference_exhaustively(self):
        for g in small_connected(5):
            assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_matches_reference_on_seeded_n6(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_connected(rng, 6)
            assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_matches_reference_on_seeded_n7_n8(self):
        rng = random.Random(708)
        for n in (7, 8):
            for p in (0.3, 0.6, 0.9):
                for _ in range(2):
                    g = random_connected(rng, n, p)
                    assert connected_domatic_number(g) == ref_connected_domatic(g)

    def test_dense_n12(self):
        g = random_connected(random.Random(12), 12, 0.9)
        k, parts = connected_domatic_number(g)
        assert k == 7 and len(parts) == 7
        assert set().union(*parts) == set(range(12)) and sum(map(len, parts)) == 12
        for p in parts:
            assert mask_is_cds(g, subset_mask(g, p))

    def test_guard_and_override(self):
        with pytest.raises(GuardExceededError, match=r"n <= 12"):
            connected_domatic_number(generate("star", [12]))
        assert connected_domatic_number(generate("star", [12]), guard=13)[0] == 1

    def test_rejects_disconnected(self, two_k2):
        with pytest.raises(PreconditionError):
            connected_domatic_number(two_k2)


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
