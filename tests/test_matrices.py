"""The edge-domination matrix and the two polynomial deciders."""

import hashlib
import json
import random

import pytest

from coalitions import (
    Graph,
    PreconditionError,
    cc_number,
    check_cc_equals_n,
    check_cc_equals_n_minus_1,
    edge_domination_matrix,
    emit_graph6,
    enumerate_labeled_graphs,
    generate,
    is_connected,
)
from coalitions import matrices
from coalitions.graphs import full_vertex_mask

from conftest import connected_without_full_vertex
from reference import ref_check_cc_equals_n, ref_check_cc_equals_n_minus_1

# sha256 of json.dumps(decider_rows(...)) over connected_without_full_vertex()
# and seeded_graphs(random.Random(9), 400, 7, 60, KINDS), taken before the
# deciders answered from the degree bound first
DECIDERS_SHA256 = "7dafda08215061645d78e400650231ee689e9f40c6e859b2c7e0c6af65c4f542"

KINDS = ("tree", "cycle", "gnp")

C6_DUMP = (
    "6 6\n"
    "1 1 1 0 0 1\n"
    "1 1 0 0 1 1\n"
    "1 1 1 1 0 0\n"
    "0 1 1 1 1 0\n"
    "0 0 1 1 1 1\n"
    "1 0 0 1 1 1"
)


def seeded_graph(rng, kind, n):
    """One seeded graph on n vertices, or None when it is disconnected or has a full vertex.

    kind is "tree" (random recursive tree), "cycle" (C_n plus up to three
    random chords) or "gnp" (G(n, p) with p drawn from 0.1-0.9).
    """
    if kind == "tree":
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    elif kind == "cycle":
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    else:
        p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    return g if is_connected(g) and not full_vertex_mask(g) else None


def seeded_graphs(rng, count, n_min, n_max, kinds):
    """count connected graphs without a full vertex, cycling through kinds."""
    out = []
    while len(out) < count:
        g = seeded_graph(rng, kinds[len(out) % len(kinds)], rng.randint(n_min, n_max))
        if g is not None:
            out.append(g)
    return out


def decider_rows(graphs):
    return [
        [
            emit_graph6(g),
            check_cc_equals_n(g).as_dict(),
            check_cc_equals_n_minus_1(g, "paper").as_dict(),
            check_cc_equals_n_minus_1(g, "strict").as_dict(),
        ]
        for g in graphs
    ]


def max_degree(g):
    return max(m.bit_count() for m in g.nbr_masks)


def cube():
    # Q_3: 3-regular on 8 vertices, so 2(D + 1) = n
    return Graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])


def prism12():
    # C_6 x K_2, the hexagonal prism: 3-regular on 12 vertices, so 3(D + 1) = n
    return Graph(12, [(i, (i + 1) % 6) for i in range(6)]
                 + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
                 + [(i, i + 6) for i in range(6)])


def test_decider_outputs_pinned():
    graphs = connected_without_full_vertex() + tuple(seeded_graphs(random.Random(9), 400, 7, 60, KINDS))
    assert len(graphs) == 21872 + 400
    digest = hashlib.sha256(json.dumps(decider_rows(graphs)).encode()).hexdigest()
    assert digest == DECIDERS_SHA256


class TestEdgeDominationMatrix:
    def test_c6_golden(self, c6):
        m = edge_domination_matrix(c6)
        assert m.to_text() == C6_DUMP
        assert m.edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))

    def test_entries_and_rows(self):
        m = edge_domination_matrix(generate("path", [4]))
        assert m.edges == ((0, 1), (1, 2), (2, 3))
        assert m.row_masks[0] == 0b0111  # bit x is column x
        assert m.row_masks[1].bit_count() == 4  # the middle edge of P_4 covers everything
        assert m.row_masks[0] >> 3 & 1 == 0 and m.row_masks[1] >> 3 & 1 == 1

    def test_entry_characterization(self):
        # bit x of row i is 1 iff x lies in N[p] or N[q] for row i's edge (p, q)
        rng = random.Random(4)
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        for _ in range(50):
            g = Graph(7, [e for e in pairs if rng.random() < 0.4])
            if g.m == 0:
                continue
            m = edge_domination_matrix(g)
            for i, (p, q) in enumerate(m.edges):
                covered = {p, q} | {w for e in g.edges if p in e or q in e for w in e}
                for x in range(g.n):
                    assert m.row_masks[i] >> x & 1 == (1 if x in covered else 0)

    def test_rejects_edgeless_graphs(self):
        with pytest.raises(PreconditionError, match=r"at least one edge"):
            edge_domination_matrix(Graph(3, []))


class TestCheckCcEqualsN:
    def test_c4_yes_with_frozen_witness(self, c4):
        d = check_cc_equals_n(c4)
        assert d.answer
        assert d.witness == {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (0, 3)}
        assert d.reason is None

    def test_c5_and_c6_say_no(self, c5, c6):
        d5 = check_cc_equals_n(c5)
        assert not d5.answer  # CC(C_5) = 3, and the decider knows
        d6 = check_cc_equals_n(c6)
        assert not d6.answer
        assert d6.reason == "vertex 0 has no incident edge whose row sums to 6"

    def test_agrees_with_oracle_on_small_graphs(self):
        for n in range(2, 6):
            for g in enumerate_labeled_graphs(n, connected_only=True):
                if full_vertex_mask(g):
                    continue
                d = check_cc_equals_n(g)
                assert d.answer == (cc_number(g)[0] == g.n)
                assert d.as_dict() == ref_check_cc_equals_n(g)  # witness and reason too

    def test_matches_reference_where_the_degree_bound_answers(self):
        # 2(D + 1) < n: no row can be full, so vertex 0 is the first refusal
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            g = seeded_graph(rng, rng.choice(("tree", "cycle")), rng.randint(7, 40))
            if g is None or 2 * (max_degree(g) + 1) >= g.n:
                continue
            checked += 1
            d = check_cc_equals_n(g)
            assert d.as_dict() == ref_check_cc_equals_n(g)
            assert d.reason == f"vertex 0 has no incident edge whose row sums to {g.n}"

    def test_preconditions(self, two_k2):
        with pytest.raises(PreconditionError, match=r"order >= 2"):
            check_cc_equals_n(Graph(1, []))
        with pytest.raises(PreconditionError, match=r"connected"):
            check_cc_equals_n(two_k2)
        with pytest.raises(PreconditionError, match=r"vertex 1 is full"):
            check_cc_equals_n(generate("path", [3]))
        with pytest.raises(PreconditionError, match=r"vertex 0 is full"):  # the first of several
            check_cc_equals_n(generate("complete", [4]))


class TestCheckCcEqualsNMinus1:
    def test_house_strict_yes_with_frozen_witness(self, house):
        d = check_cc_equals_n_minus_1(house)  # strict is the default
        assert d.answer and d.variant == "strict"
        assert d.witness["u"] == 0 and d.witness["v"] == 1 and d.witness["y"] == 2
        assert d.witness["justification"] == {
            2: ("triple", (2, 0, 1)),
            3: ("edge", (3, 4)),
            4: ("edge", (3, 4)),
        }

    def test_house_paper_agrees_here(self, house):
        d = check_cc_equals_n_minus_1(house, "paper")
        assert d.answer and (d.witness["u"], d.witness["v"]) == (0, 1)

    def test_c4_splits_the_variants(self, c4):
        # CC(C_4) = 4 = n: the plain pair rule still fires, the strict one refuses
        assert check_cc_equals_n_minus_1(c4, "paper").answer
        d = check_cc_equals_n_minus_1(c4, "strict")
        assert not d.answer
        assert d.reason == "the CC = n check already succeeds, which rules out CC = n-1"

    def test_c5_both_variants_say_no(self, c5):
        assert not check_cc_equals_n_minus_1(c5, "paper").answer
        assert not check_cc_equals_n_minus_1(c5, "strict").answer

    def test_p6_both_variants_say_no(self, p6):
        for variant in ("paper", "strict"):
            d = check_cc_equals_n_minus_1(p6, variant)
            assert not d.answer
            assert d.reason == "no qualifying vertex pair (u, v)"

    def test_strict_yes_implies_oracle_on_small_graphs(self):
        # strict answers yes exactly when the oracle finds CC = n-1
        for n in range(3, 6):
            for g in enumerate_labeled_graphs(n, connected_only=True):
                if full_vertex_mask(g):
                    continue
                assert check_cc_equals_n_minus_1(g, "strict").answer == (cc_number(g)[0] == g.n - 1)

    def test_matches_reference_exhaustive_small(self):
        for n in range(3, 6):
            for g in enumerate_labeled_graphs(n, connected_only=True):
                if full_vertex_mask(g):
                    continue
                for variant in ("paper", "strict"):
                    assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(29)
        checked = 0
        while checked < 300:
            n = rng.randint(6, 12)
            p = rng.choice((0.3, 0.5, 0.7, 0.85))
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            if not is_connected(g) or full_vertex_mask(g):
                continue
            checked += 1
            for variant in ("paper", "strict"):
                assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)

    def test_matches_reference_on_dense_random_graphs(self):
        # dense graphs mix yes and no answers, and most have vertices without a full-row partner
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            n = rng.randint(13, 30)
            p = rng.choice((0.5, 0.6, 0.7, 0.8, 0.9, 0.95))
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            if not is_connected(g) or full_vertex_mask(g):
                continue
            checked += 1
            for variant in ("paper", "strict"):
                assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)

    def test_large_cycle_and_path_say_no(self):
        # n = 2000: each answer takes milliseconds, so a per-pair slowdown shows as a stall
        for g in (generate("cycle", [2000]), generate("path", [2000])):
            for variant in ("paper", "strict"):
                d = check_cc_equals_n_minus_1(g, variant)
                assert not d.answer
                assert d.reason == "no qualifying vertex pair (u, v)"

    def test_matches_reference_where_the_degree_bound_answers(self):
        # 2(D + 1) < n: no row is full, and N[u] | N[v] cannot hold every other vertex
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            g = seeded_graph(rng, rng.choice(("tree", "cycle")), rng.randint(7, 16))
            if g is None or 2 * (max_degree(g) + 1) >= g.n:
                continue
            checked += 1
            for variant in ("paper", "strict"):
                d = check_cc_equals_n_minus_1(g, variant)
                assert d.as_dict() == ref_check_cc_equals_n_minus_1(g, variant)
                assert d.reason == "no qualifying vertex pair (u, v)"

    @pytest.mark.parametrize("g", [generate("cycle", [9]), prism12()], ids=["C9", "prism12"])
    def test_degree_bound_refuses_before_partner_masks(self, g, monkeypatch):
        # 2(D + 1) < n <= 3(D + 1): the triple bound lets these through, the row bound does not
        def no_masks(*args):
            raise AssertionError("partner masks built below the degree bound")

        monkeypatch.setattr(matrices, "_partner_masks", no_masks)
        for variant in ("paper", "strict"):
            d = check_cc_equals_n_minus_1(g, variant)
            assert (d.answer, d.reason) == (False, "no qualifying vertex pair (u, v)")

    def test_unknown_variant(self, house):
        with pytest.raises(PreconditionError, match=r"unknown variant"):
            check_cc_equals_n_minus_1(house, "fast")

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match=r"order >= 3"):
            check_cc_equals_n_minus_1(generate("complete", [2]))
        with pytest.raises(PreconditionError, match=r"is full"):
            check_cc_equals_n_minus_1(generate("star", [3]))
        with pytest.raises(PreconditionError, match=r"vertex 0 is full"):  # the first of several
            check_cc_equals_n_minus_1(generate("complete", [4]))


class TestDegreeBoundEdge:
    """Graphs on the degree bound 2(D + 1) = n, where the scans must still run, and just past it."""

    @pytest.mark.parametrize("g", [
        generate("cycle", [6]),  # 2(D + 1) = n
        cube(),  # 2(D + 1) = n
        generate("cycle", [9]),  # 2(D + 1) < n = 3(D + 1)
        prism12(),  # 2(D + 1) < n = 3(D + 1)
    ], ids=["C6", "cube", "C9", "prism12"])
    def test_matches_both_references(self, g):
        assert check_cc_equals_n(g).as_dict() == ref_check_cc_equals_n(g)
        for variant in ("paper", "strict"):
            assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)


class TestDecisionSerialization:
    def test_as_dict_is_json_ready(self, house, c4):
        for d in (
            check_cc_equals_n(c4),
            check_cc_equals_n_minus_1(house),
            check_cc_equals_n_minus_1(c4, "paper"),
            check_cc_equals_n(generate("cycle", [6])),
        ):
            payload = d.as_dict()
            text = json.dumps(payload)  # must not raise
            assert json.loads(text)["answer"] == d.answer

    def test_as_dict_stringifies_keys_and_sorts_sets(self, c4):
        payload = check_cc_equals_n(c4).as_dict()
        assert payload["witness"] == {"0": [0, 1], "1": [0, 1], "2": [1, 2], "3": [0, 3]}
