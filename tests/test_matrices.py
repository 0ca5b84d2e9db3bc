"""The edge-domination matrix and the two polynomial deciders."""

import functools
import hashlib
import itertools
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

from conftest import atlas, connected_without_full_vertex, random_connected
from reference import (
    gnp_edges,
    ref_check_cc_equals_n,
    ref_check_cc_equals_n_minus_1,
    ref_closed_neighborhoods,
    ref_connected_without_full_vertex,
    ref_full_rows,
    ref_full_rows_at,
    ref_is_cds,
    ref_outside,
)

# sha256 of json.dumps(decider_rows(...)) over connected_without_full_vertex()
# and seeded_graphs(random.Random(9), 400, 7, 60, KINDS), taken before the
# deciders answered from the degree bound first
DECIDERS_SHA256 = "7dafda08215061645d78e400650231ee689e9f40c6e859b2c7e0c6af65c4f542"

KINDS = ("tree", "cycle", "gnp")


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
        edges = gnp_edges(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
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


def gnp_without_full_vertex(n, p, seed):
    """G(n, p) from random.Random(seed), drawn again until it is connected and has no full vertex."""
    rng = random.Random(seed)
    while True:
        g = random_connected(rng, n, p)
        if not full_vertex_mask(g):
            return g


@functools.cache
def atlas_classes_without_full_vertex():
    """The 787 connected atlas classes n <= 7 with no full vertex, judged by the reference."""
    classes = tuple(g for g in atlas() if ref_connected_without_full_vertex(g))
    assert len(classes) == 787
    return classes


def max_degree(g):
    return max(m.bit_count() for m in g.nbr_masks)


def cube():
    # Q_3: 3-regular on 8 vertices, so 2D < n = 2(D + 1)
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
    # the C6 dump's golden bytes are pinned through the CLI, in test_acceptance and test_cli
    def test_entries_and_rows(self):
        rows = edge_domination_matrix(generate("path", [4]))
        assert len(rows) == 3  # one row per edge of g.edges: (0, 1), (1, 2), (2, 3)
        assert rows[0] == 0b0111  # bit x is column x
        assert rows[1].bit_count() == 4  # the middle edge of P_4 covers everything
        assert rows[0] >> 3 & 1 == 0 and rows[1] >> 3 & 1 == 1

    def test_entry_characterization(self):
        # bit x of row i is 1 iff x lies in N[p] or N[q] for row i's edge (p, q)
        rng = random.Random(4)
        for _ in range(50):
            g = Graph(7, gnp_edges(rng, 7, 0.4))
            if g.m == 0:
                continue
            rows = edge_domination_matrix(g)
            assert len(rows) == g.m
            for row, (p, q) in zip(rows, g.edges):
                covered = {p, q} | {w for e in g.edges if p in e or q in e for w in e}
                for x in range(g.n):
                    assert row >> x & 1 == (1 if x in covered else 0)

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
        # 2D < n: no row can be full, so vertex 0 is the first refusal
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            g = seeded_graph(rng, rng.choice(("tree", "cycle")), rng.randint(7, 40))
            if g is None or 2 * max_degree(g) >= g.n:
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

    def test_strict_agrees_with_oracle_both_ways_on_small_graphs(self):
        # strict answers yes exactly when the oracle finds CC = n-1, on every labeled graph
        for n in range(3, 6):
            for g in enumerate_labeled_graphs(n, connected_only=True):
                if full_vertex_mask(g):
                    continue
                assert check_cc_equals_n_minus_1(g, "strict").answer == (cc_number(g)[0] == g.n - 1)

    def test_strict_is_exact_and_paper_errs_only_as_proved(self):
        # check_cc_equals_n_minus_1's proof over every connected class n <= 7 with no full
        # vertex: strict agrees with the oracle both ways, a paper no means CC != n-1, and a
        # paper false yes has CC = n or else a witness pair that is itself a CDS.  The oracle
        # is cc_number: ref_cc takes about 35 ms a graph at n = 7
        oracle_yes = cc_n = cds_pair = 0
        for g in atlas_classes_without_full_vertex():
            cc = cc_number(g)[0]
            oracle = cc == g.n - 1
            paper = check_cc_equals_n_minus_1(g, "paper")
            assert check_cc_equals_n_minus_1(g, "strict").answer == oracle
            assert paper.answer or not oracle
            oracle_yes += oracle
            if paper.answer and not oracle:
                if cc == g.n:
                    cc_n += 1
                else:
                    assert ref_is_cds(g, {paper.witness["u"], paper.witness["v"]})
                    cds_pair += 1
        assert (oracle_yes, cc_n, cds_pair) == (100, 65, 421)

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
            g = Graph(n, gnp_edges(rng, n, rng.choice((0.3, 0.5, 0.7, 0.85))))
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
            g = Graph(n, gnp_edges(rng, n, rng.choice((0.5, 0.6, 0.7, 0.8, 0.9, 0.95))))
            if not is_connected(g) or full_vertex_mask(g):
                continue
            checked += 1
            for variant in ("paper", "strict"):
                assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)

    @pytest.mark.parametrize("n, p, seed, pinned", [
        (60, 0.5, 3, {"strict": (False, 0, 910), "paper": (False, 0, 910)}),
        (60, 0.8, 4, {"strict": (True, 56, 3598), "paper": (True, 4, 2820)}),
        (30, 0.7, 5, {"strict": (False, 87, 532), "paper": (True, 4, 544)}),
    ])
    def test_lonely_filter_work_is_pinned(self, n, p, seed, pinned, count):
        # (answer, _dominators calls, vertices offered to _first_partner) per variant.  The
        # lonely filter (the docstring's fourth fact) changes no answer, only the pairs scanned:
        # without it the last two graphs make 136 and 415 strict _dominators calls.  The partner
        # pass leaves the lonely vertices found so far out of each walk (the first fact): without
        # that the three graphs offer 1,820, 3,825 and 672 strict candidates.  Every vertex of
        # the first graph is lonely, so the second fact refuses before the scan calls _dominators
        g = Graph(n, gnp_edges(random.Random(seed), n, p))
        calls = count(matrices, "_dominators")
        walks = count(matrices, "_first_partner")
        got = {}
        for variant in ("strict", "paper"):
            calls.clear()
            walks.clear()
            answer = check_cc_equals_n_minus_1(g, variant).answer
            got[variant] = (answer, len(calls), sum(cand.bit_count() for _, _, cand, _ in walks))
        assert got == pinned

    @pytest.mark.parametrize("n, p, seed, answers", [
        (300, None, None, (False, False, False)),  # C300: 2D < n
        (300, 0.02, 1, (False, False, False)),  # 2D < n
        (300, 0.5, 1, (False, False, False)),  # 2D >= n, yet every vertex is lonely: no row is full
        (300, 0.97, 1, (True, True, False)),  # no lonely vertex: strict refuses, as CC = n holds
        (300, 0.95, 1, (True, True, False)),  # paper walks about 200 vertices again
        (300, 0.93, 2, (True, True, False)),
        (300, 0.9, 2, (False, True, True)),
        (200, 0.8, 1, (False, True, False)),  # strict scans every pair the lonely filter leaves
        (150, 0.85, 3, (False, True, True)),  # strict's witness pair is (49, 134)
        (100, 0.8, 5, (False, True, True)),
        (100, 0.7, 1, (False, True, False)),
        (60, 0.5, 3, (False, False, False)),
        (60, 0.8, 4, (False, True, True)),
    ])
    def test_matches_reference_at_the_sizes_the_deciders_are_for(self, n, p, seed, answers, count):
        # (CC = n, paper, strict) answers, each judged in full against the reference, which
        # has no degree bound, no lonely filter and no triples mask.  Every G(n, p) here
        # connects through a BFS level wide enough that induced_connected ORs it in C.
        g = generate("cycle", [n]) if p is None else gnp_without_full_vertex(n, p, seed)
        walks = count(matrices, "_first_partner")
        got = [check_cc_equals_n(g).as_dict()]
        got += [check_cc_equals_n_minus_1(g, variant).as_dict() for variant in ("paper", "strict")]
        want = [ref_check_cc_equals_n(g)]
        want += [ref_check_cc_equals_n_minus_1(g, variant) for variant in ("paper", "strict")]
        assert got == want
        assert tuple(d["answer"] for d in got) == answers
        if answers == (True, True, False):
            # each check walks all n vertices once; the rest are paper's scan walking again the
            # vertices whose first partner lies in its witness pair, so that path ran
            assert len(walks) > 3 * n

    def test_no_full_row_means_no_pair(self):
        # check_cc_equals_n_minus_1's second docstring fact, "no full row => no pair", judged
        # by the reference alone
        # over every connected class n <= 7 with no full vertex
        no_full_row = [g for g in atlas_classes_without_full_vertex() if ref_full_rows(g) == []]
        assert len(no_full_row) == 201
        for g in no_full_row:
            for variant in ("paper", "strict"):
                assert not ref_check_cc_equals_n_minus_1(g, variant)["answer"]

    def test_first_partner_walk_finds_the_lowest_partner(self):
        # _first_partner's lemma over every connected class n <= 7 with no full vertex: from
        # N(x) minus an excluded set (none, or any pair), the walk returns the lowest vertex
        # sharing a full row with x outside that set, or -1
        walks = 0
        for g in atlas_classes_without_full_vertex():
            nbr = g.nbr_masks
            anti = [g.full_mask ^ m for m in nbr]
            at = ref_full_rows_at(g)
            excluded = [()] + list(itertools.combinations(range(g.n), 2))
            for x in range(g.n):
                partners = {w for edge in at[x] for w in edge if w != x}
                for skip in excluded:
                    cand = nbr[x] & ~sum(1 << w for w in skip)
                    want = min(partners - set(skip), default=-1)
                    assert matrices._first_partner(nbr, anti, cand, anti[x]) == want
                    walks += 1
            # the pass's skip: a vertex on no full row is in no other vertex's list, since the
            # row of pq is the row of qp, though ref_full_rows tests it from p's side only
            lonely = {x for x in range(g.n) if not at[x]}
            assert all(lonely.isdisjoint(edge) for edges in at for edge in edges)
            closed, outside = ref_closed_neighborhoods(g), ref_outside(g)
            assert all((closed[q] >= outside[p]) == (closed[p] >= outside[q]) for p, q in g.edges)
        assert walks == 115432

    def test_large_cycle_and_path_say_no(self):
        # n = 2000: each answer takes milliseconds, so a per-pair slowdown shows as a stall
        for g in (generate("cycle", [2000]), generate("path", [2000])):
            for variant in ("paper", "strict"):
                d = check_cc_equals_n_minus_1(g, variant)
                assert not d.answer
                assert d.reason == "no qualifying vertex pair (u, v)"

    def test_matches_reference_where_the_degree_bound_answers(self):
        # 2D < n: no row is full, and N[u] | N[v] cannot hold every other vertex
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            g = seeded_graph(rng, rng.choice(("tree", "cycle")), rng.randint(7, 16))
            if g is None or 2 * max_degree(g) >= g.n:
                continue
            checked += 1
            for variant in ("paper", "strict"):
                d = check_cc_equals_n_minus_1(g, variant)
                assert d.as_dict() == ref_check_cc_equals_n_minus_1(g, variant)
                assert d.reason == "no qualifying vertex pair (u, v)"

    @pytest.mark.parametrize("g", [generate("cycle", [9]), prism12(), generate("cycle", [6]), cube()],
                             ids=["C9", "prism12", "C6", "cube"])
    def test_degree_bound_refuses_before_any_walk(self, g, monkeypatch):
        # 2D < n: C9 and prism12 lie below the bound 2(D + 1) too, C6 and the cube only below 2D
        def no_walk(*args):
            raise AssertionError("a vertex walked to its partner below the degree bound")

        monkeypatch.setattr(matrices, "_first_partner", no_walk)
        d = check_cc_equals_n(g)
        assert (d.answer, d.reason) == (False, f"vertex 0 has no incident edge whose row sums to {g.n}")
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


@pytest.mark.parametrize("n, full", [(5, (1, 3)), (7, (2, 4, 6))])
def test_precondition_names_the_lowest_of_several_full_vertices(n, full):
    g = Graph(n, [(u, v) for u in full for v in range(n) if v != u])
    assert full_vertex_mask(g) == sum(1 << v for v in full)
    message = rf"requires no full vertex; vertex {full[0]} is full$"
    with pytest.raises(PreconditionError, match=message):
        check_cc_equals_n(g)
    for variant in ("strict", "paper"):
        with pytest.raises(PreconditionError, match=message):
            check_cc_equals_n_minus_1(g, variant)


class TestDegreeBoundEdge:
    """Graphs on the degree bound 2D = n, where the scans must still run, and just past it."""

    @pytest.mark.parametrize("g", [
        generate("cycle", [4]),  # 2D = n
        generate("complete_bipartite", [3, 3]),  # 2D = n
        generate("cycle", [6]),  # 2D < n = 2(D + 1)
        cube(),  # 2D < n = 2(D + 1)
        generate("cycle", [9]),  # 2(D + 1) < n = 3(D + 1)
        prism12(),  # 2(D + 1) < n = 3(D + 1)
    ], ids=["C4", "K3_3", "C6", "cube", "C9", "prism12"])
    def test_matches_both_references(self, g):
        assert check_cc_equals_n(g).as_dict() == ref_check_cc_equals_n(g)
        for variant in ("paper", "strict"):
            assert check_cc_equals_n_minus_1(g, variant).as_dict() == ref_check_cc_equals_n_minus_1(g, variant)

    def test_band_between_the_two_bounds_says_no(self):
        # 2D < n <= 2(D + 1): two closed neighborhoods could hold n vertices, but no edge row can
        band = [g for g in connected_without_full_vertex() if 2 * max_degree(g) < g.n <= 2 * max_degree(g) + 2]
        assert len(band) == 492
        for g in band:
            assert cc_number(g)[0] < g.n - 1
            assert not check_cc_equals_n(g).answer
            for variant in ("paper", "strict"):
                assert not check_cc_equals_n_minus_1(g, variant).answer


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
