"""Exact CC oracle: frozen values, witness identity, expansion, coalition graphs.

cc_number is compared against the unpruned reference witness-for-witness:
the pruned search must visit partitions in the same restricted-growth order,
so equal answers with different witnesses would mean a prune changed the
semantics, not just the speed.  The raw search is compared the same way,
disconnected graphs included, since cc_number never runs it on them.
"""

import hashlib
import json
import random

import pytest
from reference import iter_partitions, ref_cc, ref_valid_cc_partition

from coalitions import (
    Graph,
    GuardExceededError,
    PreconditionError,
    cc_number,
    cc_partition_search,
    coalition_graph,
    connected_domatic_number,
    corona,
    emit_graph6,
    enumerate_labeled_graphs,
    expand_domatic_to_cc_partition,
    generate,
    is_cc_partition,
)
from coalitions.graphs import full_vertex_mask
from conftest import domatic_sweep, small_connected


def parts(*sets):
    return [frozenset(s) for s in sets]


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
        # n = 12 took seconds each before the partner-feasibility prune
        (lambda: generate("path", [12]), 2),
        (lambda: generate("cycle", [12]), 3),
        (lambda: corona(generate("path", [6]), Graph(1, [])), 2),
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
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for _ in range(120):
            g = Graph(6, [e for e in pairs if rng.random() < 0.5])
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

    def test_outputs_pinned_over_n6_and_seeded_n7_to_n10(self):
        # Digests of cc_partition_search's (value, witness) over all 32,768
        # labeled graphs with n = 6, and over 120 seeded graphs n = 7-10 with
        # 0-2 full vertices, taken before the search's partner tests were
        # merged into one.
        def rows(graphs):
            out = []
            for g in graphs:
                cc, witness = cc_partition_search(g)
                out.append([cc, None if witness is None else [sorted(p) for p in witness]])
            return hashlib.sha256(json.dumps(out).encode()).hexdigest()

        def seeded():
            rng = random.Random(710)
            for i in range(120):
                n = 7 + i % 4
                p = rng.choice((0.3, 0.5, 0.7))
                full = set(rng.sample(range(n), i % 3))
                yield Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if a in full or b in full or rng.random() < p])

        assert rows(enumerate_labeled_graphs(6)) == (
            "67191c67adcc00c008b0e6df1743a11689833bca851177c9166abbc12b7fd421")
        assert rows(seeded()) == "e2467fc379437b167493452a49275e9fdb440625f907d139077f2f9a26a840a5"

    def test_witnesses_validate(self):
        for g in small_connected(5):
            cc, witness = cc_number(g)
            if cc == 0:
                assert witness is None
                continue
            assert len(witness) == cc
            valid, _ = is_cc_partition(g, witness)
            assert valid


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

    @pytest.mark.parametrize(
        "call, message",
        [
            (cc_partition_search, "cc search needs a graph of order >= 1"),
            (lambda g: is_cc_partition(g, []), "partitions are only defined for graphs of order >= 1"),
            (connected_domatic_number, "connected_domatic_number needs a graph of order >= 1"),
        ],
        ids=["cc_partition_search", "is_cc_partition", "connected_domatic_number"],
    )
    def test_order_zero_is_refused(self, call, message):
        # cc_number and the CLI refuse n = 0 before reaching these, so only a direct call runs them
        with pytest.raises(PreconditionError, match=message):
            call(Graph(0, []))


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

    def test_partition_must_cover_exactly(self, c4):
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, {1, 2, 3}))  # overlap
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, {2}))  # vertex 3 missing
        with pytest.raises(PreconditionError):
            is_cc_partition(c4, parts({0, 1}, set(), {2, 3}))  # empty part


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
        with pytest.raises(PreconditionError, match=r"order > 1"):
            expand_domatic_to_cc_partition(Graph(1, []), parts({0}))
        with pytest.raises(PreconditionError, match=r"connected"):
            expand_domatic_to_cc_partition(two_k2, parts({0, 1}, {2, 3}))
        with pytest.raises(PreconditionError, match=r"\[1\] are full"):
            expand_domatic_to_cc_partition(generate("path", [3]), parts({0, 1, 2}))
        with pytest.raises(PreconditionError, match=r"part 1 .* not a connected dominating set"):
            expand_domatic_to_cc_partition(c4, parts({0, 1}, {2}, {3}))


class TestCoalitionGraph:
    def test_c4_singletons_reproduce_the_cycle(self, c4):
        cg = coalition_graph(c4, parts({0}, {1}, {2}, {3}))
        assert cg.n == 4
        assert cg.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_full_singletons_stay_isolated(self):
        k3 = generate("complete", [3])
        cg = coalition_graph(k3, parts({0}, {1}, {2}))
        assert cg.m == 0

    def test_two_part_coalition(self, p6):
        cg = coalition_graph(p6, parts({0, 1, 2, 3, 5}, {4}))
        assert cg.edges == ((0, 1),)

    def test_rejects_invalid_partitions(self, c4):
        with pytest.raises(PreconditionError, match=r"not a valid coalition partition"):
            coalition_graph(c4, parts({0, 1, 2}, {3}))


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
