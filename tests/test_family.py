"""Peel-family membership, trace replay, and equivalence with CC = 0."""

import random
import time

import pytest

from coalitions import (
    Graph,
    PreconditionError,
    cc_number,
    enumerate_labeled_graphs,
    generate,
    in_family_f,
    parse_graph6,
    replay_peel_trace,
)
from coalitions.family import (
    TERMINAL_DISCONNECTED,
    TERMINAL_K1,
    TERMINAL_NO_FULL,
    PeelTrace,
)
from conftest import cone
from reference import ref_peel


class TestVerdictsAndTerminals:
    def test_p3_is_a_member(self):
        member, trace = in_family_f(generate("path", [3]))
        assert member
        assert trace.terminal == TERMINAL_DISCONNECTED
        assert trace.steps == ((1, 2),)

    def test_star_and_friendship_are_members(self):
        for g in (generate("star", [5]), generate("friendship", [2]), generate("friendship", [3])):
            member, trace = in_family_f(g)
            assert member
            assert trace.steps[0][0] == 0  # the hub peels first

    def test_connected_without_fulls_is_not_a_member(self, c4, p6):
        for g in (c4, p6, generate("complete_bipartite", [2, 3])):
            member, trace = in_family_f(g)
            assert not member
            assert trace.terminal == TERMINAL_NO_FULL
            assert trace.steps == ()

    def test_complete_graphs_peel_to_k1(self):
        member, trace = in_family_f(generate("complete", [3]))
        assert not member
        assert trace.terminal == TERMINAL_K1
        assert trace.steps == ((0, 2), (1, 1))
        assert not in_family_f(Graph(1, []))[0]

    def test_disconnected_input_is_a_member_immediately(self, two_k2):
        member, trace = in_family_f(two_k2)
        assert member and trace.steps == ()

    def test_wheel_is_not_a_member(self, c4):
        # peeling the hub leaves C_4: connected, no fulls
        wheel = cone(c4)
        member, trace = in_family_f(wheel)
        assert not member
        assert trace.terminal == TERMINAL_NO_FULL
        assert trace.steps == ((0, 4),)

    def test_cone_over_disconnected_is_a_member(self, two_k2):
        member, _ = in_family_f(cone(two_k2))
        assert member

    def test_rejects_empty_graph(self):
        with pytest.raises(PreconditionError):
            in_family_f(Graph(0, []))


class TestPeelChoiceIrrelevance:
    """The lowest-id peel matches the reference peel exactly; other picks keep the verdict."""

    def test_min_and_max_picks_agree_exhaustively(self):
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                member, trace = in_family_f(g)
                assert (member, trace.steps, trace.terminal) == ref_peel(g, min)
                assert member == ref_peel(g, max)[0]

    def test_random_picks_agree(self):
        rng = random.Random(8)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for _ in range(200):
            g = Graph(6, [e for e in pairs if rng.random() < 0.5])
            member, trace = in_family_f(g)
            assert (member, trace.steps, trace.terminal) == ref_peel(g, min)
            assert member == ref_peel(g, rng.choice)[0]


class TestEquivalenceWithTheOracle:
    def test_member_iff_cc_zero(self):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                assert in_family_f(g)[0] == (cc_number(g)[0] == 0)


class TestReplay:
    def test_honest_traces_replay(self):
        for maker in (
            lambda: generate("path", [3]),
            lambda: generate("star", [4]),
            lambda: generate("complete", [4]),
            lambda: generate("cycle", [5]),
            lambda: generate("friendship", [2]),
            lambda: Graph(4, [(0, 1), (2, 3)]),
        ):
            g = maker()
            _, trace = in_family_f(g)
            assert replay_peel_trace(g, trace)

    def test_tampered_vertex_fails(self):
        g = generate("star", [4])
        _, trace = in_family_f(g)
        forged = PeelTrace(((1, trace.steps[0][1]),), trace.terminal)  # a leaf, not the hub
        assert not replay_peel_trace(g, forged)

    def test_vertex_that_is_no_int_fails(self):
        # P_3 (graph6 Bg) peels its centre 1; 1.0 and True equal 1 but are no vertex ids
        g = generate("path", [3])
        for v in (1.0, True):
            assert not replay_peel_trace(g, PeelTrace(((v, 2),), TERMINAL_DISCONNECTED))

    def test_count_that_is_no_int_fails(self):
        # K_2 (A_) peels 0 leaving 1 vertex, P_3 (Bg) peels 1 leaving 2; True and 1.0 equal 1
        k2, p3 = parse_graph6("A_"), parse_graph6("Bg")
        for count in (True, 1.0):
            assert not replay_peel_trace(k2, PeelTrace(((0, count),), TERMINAL_K1))
        assert not replay_peel_trace(p3, PeelTrace(((1, 2.0),), TERMINAL_DISCONNECTED))

    def test_malformed_steps_fail(self):
        p3 = parse_graph6("Bg")
        for steps in (((1,),), ((1, 2, 3),), None, 5, ({1, 2},)):
            assert not replay_peel_trace(p3, PeelTrace(steps, TERMINAL_DISCONNECTED))

    def test_list_steps_replay(self):
        # a trace rebuilt from `family-f --json` holds lists
        p3 = parse_graph6("Bg")
        assert replay_peel_trace(p3, PeelTrace([[1, 2]], TERMINAL_DISCONNECTED))

    def test_wrong_remaining_order_fails(self):
        g = generate("path", [3])
        forged = PeelTrace(((1, 5),), TERMINAL_DISCONNECTED)
        assert not replay_peel_trace(g, forged)

    def test_wrong_terminal_fails(self):
        g = generate("path", [3])
        _, trace = in_family_f(g)
        forged = PeelTrace(trace.steps, TERMINAL_K1)
        assert not replay_peel_trace(g, forged)

    def test_stopping_early_fails(self):
        # K_3 still has a full vertex after zero peels, so an empty trace lies
        forged = PeelTrace((), TERMINAL_NO_FULL)
        assert not replay_peel_trace(generate("complete", [3]), forged)

    def test_traces_replay_across_small_graphs(self):
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                _, trace = in_family_f(g)
                assert replay_peel_trace(g, trace)

    def test_reference_traces_replay_in_any_order(self):
        # the replay accepts every peel order, not only the lowest-first one in_family_f writes
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                for pick in (min, max):
                    _, steps, terminal = ref_peel(g, pick)
                    assert replay_peel_trace(g, PeelTrace(steps, terminal))


def dense_graph(n, gap):
    """K_n with the edges among its last gap vertices removed, built from neighbour masks."""
    everyone = (1 << n) - 1
    low = everyone ^ ((1 << gap) - 1) << (n - gap)
    return Graph.from_neighbor_masks(n, [everyone ^ (1 << v) if v < n - gap else low for v in range(n)])


class TestLargePeels:
    """The peel reads the full vertices once, so n = 2000 takes milliseconds."""

    @pytest.mark.parametrize(
        "gap, member, steps, terminal",
        [(0, False, 1999, TERMINAL_K1), (2, True, 1998, TERMINAL_DISCONNECTED)],
        ids=["K2000", "K1998_join_2K1"],
    )
    def test_n_2000(self, gap, member, steps, terminal):
        g = dense_graph(2000, gap)
        start = time.perf_counter()
        got, trace = in_family_f(g)
        decided = time.perf_counter()
        assert replay_peel_trace(g, trace)
        replayed = time.perf_counter()
        assert (got, len(trace.steps), trace.terminal) == (member, steps, terminal)
        assert trace.steps[:2] == ((0, 1999), (1, 1998)) and trace.steps[-1] == (steps - 1, 2000 - steps)
        assert decided - start < 0.25 and replayed - decided < 0.25
