"""Theorem suite runner, reports, replay, t2's construction, corpora, and the scaling report."""

import json
import random
from functools import cached_property

import pytest

from coalitions import (
    CoalitionExpansionError,
    Graph,
    GuardExceededError,
    PARTITION_GUARD_DEFAULT,
    PreconditionError,
    THEOREMS,
    default_corpus,
    emit_graph6,
    enumerate_labeled_graphs,
    generate,
    is_corona_of_k1,
    is_tree,
    parse_graph6,
    run_theorem_suite,
)
from coalitions import graphs as graphs_module, verify
from coalitions.graphs import first_leaf
from coalitions.verify import GraphRecord
from conftest import atlas, relabel
from reference import ref_canonical_key, ref_connected_without_full_vertex
from test_acceptance import check_n_scaling, corona_classes, theorem_row, tree_classes


# two labelings of C3 + C4: one isomorphism class, two different first-leaf keys
SPLIT_C3_C4 = ("FOTT?", "FGeR?")


def strip_millis(report):
    return {
        "corpus": report.corpus,
        "theorems": [{k: v for k, v in t.items() if k != "millis"} for t in report.theorems],
    }


class TestRegistry:
    def test_ten_theorems_with_stable_anchors(self):
        assert list(THEOREMS) == [f"t{i}" for i in range(1, 11)]
        anchors = {t.anchor for t in THEOREMS.values()}
        assert "cc_zero_iff_family_f" in anchors
        assert "check_n_iff_oracle" in anchors
        assert THEOREMS["t6"].report_only
        assert sum(t.report_only for t in THEOREMS.values()) == 1

    def test_the_no_full_vertex_setting_needs_no_order_floor(self):
        # t2 and t4-t6 apply to connected graphs with no full vertex and state no order, since
        # every connected graph on at most three vertices has a full vertex; judged by reference
        counts = [sum(map(ref_connected_without_full_vertex, enumerate_labeled_graphs(n)))
                  for n in range(1, 5)]
        assert counts == [0, 0, 0, 15]


@pytest.fixture(scope="module")
def n4_report():
    return run_theorem_suite(default_corpus(4), corpus_label="labeled graphs n <= 4")


class TestSuiteRuns:
    def test_frozen_counts_at_n4(self, n4_report):
        got = {t["id"]: (t["checked"], t["passed"]) for t in n4_report.theorems}
        assert got == {
            "t1": (75, 75),
            "t2": (15, 15),
            "t3": (12, 12),
            "t4": (12, 12),
            "t5": (15, 15),
            "t6": (15, 0),  # the plain pair rule misfires on every applicable n=4 graph
            "t7": (13, 13),
            "t8": (0, 0),
            "t9": (31, 31),
            "t10": (19, 19),
        }

    def test_bookkeeping_identity(self, n4_report):
        for t in n4_report.theorems:
            assert t["passed"] + len(t["counterexamples"]) == t["checked"]

    def test_the_order_0_graph_is_checked_by_no_theorem(self):
        # cc_number and in_family_f refuse n = 0: no applies lets the record compute them
        report = run_theorem_suite([Graph(0, [])])
        rows = [(t["id"], t["checked"], t["passed"], t["counterexamples"]) for t in report.theorems]
        assert rows == [(tid, 0, 0, []) for tid in THEOREMS]

    def test_report_only_divergence_does_not_fail_the_suite(self, n4_report):
        assert theorem_row(n4_report, "t6")["counterexamples"]
        assert n4_report.failing() == []

    def test_schema_and_json_round_trip(self, n4_report):
        data = json.loads(n4_report.to_json())
        assert set(data) == {"corpus", "theorems"}
        for t in data["theorems"]:
            assert set(t) == {
                "id", "anchor", "checked", "passed", "counterexamples", "millis", "report_only",
            }
            for cex in t["counterexamples"]:
                assert set(cex) == {"graph6", "detail"}

    def test_determinism_modulo_timing(self, n4_report):
        again = run_theorem_suite(default_corpus(4), corpus_label="labeled graphs n <= 4")
        assert strip_millis(n4_report) == strip_millis(again)

    def test_summary_text_shape(self, n4_report):
        text = n4_report.summary_text()
        lines = text.splitlines()
        assert lines[0] == "corpus: labeled graphs n <= 4"
        assert len(lines) == 12  # header plus ten theorem rows
        assert "(report only)" in text

    def test_subset_selection_keeps_request_order(self):
        report = run_theorem_suite(default_corpus(3), ["t5", "t1", "t5"])
        assert [t["id"] for t in report.theorems] == ["t5", "t1"]

    def test_unknown_theorem_id(self):
        with pytest.raises(PreconditionError, match=r"unknown theorem id 'ends'"):
            run_theorem_suite(default_corpus(3), ["ends"])

    def test_guard_on_oversized_corpus_graph(self):
        with pytest.raises(GuardExceededError, match=r"exceeds the oracle guard"):
            run_theorem_suite([generate("complete", [13])], ["t10"])


class TestIsomorphismClassSharing:
    """run_theorem_suite shares outcomes by first-leaf key; these pin why that is sound."""

    def test_every_check_is_isomorphism_invariant(self):
        rng = random.Random(29)
        for g in default_corpus(5):
            a = GraphRecord(g, PARTITION_GUARD_DEFAULT)
            b = GraphRecord(relabel(g, rng), PARTITION_GUARD_DEFAULT)
            for tid, t in THEOREMS.items():
                applies = bool(t.applies(a))
                assert applies == bool(t.applies(b)), (tid, g)
                if applies:
                    assert t.check(a) == t.check(b), (tid, g)

    def test_suite_equals_merge_of_one_graph_runs(self):
        singles = [strip_millis(run_theorem_suite([g]))["theorems"] for g in default_corpus(5)]
        merged = []
        for rows in zip(*singles):
            merged.append({
                **rows[0],
                "checked": sum(r["checked"] for r in rows),
                "passed": sum(r["passed"] for r in rows),
                "counterexamples": [ce for r in rows for ce in r["counterexamples"]],
            })
        assert any(t["counterexamples"] for t in merged)
        assert strip_millis(run_theorem_suite(default_corpus(5)))["theorems"] == merged

    def test_suite_equals_a_graph_by_graph_run(self):
        # each labeled graph n <= 5 through its own GraphRecord, no key, no sharing;
        # then two labelings of C3 + C4 whose first-leaf keys differ, one class reached by two keys
        graphs = list(default_corpus(5)) + [parse_graph6(g6) for g6 in SPLIT_C3_C4]
        assert len(graphs) == 1101
        rows = [{"id": tid, "anchor": t.anchor, "checked": 0, "passed": 0,
                 "counterexamples": [], "report_only": t.report_only}
                for tid, t in THEOREMS.items()]
        for g in graphs:
            rec = GraphRecord(g, PARTITION_GUARD_DEFAULT)
            for row, t in zip(rows, THEOREMS.values()):
                if not t.applies(rec):
                    continue
                ok, detail = t.check(rec)
                row["checked"] += 1
                if ok:
                    row["passed"] += 1
                else:
                    row["counterexamples"].append({"graph6": emit_graph6(g), "detail": detail})
        assert any(row["counterexamples"] for row in rows)
        report = run_theorem_suite(graphs, corpus_label="n <= 5")
        assert strip_millis(report) == {"corpus": "n <= 5", "theorems": rows}


class TestReplay:
    # a certificate replays when the suite, run on its graph6 string alone, fails the same way
    @staticmethod
    def replay(theorem_id, graph6):
        return theorem_row(run_theorem_suite([parse_graph6(graph6)], [theorem_id]), theorem_id)

    def test_t6_certificates_replay(self, c4):
        report = run_theorem_suite([c4], ["t6"])
        (cex,) = theorem_row(report, "t6")["counterexamples"]
        assert cex["graph6"] == "Cl"
        replayed = self.replay("t6", cex["graph6"])
        assert (replayed["checked"], replayed["passed"]) == (1, 0)
        assert replayed["counterexamples"] == [cex]

    def test_replay_reports_inapplicable_instances(self):
        replayed = self.replay("t3", "Cl")  # C_4 is no tree
        assert (replayed["checked"], replayed["passed"], replayed["counterexamples"]) == (0, 0, [])

    def test_replay_of_a_passing_graph_reports_ok(self):
        replayed = self.replay("t5", "Cl")  # C_4: decider and oracle agree
        assert (replayed["checked"], replayed["passed"], replayed["counterexamples"]) == (1, 1, [])


class TestT2Construction:
    """t2 expands d_c's witness into a coalition partition and compares its size with CC."""

    def test_an_expansion_error_fails_t2_with_its_message(self, monkeypatch):
        def refuse(g, parts):
            raise CoalitionExpansionError("forged refusal")

        monkeypatch.setattr(verify, "expand_domatic_to_cc_partition", refuse)
        report = run_theorem_suite(default_corpus(4))
        assert report.failing() == ["t2"]
        row = theorem_row(report, "t2")
        assert (row["checked"], row["passed"], len(row["counterexamples"])) == (15, 0, 15)
        for cex in row["counterexamples"]:
            assert set(cex["detail"]) == {"cc", "d_c", "expansion_error"}
            assert cex["detail"]["expansion_error"] == "forged refusal"

    def test_an_expansion_past_cc_fails_t2_with_the_counts(self, monkeypatch):
        # CC <= n, so n + 1 parts are more than CC on every graph
        monkeypatch.setattr(verify, "expand_domatic_to_cc_partition", lambda g, parts: [set()] * (g.n + 1))
        report = run_theorem_suite(default_corpus(4))
        assert report.failing() == ["t2"]
        row = theorem_row(report, "t2")
        assert (row["checked"], row["passed"], len(row["counterexamples"])) == (15, 0, 15)
        for cex in row["counterexamples"]:
            g = parse_graph6(cex["graph6"])
            assert cex["detail"]["expansion_parts"] == g.n + 1 > cex["detail"]["cc"]
            assert set(cex["detail"]) == {"cc", "d_c", "expansion_parts"}

    def test_the_construction_holds_on_every_class_of_order_7(self, count):
        # networkx's atlas holds one graph per class; 697 of the 1,044 classes n = 7 are
        # connected with no full vertex, and each is expanded once
        calls = count(verify, "expand_domatic_to_cc_partition")
        report = run_theorem_suite([g for g in atlas() if g.n == 7], ["t2"])
        row = theorem_row(report, "t2")
        assert (row["checked"], row["passed"], row["counterexamples"]) == (697, 697, [])
        assert len(calls) == 697


class TestCorpora:
    def test_default_corpus_counts(self):
        assert sum(1 for _ in default_corpus(4)) == 75
        assert sum(1 for _ in default_corpus(4, connected_only=True)) == 44

    def test_default_corpus_refuses_an_order_above_the_guard_at_the_call(self):
        with pytest.raises(GuardExceededError, match=r"^labeled enumeration supports 1 <= n <= 7, got 8$"):
            default_corpus(8)
        assert list(default_corpus(0)) == []

    def test_tree_corpus_counts_and_contents(self):
        trees = tree_classes(5)
        assert sorted(t.n for t in trees) == [1, 2, 3, 4, 4, 5, 5, 5]  # OEIS A000055
        assert len({ref_canonical_key(t) for t in trees}) == 8
        assert all(is_tree(t) for t in trees)

    def test_corona_corpus(self):
        graphs = corona_classes(3)
        assert len(graphs) == 4  # one per connected host class with n <= 3
        assert all(is_corona_of_k1(g) for g in graphs)
        assert sorted(g.n for g in graphs) == [2, 4, 6, 6]
        assert len({ref_canonical_key(g) for g in graphs}) == 4


class TestGraphRecord:
    def test_caches_only_the_shared_values(self):
        cached = [name for name, v in vars(GraphRecord).items() if isinstance(v, cached_property)]
        assert cached == ["connected", "fulls", "cc", "family"]

    def test_values_are_cached(self, c5, count):
        calls = count(verify, "cc_number")
        rec = GraphRecord(c5, 7)
        assert (rec.cc, rec.cc) == (3, 3)
        assert calls == [(c5, 7)]
        assert rec.family is rec.family
        assert rec.family[0] is False
        assert (rec.connected, rec.fulls) == (True, 0)

    def test_raw_search_field(self, two_k2):
        # t9 runs the raw search itself and reports its value in the detail
        rec = GraphRecord(two_k2, PARTITION_GUARD_DEFAULT)
        assert THEOREMS["t9"].check(rec) == (True, {"cc": 0, "cc_raw_search": 0})


class TestKernelCalls:
    def test_one_call_per_class_and_kernel_at_n5(self, count):
        # the 52 first-leaf keys n <= 5, one per class, 31 of them connected; counted through
        # verify's module attributes, the names the checks resolve at call time
        calls = {name: count(verify, name)
                 for name in ("cc_number", "cc_partition_search", "connected_domatic_number",
                              "in_family_f", "check_cc_equals_n", "check_cc_equals_n_minus_1",
                              "is_tree", "is_corona_of_k1", "is_connected", "full_vertex_mask")}
        run_theorem_suite(default_corpus(5))
        assert {name: len(log) for name, log in calls.items()} == {
            "cc_number": 52, "in_family_f": 52, "is_connected": 52, "is_tree": 52,
            "is_corona_of_k1": 52, "full_vertex_mask": 31, "cc_partition_search": 21,
            "connected_domatic_number": 12, "check_cc_equals_n": 12, "check_cc_equals_n_minus_1": 24,
        }
        # a class reached through two first-leaf keys is checked once per key, with one outcome
        a, b = map(parse_graph6, SPLIT_C3_C4)
        assert first_leaf(a) != first_leaf(b) and ref_canonical_key(a) == ref_canonical_key(b)
        calls["cc_number"].clear()
        rows = {t["id"]: t for t in run_theorem_suite([a, b]).theorems}
        assert len(calls["cc_number"]) == 2
        for tid in ("t1", "t9"):
            assert (rows[tid]["checked"], rows[tid]["passed"]) == (2, 2)

    def test_one_oracle_call_per_first_leaf_key_at_n6(self, count):
        # the 33,867 labeled graphs n <= 6 have 208 first-leaf keys, one per class; t1 applies
        # to every graph and reads CC
        calls = count(verify, "cc_number")
        run_theorem_suite(default_corpus(6), ["t1"])
        assert len(calls) == 208

    def test_one_descent_per_new_degree_key_at_n6(self, count):
        # the 33,867 labeled graphs n <= 6 have 1,043 degree keys; only a new one is descended,
        # and the descents still reach the 208 first-leaf keys
        descents, oracle_calls = count(verify, "first_leaf"), count(verify, "cc_number")
        run_theorem_suite(default_corpus(6))
        assert (len(descents), len(oracle_calls)) == (1043, 208)

    def test_the_degree_key_memo_changes_no_report(self, count, monkeypatch):
        # a degree key no two graphs share sends every graph through first_leaf
        normal = strip_millis(run_theorem_suite(default_corpus(5)))
        monkeypatch.setattr(verify, "degree_key", lambda g: (g.n, g.nbr_masks))
        descents = count(verify, "first_leaf")
        assert strip_millis(run_theorem_suite(default_corpus(5))) == normal
        assert len(descents) == 1 + 2 + 8 + 64 + 1024

    def test_a_new_first_leaf_is_descended_once(self, count):
        # an isomorph-free corpus (networkx's atlas, 1,252 graphs n = 1..7) misses on every graph:
        # the suite must refine exactly as often as first_leaf does graph by graph
        calls = count(graphs_module, "_refine")
        for g in atlas():
            first_leaf(g)
        alone = len(calls)
        calls.clear()
        run_theorem_suite(atlas(), ["t10"])
        assert len(calls) == alone == 3396


class TestScalingBenchmark:
    def test_smoke(self):
        out = check_n_scaling(sizes=(16, 32, 64), repeats=1)
        assert [p["n"] for p in out["points"]] == [16, 32, 64]
        assert all(p["seconds"] > 0 for p in out["points"])
        assert isinstance(out["log_log_slope"], float)
        assert out["max_degree"] == 4
        assert isinstance(out["consistent_with_max_degree"], bool)
