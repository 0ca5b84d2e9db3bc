"""Theorem suite runner, reports, replay, corpora, and the scaling report."""

import json
import random

import pytest

from coalitions import (
    Graph,
    GuardExceededError,
    PreconditionError,
    THEOREMS,
    default_corpus,
    emit_graph6,
    generate,
    is_corona_of_k1,
    is_tree,
    replay_counterexample,
    run_theorem_suite,
)
from coalitions.graphs import canonical_form
from coalitions.verify import GraphRecord
from test_acceptance import check_n_scaling, corona_classes, theorem_row, tree_classes


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
    """run_theorem_suite shares outcomes by canonical form; these pin why that is sound."""

    def test_every_check_is_isomorphism_invariant(self):
        rng = random.Random(29)
        for g in default_corpus(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            a = GraphRecord(g)
            b = GraphRecord(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
            for t in THEOREMS.values():
                applies = bool(t.applies(a))
                assert applies == bool(t.applies(b)), (t.id, g)
                if applies:
                    assert t.check(a) == t.check(b), (t.id, g)

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
        # each labeled graph n <= 5 through its own GraphRecord, no canonical form, no sharing
        graphs = list(default_corpus(5))
        assert len(graphs) == 1099
        rows = [{"id": tid, "anchor": t.anchor, "checked": 0, "passed": 0,
                 "counterexamples": [], "report_only": t.report_only}
                for tid, t in THEOREMS.items()]
        for g in graphs:
            rec = GraphRecord(g)
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
    def test_t6_certificates_replay(self, c4):
        report = run_theorem_suite([c4], ["t6"])
        (cex,) = theorem_row(report, "t6")["counterexamples"]
        assert cex["graph6"] == "Cl"
        replayed = replay_counterexample("t6", cex["graph6"])
        assert replayed["applicable"] and replayed["ok"] is False
        assert replayed["detail"] == cex["detail"]

    def test_replay_reports_inapplicable_instances(self):
        assert replay_counterexample("t3", "Cl") == {
            "applicable": False, "ok": None, "detail": None,
        }

    def test_replay_of_a_passing_graph_reports_ok(self):
        out = replay_counterexample("t5", "Cl")  # C_4: decider and oracle agree
        assert out["applicable"] and out["ok"] is True


class TestCorpora:
    def test_default_corpus_counts(self):
        assert sum(1 for _ in default_corpus(4)) == 75
        assert sum(1 for _ in default_corpus(4, connected_only=True)) == 44

    def test_tree_corpus_counts_and_contents(self):
        trees = tree_classes(5)
        assert sorted(t.n for t in trees) == [1, 2, 3, 4, 4, 5, 5, 5]  # OEIS A000055
        assert len({canonical_form(t) for t in trees}) == 8
        assert all(is_tree(t) for t in trees)

    def test_corona_corpus(self):
        graphs = corona_classes(3)
        assert len(graphs) == 4  # one per connected host class with n <= 3
        assert all(is_corona_of_k1(g) for g in graphs)
        assert sorted(g.n for g in graphs) == [2, 4, 6, 6]
        assert len({canonical_form(g) for g in graphs}) == 4


class TestGraphRecord:
    def test_values_are_cached(self, c5):
        rec = GraphRecord(c5)
        assert rec.cc_pair is rec.cc_pair
        assert rec.cc == 3
        assert rec.decision_strict is rec.decision_strict
        assert rec.decision_paper is not rec.decision_strict

    def test_raw_search_field(self, two_k2):
        rec = GraphRecord(two_k2)
        assert rec.cc_raw_pair == (0, None)


class TestScalingBenchmark:
    def test_smoke(self):
        out = check_n_scaling(sizes=(16, 32, 64), repeats=1)
        assert [p["n"] for p in out["points"]] == [16, 32, 64]
        assert all(p["seconds"] > 0 for p in out["points"])
        assert isinstance(out["log_log_slope"], float)
        assert out["max_degree"] == 4
        assert isinstance(out["consistent_with_max_degree"], bool)
