"""Acceptance gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` prints a pass/fail line per criterion.
The corpus reports are module scoped because several criteria read different
rows of the same run; whichever criterion pytest reaches first pays the
build cost, so the per-test timings are attribution-fuzzy but the totals
are honest.
"""

import hashlib
import io
import json
import math
import random
import time

import networkx as nx
import pytest

from coalitions import (
    Graph,
    cc_number,
    check_cc_equals_n,
    check_cc_equals_n_minus_1,
    cli,
    connected_domatic_number,
    default_corpus,
    emit_graph6,
    gamma_c,
    generate,
    in_family_f,
    is_cc_partition,
    is_connected,
    parse_graph6,
    run_theorem_suite,
)
from coalitions.domination import mask_is_cds, mask_is_dominating
from coalitions.graphs import full_vertex_mask
from conftest import atlas, corona, domatic_sweep, from_networkx
from reference import (
    gnp_edges,
    ref_is_connected_subset,
    ref_peel,
    ref_replay_peel,
    ref_valid_cc_partition,
)

# sha256 of json.dumps(theorem rows without millis, sort_keys=True) for the
# n <= 6 report, taken when every labeled graph still ran every check itself
FULL_SUITE_SHA256 = "3a104060d744c9c73519e36d6c5cddec184296efea2e265069071d1c5b172aad"

C6_MATRIX_BYTES = (
    "6 6\n"
    "1 1 1 0 0 1\n"
    "1 1 0 0 1 1\n"
    "1 1 1 1 0 0\n"
    "0 1 1 1 1 0\n"
    "0 0 1 1 1 1\n"
    "1 0 0 1 1 1\n"
)


def theorem_row(report, theorem_id):
    """The report entry of one theorem."""
    (row,) = [t for t in report.theorems if t["id"] == theorem_id]
    return row


@pytest.fixture(scope="module")
def full_suite():
    start = time.perf_counter()
    report = run_theorem_suite(default_corpus(6), corpus_label="labeled graphs n <= 6")
    return report, time.perf_counter() - start


def tree_classes(n_max):
    """One tree per isomorphism class of order 1..n_max, from networkx's own
    generator, which shares no code with the first-leaf key that
    run_theorem_suite groups by."""
    return [from_networkx(t) for n in range(1, n_max + 1) for t in nx.nonisomorphic_trees(n)]


def count_classes(graphs):
    """The number of isomorphism classes among graphs, judged by networkx alone:
    nx.is_isomorphic within each Weisfeiler-Lehman hash bucket.  The hash
    starts from the degrees, passed as a node attribute."""
    buckets = {}
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from((v, {"degree": g.degree(v)}) for v in range(g.n))
        h.add_edges_from(g.edges)
        reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h, node_attr="degree"), [])
        if not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
    return sum(map(len, buckets.values()))


def corona_classes(h_order_max):
    """H corona K_1 for one H per class of connected graphs of order 1..h_order_max."""
    return [corona(h) for h in atlas() if h.n <= h_order_max and ref_is_connected_subset(h, range(h.n))]


@pytest.fixture(scope="module")
def tree_suite():
    trees = tree_classes(12)
    return trees, run_theorem_suite(trees, ["t3"], corpus_label="tree classes n <= 12")


@pytest.fixture(scope="module")
def corona_suite():
    coronas = corona_classes(6)
    return coronas, run_theorem_suite(
        coronas, ["t7"], corpus_label="H corona K_1, connected H classes, |H| <= 6"
    )


def random_graph(rng, n_min, n_max):
    n = rng.randint(n_min, n_max)
    return Graph(n, gnp_edges(rng, n, rng.random()))


def test_criterion_01_exact_values_each_under_a_second(house):
    cases = [
        ("K_1", generate("complete", [1]), 1),
        ("K_5", generate("complete", [5]), 5),
        ("K_{2,3}", generate("complete_bipartite", [2, 3]), 5),
        ("P_6", generate("path", [6]), 2),
        ("P_3", generate("path", [3]), 0),
        ("C_4", generate("cycle", [4]), 4),
        ("C_5", generate("cycle", [5]), 3),
        ("C_6", generate("cycle", [6]), 3),
        ("house", house, 4),
        ("F_2", generate("friendship", [2]), 0),
    ]
    for name, g, expected in cases:
        start = time.perf_counter()
        value = cc_number(g)[0]
        elapsed = time.perf_counter() - start
        assert value == expected, f"CC({name}) = {value}, expected {expected}"
        assert elapsed < 1.0, f"CC({name}) took {elapsed:.3f}s"


def test_criterion_02_cycle6_matrix_golden_bytes(capsys, monkeypatch):
    assert cli.main(["gen", "cycle", "6"]) == 0
    encoded = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(encoded))
    assert cli.main(["dump-matrix", "-"]) == 0
    out = capsys.readouterr().out
    assert out == C6_MATRIX_BYTES
    assert out.splitlines()[1] == "1 1 1 0 0 1"


def test_criterion_03_family_characterization_exhaustive(full_suite):
    report, elapsed = full_suite
    row = theorem_row(report, "t1")
    assert row["checked"] == 33867  # every labeled graph on 1..6 vertices
    assert row["counterexamples"] == []
    assert elapsed <= 300.0
    rows = [{k: v for k, v in t.items() if k != "millis"} for t in report.theorems]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == FULL_SUITE_SHA256


def test_criterion_04_cc_equals_n_decider_matches_oracle(full_suite):
    row = theorem_row(full_suite[0], "t5")
    assert row["checked"] == 21872  # connected, no full vertex, n >= 2
    assert row["counterexamples"] == []


def test_criterion_05_bound_theorems_trees_and_coronas(full_suite, tree_suite, corona_suite):
    report = full_suite[0]
    for tid, expected_checked in [("t2", 21872), ("t4", 13482), ("t8", 3132),
                                  ("t9", 6391), ("t10", 25010)]:
        row = theorem_row(report, tid)
        assert row["checked"] == expected_checked
        assert row["counterexamples"] == [], f"{tid} found counterexamples"
    trees, report = tree_suite
    assert [sum(g.n == n for g in trees) for n in range(1, 13)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # OEIS A000055
    assert count_classes(trees) == 987
    t3 = theorem_row(report, "t3")
    assert t3["checked"] == 975  # every class but the twelve stars K_{1,n-1}
    assert t3["counterexamples"] == []
    coronas, report = corona_suite
    assert [sum(g.n == 2 * h for g in coronas) for h in range(1, 7)] == [
        1, 1, 2, 6, 21, 112]  # OEIS A001349
    assert count_classes(coronas) == 143
    t7 = theorem_row(report, "t7")
    assert t7["checked"] == 143
    assert t7["counterexamples"] == []  # the check is literally cc == 2


def test_criterion_06_cc_equals_n_minus_1_report_and_certificates(full_suite):
    row = theorem_row(full_suite[0], "t6")
    assert row["report_only"]
    assert row["checked"] == 21872
    # the guarded variant must never say yes when the oracle says no
    violations = [ce for ce in row["counterexamples"]
                  if ce["detail"]["strict_violation"]]
    assert violations == []
    rate = row["passed"] / row["checked"]
    print(f"\nstated-rule agreement with the oracle: "
          f"{row['passed']}/{row['checked']} = {rate:.4f}")
    # every divergence certificate must replay from its graph6 string alone
    for ce in row["counterexamples"]:
        replayed = theorem_row(run_theorem_suite([parse_graph6(ce["graph6"])], ["t6"]), "t6")
        assert (replayed["checked"], replayed["passed"]) == (1, 0)
        assert replayed["counterexamples"] == [ce]
    # README's split of the paper rule's wrong answers: each is a false yes,
    # either on a graph with CC = n or with a witness pair that is already a CDS
    cc_n = pair_is_cds = 0
    for ce in row["counterexamples"]:
        detail = ce["detail"]
        assert detail["paper_answer"] and not detail["strict_answer"]
        g = parse_graph6(ce["graph6"])
        if detail["cc"] == g.n:
            cc_n += 1
            continue
        assert detail["cc"] < g.n - 1
        witness = check_cc_equals_n_minus_1(g, "paper").witness
        assert mask_is_cds(g, 1 << witness["u"] | 1 << witness["v"])
        pair_is_cds += 1
    assert (len(row["counterexamples"]), cc_n, pair_is_cds) == (13640, 1208, 12432)


def test_criterion_07_domatic_expansion_doubles():
    checked = 0
    for g, dc, _, expanded in domatic_sweep():
        valid, _ = is_cc_partition(g, expanded)
        assert valid, f"invalid expansion on {emit_graph6(g)}"
        assert len(expanded) >= 2 * dc, f"too few parts on {emit_graph6(g)}"
        checked += 1
    assert checked == 21872


def test_criterion_08_randomized_property_sweeps():
    # coalition validity ignores which of two parts comes first; the rest stay singletons
    rng = random.Random(80831)
    for _ in range(10_000):
        g = random_graph(rng, 2, 7)
        order = list(range(g.n))
        rng.shuffle(order)
        cut = rng.randint(1, g.n - 1)
        tail = rng.randint(1, g.n - cut)
        a, b = frozenset(order[:cut]), frozenset(order[cut:cut + tail])
        rest = [frozenset((v,)) for v in order[cut + tail:]]
        valid, _ = is_cc_partition(g, [a, b, *rest])
        assert is_cc_partition(g, [b, a, *rest])[0] == valid
        assert valid == ref_valid_cc_partition(g, [a, b, *rest])

    # graph6 round trip
    rng = random.Random(6364)
    for _ in range(10_000):
        g = random_graph(rng, 1, 14)
        assert parse_graph6(emit_graph6(g)) == g

    # domination is upward closed, connected domination likewise
    rng = random.Random(20250817)
    for _ in range(10_000):
        g = random_graph(rng, 1, 8)
        s_mask = rng.getrandbits(g.n)
        extra = rng.getrandbits(g.n)
        if mask_is_dominating(g, s_mask):
            assert mask_is_dominating(g, s_mask | extra)
        if s_mask and is_connected(g) and mask_is_cds(g, s_mask):
            assert mask_is_cds(g, s_mask | extra)

    # the peel verdict ignores which full vertex goes first
    rng = random.Random(424243)
    for _ in range(10_000):
        g = random_graph(rng, 1, 7)
        member, trace = in_family_f(g)
        assert (member, trace.steps, trace.terminal) == ref_peel(g, min)
        assert member == ref_peel(g, max)[0]
        assert member == ref_peel(g, rng.choice)[0]
        assert ref_replay_peel(g, trace.steps, trace.terminal)

    # every witness the package hands out replays
    rng = random.Random(97)
    for _ in range(10_000):
        g = random_graph(rng, 2, 6)
        cc, witness = cc_number(g)
        if cc == 0:
            assert witness is None
        else:
            valid, _ = is_cc_partition(g, witness)
            assert valid and len(witness) == cc
        if not is_connected(g):
            continue
        size, cds = gamma_c(g)
        assert len(cds) == size and mask_is_cds(g, sum(1 << v for v in cds))
        dc, parts = connected_domatic_number(g)
        assert len(parts) == dc
        assert sorted(v for part in parts for v in part) == list(range(g.n))
        assert all(mask_is_cds(g, sum(1 << v for v in part)) for part in parts)
        if not full_vertex_mask(g):
            decision = check_cc_equals_n(g)
            if decision.answer:
                closed = g.closed_masks
                for x, (p, q) in decision.witness.items():
                    assert x in (p, q) and g.nbr_masks[p] >> q & 1
                    assert closed[p] | closed[q] == g.full_mask


def check_n_scaling(sizes, repeats):
    """Time the CC = n decider on cycles and fit a log-log slope.

    Report only: the returned dict states whether the fitted slope stays at
    or below degree 4 (with slack for timer noise), but nothing here gates
    on it.  On a cycle with n > 4, 2D < n, so the decider answers no
    from the degree bound without computing any edge row; its cost is the
    preconditions, a connectivity search and one pass over the degrees.
    """
    def seconds_per_call(g, number):
        start = time.perf_counter()
        for _ in range(number):
            check_cc_equals_n(g)
        return (time.perf_counter() - start) / number

    points = []
    for n in sizes:
        g = generate("cycle", [n])
        number = max(1, int(0.005 / max(seconds_per_call(g, 1), 1e-7)))
        best = min(seconds_per_call(g, number) for _ in range(repeats))
        points.append({"n": n, "seconds": best})
    xs = [math.log(p["n"]) for p in points]
    ys = [math.log(max(p["seconds"], 1e-9)) for p in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    rms = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return {
        "points": points,
        "log_log_slope": round(slope, 3),
        "residual_rms": round(rms, 3),
        "max_degree": 4,
        "consistent_with_max_degree": slope <= 4.5,
    }


def test_criterion_09_decider_scaling_report():
    result = check_n_scaling(sizes=(50, 100, 200, 400), repeats=3)
    assert [p["n"] for p in result["points"]] == [50, 100, 200, 400]
    assert all(p["seconds"] > 0 for p in result["points"])
    assert isinstance(result["log_log_slope"], float)
    assert result["max_degree"] == 4
    assert isinstance(result["consistent_with_max_degree"], bool)
    print("\ncycle scaling of the CC = n decider (report only):")
    for p in result["points"]:
        print(f"  n={p['n']:>4}  {p['seconds'] * 1e6:9.1f} us")
    print(f"  log-log slope {result['log_log_slope']}, "
          f"residual rms {result['residual_rms']}, "
          f"consistent with degree <= {result['max_degree']}: "
          f"{result['consistent_with_max_degree']}")
