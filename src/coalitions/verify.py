"""Corpus verification harness: every structural claim checked against the oracle.

The registry maps short ids (t1..t10) to checks.  Each check declares the
graphs it applies to and returns (ok, detail); the suite runner streams a
corpus through the registry and collects counterexample certificates as
graph6 strings plus the observed values, so any reported discrepancy can be
replayed on its own.  t6 compares the two CC = n-1 decider variants against
the oracle and is report-only: its counterexamples are measurements, not
failures of this package.
"""

import heapq
import itertools
import json
import time
from dataclasses import dataclass
from functools import cached_property

from .domination import PARTITION_GUARD_DEFAULT, connected_domatic_number
from .errors import GuardExceededError, PreconditionError
from .family import in_family_f
from .graphs import (
    Graph,
    canonical_form,
    corona,
    emit_graph6,
    enumerate_labeled_graphs,
    full_vertex_mask,
    is_connected,
    is_corona_of_k1,
    is_tree,
    parse_graph6,
)
from .matrices import check_cc_equals_n, check_cc_equals_n_minus_1
from .oracle import cc_number, cc_partition_search


class GraphRecord:
    """Lazy per-graph cache shared by every theorem check.

    Values are computed on first touch and reused, so running several checks
    over one corpus costs a single oracle call per isomorphism class in the
    suite.
    """

    def __init__(self, graph, guard=PARTITION_GUARD_DEFAULT):
        self.graph = graph
        self.guard = guard

    @cached_property
    def connected(self):
        return is_connected(self.graph)

    @cached_property
    def fulls(self):
        """The full vertices as a bitmask."""
        return full_vertex_mask(self.graph)

    @cached_property
    def cc_pair(self):
        return cc_number(self.graph, self.guard)

    @property
    def cc(self):
        return self.cc_pair[0]

    @cached_property
    def cc_raw_pair(self):
        """The partition search run as-is, without the disconnected shortcut."""
        return cc_partition_search(self.graph, self.guard)

    @cached_property
    def dc_pair(self):
        return connected_domatic_number(self.graph, self.guard)

    @cached_property
    def family_pair(self):
        return in_family_f(self.graph)

    @property
    def family_member(self):
        return self.family_pair[0]

    @cached_property
    def decision_n(self):
        return check_cc_equals_n(self.graph)

    @cached_property
    def decision_paper(self):
        return check_cc_equals_n_minus_1(self.graph, "paper")

    @cached_property
    def decision_strict(self):
        return check_cc_equals_n_minus_1(self.graph, "strict")

    @cached_property
    def tree(self):
        return is_tree(self.graph)

    @cached_property
    def corona_form(self):
        return is_corona_of_k1(self.graph)

    @property
    def complete(self):
        return self.graph.m == self.graph.n * (self.graph.n - 1) // 2

    @property
    def min_degree(self):
        return min(self.graph.degree(v) for v in range(self.graph.n))


@dataclass(frozen=True)
class TheoremCheck:
    """One registry entry: applies(rec) -> bool and check(rec) -> (ok, detail).

    Both must be isomorphism-invariant: a relabeled copy of the graph gets
    the same applies answer and the same (ok, detail), so detail holds only
    invariants (CC, d_c, decider answers, counts) and never a witness.
    run_theorem_suite shares outcomes across each isomorphism class on that
    contract.
    """

    id: str
    anchor: str
    description: str
    applies: object
    check: object
    report_only: bool = False


def _t1(rec):
    ok = (rec.cc == 0) == rec.family_member
    return ok, {"cc": rec.cc, "family_member": rec.family_member,
                "peel_terminal": rec.family_pair[1].terminal}


def _t2(rec):
    dc = rec.dc_pair[0]
    return rec.cc >= 2 * dc, {"cc": rec.cc, "d_c": dc}


def _t3(rec):
    return rec.cc == 2, {"cc": rec.cc}


def _t4(rec):
    return rec.cc < rec.graph.n, {"cc": rec.cc, "n": rec.graph.n}


def _t5(rec):
    agree = rec.decision_n.answer == (rec.cc == rec.graph.n)
    return agree, {"cc": rec.cc, "check_n": rec.decision_n.answer}


def _t6(rec):
    paper = rec.decision_paper.answer
    strict = rec.decision_strict.answer
    oracle = rec.cc == rec.graph.n - 1
    strict_violation = strict and not oracle
    ok = (paper == oracle) and not strict_violation
    return ok, {"cc": rec.cc, "paper_answer": paper, "strict_answer": strict,
                "strict_violation": strict_violation}


def _t7(rec):
    return rec.cc == 2, {"cc": rec.cc}


def _t8(rec):
    k = rec.fulls.bit_count()
    return rec.cc >= k + 2, {"cc": rec.cc, "full_vertices": k}


def _t9(rec):
    """The raw search and cc_number both give 0 on a disconnected graph.

    No vertex set of a disconnected graph is a CDS, so table[V] is false and
    the raw search's partner-feasibility prune stops it at its root: this
    check confirms the superset-CDS fact, not an exhaustive enumeration.
    The unpruned search in tests/reference.py stays the exhaustive judge.
    """
    raw = rec.cc_raw_pair[0]
    return raw == 0 and rec.cc == 0, {"cc": rec.cc, "cc_raw_search": raw}


def _t10(rec):
    return 1 <= rec.cc <= rec.graph.n, {"cc": rec.cc, "n": rec.graph.n}


THEOREMS = {
    "t1": TheoremCheck(
        "t1", "cc_zero_iff_family_f",
        "CC is zero exactly on the peel family",
        lambda rec: rec.graph.n >= 1, _t1),
    "t2": TheoremCheck(
        "t2", "cc_ge_two_dc",
        "connected, no full vertex, order > 1: CC is at least twice d_c",
        lambda rec: rec.graph.n > 1 and rec.connected and not rec.fulls, _t2),
    "t3": TheoremCheck(
        "t3", "trees_cc_two",
        "trees without a full vertex have CC = 2",
        lambda rec: rec.tree and not rec.fulls, _t3),
    "t4": TheoremCheck(
        "t4", "pendant_lt_n",
        "connected, minimum degree 1, no full vertex: CC < n",
        lambda rec: rec.connected and not rec.fulls and rec.graph.n >= 2 and rec.min_degree == 1, _t4),
    "t5": TheoremCheck(
        "t5", "check_n_iff_oracle",
        "the CC = n decider agrees with the oracle both ways",
        lambda rec: rec.connected and not rec.fulls and rec.graph.n >= 2, _t5),
    "t6": TheoremCheck(
        "t6", "check_n1_vs_oracle",
        "both CC = n-1 decider variants measured against the oracle (report only)",
        lambda rec: rec.connected and not rec.fulls and rec.graph.n >= 3, _t6,
        report_only=True),
    "t7": TheoremCheck(
        "t7", "corona_cc_two",
        "pendant-doubled graphs (H corona K_1) have CC = 2",
        lambda rec: rec.corona_form, _t7),
    "t8": TheoremCheck(
        "t8", "full_vertex_lower",
        "connected, outside the peel family, not complete, k >= 1 full vertices: CC >= k + 2",
        lambda rec: rec.connected and rec.fulls and not rec.complete and not rec.family_member, _t8),
    "t9": TheoremCheck(
        "t9", "disconnected_zero",
        "disconnected graphs of order >= 2 have CC = 0, by raw search",
        lambda rec: rec.graph.n >= 2 and not rec.connected, _t9),
    "t10": TheoremCheck(
        "t10", "lower_upper_bounds",
        "connected and outside the peel family: 1 <= CC <= n",
        lambda rec: rec.connected and not rec.family_member, _t10),
}


def _resolve_ids(theorem_ids):
    if theorem_ids is None:
        return list(THEOREMS)
    ids = []
    for raw in theorem_ids:
        tid = raw.strip().lower()
        if tid not in THEOREMS:
            raise PreconditionError(
                f"unknown theorem id {raw!r}; known ids: {', '.join(THEOREMS)}"
            )
        if tid not in ids:
            ids.append(tid)
    return ids


@dataclass
class VerifyReport:
    """Suite outcome: one entry per theorem, deterministic apart from timings."""

    corpus: str
    theorems: list

    def failing(self):
        """Ids of asserted (non report-only) theorems that found counterexamples."""
        return [t["id"] for t in self.theorems
                if t["counterexamples"] and not t["report_only"]]

    def to_json(self):
        return json.dumps({"corpus": self.corpus, "theorems": self.theorems}, indent=2)

    def summary_text(self):
        lines = [f"corpus: {self.corpus}"]
        header = f"{'id':<5}{'anchor':<24}{'checked':>9}{'passed':>9}{'counterex':>11}{'millis':>9}"
        lines.append(header)
        for t in self.theorems:
            mark = " (report only)" if t["report_only"] and t["counterexamples"] else ""
            lines.append(
                f"{t['id']:<5}{t['anchor']:<24}{t['checked']:>9}{t['passed']:>9}"
                f"{len(t['counterexamples']):>11}{t['millis']:>9}{mark}"
            )
        return "\n".join(lines)


def run_theorem_suite(graphs, theorem_ids=None, corpus_label="custom",
                      guard=PARTITION_GUARD_DEFAULT):
    """Stream a corpus through the selected theorem checks.

    Returns a VerifyReport whose per-theorem entries satisfy
    passed + len(counterexamples) == checked.  Counterexamples carry the
    graph6 string of the labeled corpus graph and the observed values.

    Every check is isomorphism-invariant (see TheoremCheck), so the checks
    run once per isomorphism class: the first graph of a class is checked
    through one GraphRecord, and later graphs whose canonical_form matches
    cost one dict lookup.  Each class keeps the number of labeled graphs seen
    and its failing (theorem, detail) pairs; a graph of a class with failures
    adds its graph6 certificate to each, in corpus order, and checked and
    passed are summed at the end as count times outcome.  That dict lives for
    this one call, and its memory grows with the number of classes, not of
    corpus graphs.  millis times each check on the first graph of each class,
    including the shared lazy values it was the first to touch.
    """
    ids = _resolve_ids(theorem_ids)
    checks = [THEOREMS[tid] for tid in ids]
    seconds = [0.0] * len(ids)
    found = [[] for _ in ids]  # each theorem's counterexamples
    by_class = {}  # canonical form -> [labeled graphs seen, outcomes, failures]
    for g in graphs:
        if g.n > guard:
            raise GuardExceededError(
                f"corpus graph of order {g.n} exceeds the oracle guard {guard}"
            )
        key = canonical_form(g)
        seen = by_class.get(key)
        if seen is None:
            rec = GraphRecord(g, guard)
            outcomes = []
            for j, t in enumerate(checks):
                start = time.perf_counter()
                outcomes.append(t.check(rec) if t.applies(rec) else None)
                seconds[j] += time.perf_counter() - start
            failures = [(cex, o[1]) for cex, o in zip(found, outcomes) if o and not o[0]]
            seen = by_class[key] = [0, outcomes, failures]
        seen[0] += 1
        if seen[2]:
            graph6 = emit_graph6(g)
            for cex, detail in seen[2]:
                cex.append({"graph6": graph6, "detail": dict(detail)})
    theorems = []
    for j, (tid, t) in enumerate(zip(ids, checks)):
        runs = [(count, o[0]) for count, outcomes, _ in by_class.values() if (o := outcomes[j])]
        theorems.append({
            "id": tid,
            "anchor": t.anchor,
            "checked": sum(count for count, _ in runs),
            "passed": sum(count for count, ok in runs if ok),
            "counterexamples": found[j],
            "millis": int(round(seconds[j] * 1000)),
            "report_only": t.report_only,
        })
    return VerifyReport(corpus=corpus_label, theorems=theorems)


def replay_counterexample(theorem_id, graph6, guard=PARTITION_GUARD_DEFAULT):
    """Re-run one theorem check on a certificate graph.

    Returns {"applicable", "ok", "detail"}; a certificate replays when it is
    applicable, not ok, and reproduces the recorded detail.
    """
    ids = _resolve_ids([theorem_id])
    t = THEOREMS[ids[0]]
    rec = GraphRecord(parse_graph6(graph6), guard)
    if not t.applies(rec):
        return {"applicable": False, "ok": None, "detail": None}
    ok, detail = t.check(rec)
    return {"applicable": True, "ok": ok, "detail": detail}


def default_corpus(n_max=6, connected_only=False):
    """All labeled graphs of order 1..n_max, enumeration order, optionally connected only."""
    for n in range(1, n_max + 1):
        yield from enumerate_labeled_graphs(n, connected_only)


def tree_from_prufer(seq, n):
    """Decode a Prufer sequence over 0..n-1 into its labeled tree (n >= 2)."""
    if n < 2:
        raise PreconditionError("Prufer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise PreconditionError(f"Prufer sequence for n={n} must have length {n - 2}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def tree_corpus(n_max=7):
    """Every labeled tree of order 1..n_max (n^(n-2) trees for each n >= 2)."""
    if n_max >= 1:
        yield Graph(1, [])
    for n in range(2, n_max + 1):
        for seq in itertools.product(range(n), repeat=n - 2):
            yield tree_from_prufer(seq, n)


def corona_corpus(h_order_max=5):
    """corona(H, K_1) for every connected labeled H of order 1..h_order_max."""
    k1 = Graph(1, [])
    for n in range(1, h_order_max + 1):
        for h in enumerate_labeled_graphs(n, connected_only=True):
            yield corona(h, k1)
