"""Corpus verification harness: every structural claim checked against the oracle.

The registry maps short ids (t1..t10) to checks.  Each check declares the
graphs it applies to and returns (ok, detail); the suite runner streams a
corpus through the registry and collects counterexample certificates as
graph6 strings plus the observed values, so any reported discrepancy can be
replayed on its own by running the suite on that one graph.  t6 compares
the two CC = n-1 decider variants against the oracle and is report-only:
its counterexamples are measurements, not failures of this package.
"""

import time
from collections import namedtuple
from functools import cached_property

from .domination import PARTITION_GUARD_DEFAULT, connected_domatic_number
from .errors import CoalitionExpansionError, GuardExceededError, PreconditionError
from .family import in_family_f
from .graphs import (
    degree_key,
    emit_graph6,
    enumerate_labeled_graphs,
    first_leaf,
    full_vertex_mask,
    is_connected,
    is_corona_of_k1,
    is_tree,
)
from .matrices import check_cc_equals_n, check_cc_equals_n_minus_1
from .oracle import cc_number, cc_partition_search, expand_domatic_to_cc_partition


class GraphRecord:
    """Per-graph cache of the values that more than one check reads.

    A value is cached here only when two or more checks, or a check and its
    applies, read it: connectivity, the full vertices, the oracle's CC and
    in_family_f's (member, trace) pair.  Each is computed on first touch, so
    the order-0 graph, which no check applies to and cc_number and
    in_family_f refuse, never computes them.  A value only one check reads
    (d_c, a decider answer, the raw search, tree or corona shape, the minimum
    degree) is computed in that check, through this module's globals at call
    time.
    """

    def __init__(self, graph, guard):
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
    def cc(self):
        return cc_number(self.graph, self.guard)[0]

    @cached_property
    def family(self):
        return in_family_f(self.graph)


class TheoremCheck(namedtuple("TheoremCheck", "anchor applies check report_only", defaults=(False,))):
    """One registry entry, a namedtuple: applies(rec) -> bool and check(rec) -> (ok, detail).

    Its THEOREMS key is its id, README's theorem table states its claim, and
    anchor is the stable name the report carries.  Both callables must be
    isomorphism-invariant: a relabeled copy of the graph gets the same
    applies answer and the same (ok, detail), so detail holds only
    invariants (CC, d_c, decider answers, counts) and never a witness.
    """

    __slots__ = ()


def _t1(rec):
    member, trace = rec.family
    return (rec.cc == 0) == member, {"cc": rec.cc, "family_member": member,
                                     "peel_terminal": trace.terminal}


def _t2(rec):
    """CC >= 2 d_c by construction: d_c's witness expands to a coalition partition.

    The expansion raises unless its partition is valid with at least 2 d_c
    parts, so the check passes when CC is at least its part count.  A raised
    CoalitionExpansionError fails the check with its message in the detail;
    the message can name parts, so unlike every other detail it may depend
    on the labeling, and it can only show on a fault in the package.
    """
    dc, parts = connected_domatic_number(rec.graph, rec.guard)
    detail = {"cc": rec.cc, "d_c": dc}
    try:
        size = len(expand_domatic_to_cc_partition(rec.graph, parts))
    except CoalitionExpansionError as err:
        return False, {**detail, "expansion_error": str(err)}
    if rec.cc < size:
        return False, {**detail, "expansion_parts": size}
    return True, detail


def _cc_two(rec):
    """t3 (trees) and t7 (coronas) both claim CC = 2."""
    return rec.cc == 2, {"cc": rec.cc}


def _t4(rec):
    return rec.cc < rec.graph.n, {"cc": rec.cc, "n": rec.graph.n}


def _t5(rec):
    answer = check_cc_equals_n(rec.graph).answer
    return answer == (rec.cc == rec.graph.n), {"cc": rec.cc, "check_n": answer}


def _t6(rec):
    paper = check_cc_equals_n_minus_1(rec.graph, "paper").answer
    strict = check_cc_equals_n_minus_1(rec.graph, "strict").answer
    oracle = rec.cc == rec.graph.n - 1
    strict_violation = strict and not oracle
    ok = (paper == oracle) and not strict_violation
    return ok, {"cc": rec.cc, "paper_answer": paper, "strict_answer": strict,
                "strict_violation": strict_violation}


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
    raw = cc_partition_search(rec.graph, rec.guard)[0]
    return raw == 0 and rec.cc == 0, {"cc": rec.cc, "cc_raw_search": raw}


def _t10(rec):
    return 1 <= rec.cc <= rec.graph.n, {"cc": rec.cc, "n": rec.graph.n}


THEOREMS = {
    "t1": TheoremCheck("cc_zero_iff_family_f", lambda rec: rec.graph.n >= 1, _t1),
    "t2": TheoremCheck(
        "cc_ge_two_dc", lambda rec: rec.connected and not rec.fulls, _t2),
    "t3": TheoremCheck("trees_cc_two", lambda rec: is_tree(rec.graph) and not rec.fulls, _cc_two),
    "t4": TheoremCheck(
        "pendant_lt_n",
        lambda rec: rec.connected and not rec.fulls
        and min(map(rec.graph.degree, range(rec.graph.n))) == 1, _t4),
    "t5": TheoremCheck(
        "check_n_iff_oracle", lambda rec: rec.connected and not rec.fulls, _t5),
    "t6": TheoremCheck(
        "check_n1_vs_oracle", lambda rec: rec.connected and not rec.fulls, _t6,
        report_only=True),
    "t7": TheoremCheck("corona_cc_two", lambda rec: is_corona_of_k1(rec.graph), _cc_two),
    # not complete: some vertex is not full (K_1 counts as complete)
    "t8": TheoremCheck(
        "full_vertex_lower",
        lambda rec: rec.connected and rec.fulls and rec.fulls != rec.graph.full_mask
        and not rec.family[0], _t8),
    "t9": TheoremCheck("disconnected_zero", lambda rec: rec.graph.n >= 2 and not rec.connected, _t9),
    "t10": TheoremCheck("lower_upper_bounds", lambda rec: rec.connected and not rec.family[0], _t10),
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


class VerifyReport:
    """Suite outcome: one entry per theorem, deterministic apart from timings.

    A mutable record of two slots, corpus (its label) and theorems (a list of
    dicts).  Two reports are equal when both fields are; a report is unhashable.
    """

    __slots__ = ("corpus", "theorems")
    __hash__ = None

    def __init__(self, corpus, theorems):
        self.corpus = corpus
        self.theorems = theorems

    def __repr__(self):
        return f"VerifyReport(corpus={self.corpus!r}, theorems={self.theorems!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.corpus, self.theorems) == (other.corpus, other.theorems)

    def failing(self):
        """Ids of asserted (non report-only) theorems that found counterexamples."""
        return [t["id"] for t in self.theorems
                if t["counterexamples"] and not t["report_only"]]

    def to_json(self):
        import json  # here, not at the top: importing the package should not load json

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
    passed + len(counterexamples) == checked, counted over labeled graphs.
    Counterexamples carry the graph6 string of the labeled corpus graph, in
    corpus order, and the observed values.

    The checks run once per first-leaf key, on the key's first graph through
    one GraphRecord, and every graph of the key shares that outcome: equal
    keys mean isomorphic graphs (graphs.first_leaf) and every check is
    isomorphism-invariant (TheoremCheck).  A graph is descended only when its
    graphs.degree_key is new; otherwise it takes the first-leaf key of the
    earlier graph with that degree key.  millis times each check on each
    key's first graph, with the cached values it was the first to touch.
    """
    ids = _resolve_ids(theorem_ids)
    checks = [THEOREMS[tid] for tid in ids]
    seconds = [0.0] * len(ids)
    found = [[] for _ in ids]  # each theorem's counterexamples
    by_key = {}  # first-leaf key -> [labeled graphs seen, outcomes, failures]
    leaf_of = {}  # degree key -> first-leaf key of the first graph with it
    for g in graphs:
        if g.n > guard:
            raise GuardExceededError(
                f"corpus graph of order {g.n} exceeds the oracle guard {guard}"
            )
        cheap = degree_key(g)
        key = leaf_of.get(cheap)
        if key is None:
            key = leaf_of[cheap] = first_leaf(g)
        seen = by_key.get(key)
        if seen is None:
            rec = GraphRecord(g, guard)
            outcomes = []
            for j, t in enumerate(checks):
                start = time.perf_counter()
                outcomes.append(t.check(rec) if t.applies(rec) else None)
                seconds[j] += time.perf_counter() - start
            failures = [(cex, o[1]) for cex, o in zip(found, outcomes) if o and not o[0]]
            seen = by_key[key] = [0, outcomes, failures]
        seen[0] += 1
        if seen[2]:
            graph6 = emit_graph6(g)
            for cex, detail in seen[2]:
                cex.append({"graph6": graph6, "detail": dict(detail)})
    theorems = []
    for j, (tid, t) in enumerate(zip(ids, checks)):
        runs = [(count, o[0]) for count, outcomes, _ in by_key.values() if (o := outcomes[j])]
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


def default_corpus(n_max=6, connected_only=False):
    """All labeled graphs of order 1..n_max, enumeration order, optionally connected only.

    Every order's enumeration guard is checked at the call, so n_max above it
    is refused before the first graph.
    """
    corpora = [enumerate_labeled_graphs(n, connected_only) for n in range(1, n_max + 1)]
    return (g for corpus in corpora for g in corpus)
