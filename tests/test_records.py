"""The package's four record classes, pinned by what a caller sees: the
constructor's parameters and defaults, the repr text, == and hash, and that
Decision, PeelTrace and TheoremCheck refuse assignment while VerifyReport
does not.  How a class is built may change; none of this may."""

import inspect

import pytest

from coalitions import (
    THEOREMS,
    Decision,
    Graph,
    PeelTrace,
    VerifyReport,
    check_cc_equals_n,
    check_cc_equals_n_minus_1,
    generate,
    in_family_f,
    parse_graph6,
)
from coalitions import verify
from coalitions.verify import TheoremCheck

C4, C5, K4 = generate("cycle", [4]), generate("cycle", [5]), generate("complete", [4])
TWO_K2 = Graph(4, [(0, 1), (2, 3)])
# the first graph n <= 5 in enumeration order where the strict CC = n-1 check says yes
N1_YES = parse_graph6("Dlo")

REPRS = [
    pytest.param(lambda: check_cc_equals_n(C5),
                 "Decision(answer=False, witness=None, "
                 "reason='vertex 0 has no incident edge whose row sums to 5', variant=None)", id="check-n-C5"),
    pytest.param(lambda: check_cc_equals_n(C4),
                 "Decision(answer=True, witness={0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (0, 3)}, "
                 "reason=None, variant=None)", id="check-n-C4"),
    pytest.param(lambda: check_cc_equals_n_minus_1(C5, "paper"),
                 "Decision(answer=False, witness=None, reason='no qualifying vertex pair (u, v)', "
                 "variant='paper')", id="check-n1-C5"),
    pytest.param(lambda: check_cc_equals_n_minus_1(N1_YES),
                 "Decision(answer=True, witness={'u': 0, 'v': 4, 'y': 1, 'justification': "
                 "{1: ('edge', (1, 2)), 2: ('edge', (1, 2)), 3: ('triple', (3, 0, 4))}}, "
                 "reason=None, variant='strict')", id="check-n1-Dlo"),
    pytest.param(lambda: in_family_f(K4)[1],
                 "PeelTrace(steps=((0, 3), (1, 2), (2, 1)), terminal='reached_k1')", id="peel-K4"),
    pytest.param(lambda: in_family_f(TWO_K2)[1],
                 "PeelTrace(steps=(), terminal='disconnected_ge2')", id="peel-2K2"),
    pytest.param(lambda: VerifyReport("c5", [{"id": "t5", "counterexamples": []}]),
                 "VerifyReport(corpus='c5', theorems=[{'id': 't5', 'counterexamples': []}])", id="report"),
]


@pytest.mark.parametrize("make, text", REPRS)
def test_repr_text(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("cls, params", [
    (Decision, [("answer", inspect.Parameter.empty), ("witness", None), ("reason", None), ("variant", None)]),
    (PeelTrace, [("steps", inspect.Parameter.empty), ("terminal", inspect.Parameter.empty)]),
    (TheoremCheck, [("anchor", inspect.Parameter.empty), ("applies", inspect.Parameter.empty),
                    ("check", inspect.Parameter.empty), ("report_only", False)]),
    (VerifyReport, [("corpus", inspect.Parameter.empty), ("theorems", inspect.Parameter.empty)]),
])
def test_constructor_parameters_and_defaults(cls, params):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params


def test_defaults_and_keyword_construction():
    bare = Decision(True)
    assert (bare.answer, bare.witness, bare.reason, bare.variant) == (True, None, None, None)
    named = Decision(answer=False, reason="r", variant="paper")
    assert (named.answer, named.witness, named.reason, named.variant) == (False, None, "r", "paper")
    trace = PeelTrace(terminal="reached_k1", steps=((0, 1),))
    assert (trace.steps, trace.terminal) == (((0, 1),), "reached_k1")
    entry = TheoremCheck("a", len, len)
    assert entry.report_only is False
    report = VerifyReport(theorems=[], corpus="c")
    assert (report.corpus, report.theorems) == ("c", [])


def test_theorem_check_fields():
    # the repr holds function addresses, so the fields are pinned instead
    t6 = THEOREMS["t6"]
    assert (t6.anchor, t6.check, t6.report_only) == ("check_n1_vs_oracle", verify._t6, True)
    assert callable(t6.applies)
    assert [t.report_only for t in THEOREMS.values()] == [False] * 5 + [True] + [False] * 4


def test_equal_instances_are_equal_and_hash_alike():
    pairs = [
        (check_cc_equals_n(C5), check_cc_equals_n(C5)),
        (Decision(False, reason="r", variant="strict"), Decision(False, None, "r", "strict")),
        (in_family_f(K4)[1], in_family_f(K4)[1]),
        (THEOREMS["t1"], TheoremCheck(THEOREMS["t1"].anchor, THEOREMS["t1"].applies, THEOREMS["t1"].check)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
    assert check_cc_equals_n(C4) == check_cc_equals_n(C4)
    assert VerifyReport("c", [{"id": "t1"}]) == VerifyReport("c", [{"id": "t1"}])


def test_unequal_instances_differ():
    assert Decision(True) != Decision(False)
    assert Decision(False, reason="r") != Decision(False, reason="r", variant="paper")
    assert in_family_f(K4)[1] != in_family_f(TWO_K2)[1]
    assert THEOREMS["t1"] != THEOREMS["t2"]
    assert VerifyReport("c", []) != VerifyReport("d", [])


def test_unhashable_cases():
    # a witness dict makes a Decision unhashable; a VerifyReport is never hashable
    with pytest.raises(TypeError):
        hash(check_cc_equals_n(C4))
    with pytest.raises(TypeError):
        hash(VerifyReport("c", []))


@pytest.mark.parametrize("record, field", [
    (Decision(True), "answer"),
    (Decision(True), "witness"),
    (PeelTrace((), "disconnected_ge2"), "terminal"),
    (THEOREMS["t1"], "report_only"),
], ids=["Decision.answer", "Decision.witness", "PeelTrace.terminal", "TheoremCheck.report_only"])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, "changed")
    assert getattr(record, field) == before


def test_verify_report_is_mutable():
    report = VerifyReport("c", [])
    report.corpus = "d"
    report.theorems.append({"id": "t1"})
    assert (report.corpus, report.theorems) == ("d", [{"id": "t1"}])
