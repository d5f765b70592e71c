"""The documents ``bsm`` prints for every value and stepper outcome."""
import pytest

from bigstep.extensions import (
    INFINITY,
    NO_JUDGMENT,
    STUCK_TRACE,
    TIMEOUT,
    WRONG,
    FinTrace,
    InfTrace,
    Ok,
    div_oracle,
    trace_oracle,
    wrong_oracle,
)
from bigstep.lam import OMEGA, enumerate_terms, lambda_semantics, parse_expr, show_expr
from bigstep.lam.syntax import Nat, Succ
from bigstep.pet import OutOfFuel, run_exhaustive, run_first
from bigstep.serialize import _rule_label, outcome_doc, tree_doc, value_doc

SEM = lambda_semantics()
OMEGA_TEXT = show_expr(OMEGA)
DIVERGES = run_first(SEM, OMEGA, 20)
CERT = DIVERGES.certificate
CERT_DOC = [{"config": OMEGA_TEXT, "rule": "app", "premise": 3}]
FIN = FinTrace((Succ(Nat(0)), Nat(0)), Nat(1))
INF = InfTrace((Nat(1),), (OMEGA, Nat(0)))
INF_TRACE = {"prefix": ["1"], "period": [OMEGA_TEXT, "0"]}


def _first(text, sem=SEM, fuel=20):
    return run_first(sem, parse_expr(text), fuel)


# (value or outcome, certificate argument, document)
VALUES = [
    pytest.param(Ok(Nat(3)), None, {"kind": "ok", "result": "3"}, id="Ok"),
    pytest.param(WRONG, None, {"kind": "wrong"}, id="WRONG"),
    pytest.param(INFINITY, None, {"kind": "infinity"}, id="INFINITY"),
    pytest.param(INFINITY, CERT, {"kind": "infinity", "certificate": CERT_DOC},
                 id="INFINITY-certificate"),
    pytest.param(NO_JUDGMENT, None, {"kind": "stuck"}, id="NO_JUDGMENT"),
    pytest.param(STUCK_TRACE, None, {"kind": "stuck"}, id="STUCK_TRACE"),
    pytest.param(TIMEOUT, None, {"kind": "timeout"}, id="TIMEOUT"),
    pytest.param(FIN, None, {"kind": "ok", "result": "1",
                             "trace": {"prefix": ["succ 0", "0"], "period": []}},
                 id="FinTrace"),
    pytest.param(INF, None, {"kind": "infinity", "trace": INF_TRACE},
                 id="InfTrace"),
    pytest.param(INF, CERT, {"kind": "infinity", "trace": INF_TRACE,
                             "certificate": CERT_DOC},
                 id="InfTrace-certificate"),
    pytest.param(DIVERGES, None, {"kind": "infinity", "certificate": CERT_DOC},
                 id="Diverges"),
]

OUTCOMES = [
    pytest.param(DIVERGES, {"kind": "infinity", "certificate": CERT_DOC},
                 id="Diverges"),
    pytest.param(_first("succ 0"), {"kind": "ok", "result": "1"},
                 id="Converged-raw"),
    pytest.param(_first("succ 0", wrong_oracle(SEM)),
                 {"kind": "ok", "result": "1"}, id="Converged-Ok"),
    pytest.param(_first("0 0", wrong_oracle(SEM)), {"kind": "wrong"},
                 id="Converged-WRONG"),
    pytest.param(_first("0 0"), {"kind": "stuck", "detail": "no-continuation"},
                 id="Stuck-no-continuation"),
    pytest.param(_first("x"), {"kind": "stuck", "detail": "no-rule"},
                 id="Stuck-no-rule"),
    pytest.param(run_first(SEM, OMEGA, 1), {"kind": "timeout"}, id="OutOfFuel"),
]


@pytest.mark.parametrize("value, certificate, doc", VALUES)
def test_value_doc(value, certificate, doc):
    assert value_doc(SEM, value, certificate=certificate) == doc


@pytest.mark.parametrize("outcome, doc", OUTCOMES)
def test_outcome_doc(outcome, doc):
    assert outcome_doc(SEM, outcome) == doc


@pytest.mark.parametrize("outcome, doc", OUTCOMES)
def test_value_doc_classifies_outcomes(outcome, doc):
    assert value_doc(SEM, outcome) == doc


@pytest.mark.parametrize("n", [600, 2000])
def test_tree_doc_of_a_deep_tree_nests_without_recursion(n):
    e = Nat(0)
    for _ in range(n):
        e = Succ(e)
    outcome = run_first(SEM, e, 4 * n)
    doc, depth = tree_doc(SEM, outcome.tree), 0
    while doc["children"]:
        (doc,) = doc["children"]
        depth += 1
    assert depth == n
    assert doc == {"config": "0", "result": "0", "rule": doc["rule"], "children": []}


def _tree_doc_reference(sem, t):
    """``tree_doc`` as a recursive function."""
    return {
        "config": sem.show_config(t.config),
        "result": "?" if not t.is_complete else sem.show_result(t.res),
        "rule": _rule_label(t.tag),
        "children": [_tree_doc_reference(sem, c) for c in t.children],
    }


@pytest.mark.parametrize("extend", [lambda sem: sem, wrong_oracle, div_oracle,
                                    trace_oracle],
                         ids=["base", "wrong", "div", "trace"])
def test_tree_doc_equals_the_recursive_reference(extend):
    sem = extend(SEM)
    for e in enumerate_terms(3)[::7]:
        for o in run_exhaustive(sem, e, 120):
            tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
            assert tree_doc(sem, tree) == _tree_doc_reference(sem, tree)
