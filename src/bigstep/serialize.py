"""JSON-able documents for trees, outcomes and audit reports."""
from __future__ import annotations

from typing import Any, Dict

from .extensions import (
    INFINITY,
    NO_JUDGMENT,
    STUCK_TRACE,
    TIMEOUT,
    WRONG,
    FinTrace,
    InfTrace,
    Ok,
)
from .oracle import Activation, LanguageSemantics
from .pet import (
    START,
    CompletedRule,
    Converged,
    Diverges,
    OutOfFuel,
    PartialEvalTree,
    Stuck,
)
from .predicates import AuditReport


def _rule_label(tag) -> str:
    if tag is START:
        return "start"
    if isinstance(tag, CompletedRule):
        return tag.rule
    if isinstance(tag, Activation):
        return f"partial({tag.rule_family},{tag.index})"
    return str(tag)


def tree_doc(sem: LanguageSemantics, t: PartialEvalTree) -> Dict[str, Any]:
    return {
        "config": sem.show_config(t.config),
        "result": "?" if not t.is_complete else sem.show_result(t.res.value),
        "rule": _rule_label(t.tag),
        "children": [tree_doc(sem, c) for c in t.children],
    }


def certificate_doc(sem: LanguageSemantics, cert) -> list:
    return [
        {"config": sem.show_config(c), "rule": fam, "premise": idx}
        for c, fam, idx in cert.witness
    ]


def _show_plain(sem, value) -> str:
    if isinstance(value, Ok):
        return sem.show_result(value.value)
    return sem.show_result(value)


def outcome_doc(sem: LanguageSemantics, outcome) -> Dict[str, Any]:
    """Classify a stepper outcome: ok / wrong / infinity / stuck / timeout."""
    if isinstance(outcome, Converged):
        result = outcome.result
        if result is WRONG:
            return {"kind": "wrong"}
        return {"kind": "ok", "result": _show_plain(sem, result)}
    if isinstance(outcome, Stuck):
        return {"kind": "stuck", "detail": outcome.kind.value}
    if isinstance(outcome, Diverges):
        return {"kind": "infinity",
                "certificate": certificate_doc(sem, outcome.certificate)}
    if isinstance(outcome, OutOfFuel):
        return {"kind": "timeout"}
    raise TypeError(outcome)


def value_doc(sem: LanguageSemantics, value, certificate=None) -> Dict[str, Any]:
    """Classify an extended-evaluator value into an outcome document."""
    if isinstance(value, Ok):
        return {"kind": "ok", "result": sem.show_result(value.value)}
    if value is WRONG:
        return {"kind": "wrong"}
    if value is INFINITY:
        doc = {"kind": "infinity"}
        if certificate is not None:
            doc["certificate"] = certificate_doc(sem, certificate)
        return doc
    if value in (NO_JUDGMENT, STUCK_TRACE):
        return {"kind": "stuck"}
    if value is TIMEOUT:
        return {"kind": "timeout"}
    if isinstance(value, FinTrace):
        return {
            "kind": "ok",
            "result": sem.show_result(value.result),
            "trace": {"prefix": [sem.show_config(c) for c in value.steps],
                      "period": []},
        }
    if isinstance(value, InfTrace):
        doc = {
            "kind": "infinity",
            "trace": {"prefix": [sem.show_config(c) for c in value.prefix],
                      "period": [sem.show_config(c) for c in value.period]},
        }
        if certificate is not None:
            doc["certificate"] = certificate_doc(sem, certificate)
        return doc
    if isinstance(value, Diverges):
        return {"kind": "infinity",
                "certificate": certificate_doc(sem, value.certificate)}
    raise TypeError(value)


def report_doc(report: AuditReport, show=str) -> Dict[str, Any]:
    return {
        "violations": [
            {
                "condition": v.condition.value,
                "config": show(v.config),
                "rule": v.rule_family,
                "premise": v.premise_index,
            }
            for v in report.violations
        ],
        "inconclusive": [show(c) for c in report.inconclusive],
        "stats": dict(report.stats),
    }
