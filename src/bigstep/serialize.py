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
    if isinstance(tag, Activation):
        return f"partial({tag.rule_family},{tag.index})"
    return tag


def tree_doc(sem: LanguageSemantics, t: PartialEvalTree) -> Dict[str, Any]:
    """The tree as nested documents, built without recursion: ``docs``
    holds the documents from the root to the node at hand."""
    nodes = [(len(path), node) for path, node in t.walk()]
    configs = sem.show_configs([node.config for _, node in nodes])
    docs = []
    for (depth, node), config in zip(nodes, configs):
        doc = {
            "config": config,
            "result": "?" if not node.is_complete else sem.show_result(node.res),
            "rule": _rule_label(node.tag),
            "children": [],
        }
        del docs[depth - 1:]
        if docs:
            docs[-1]["children"].append(doc)
        docs.append(doc)
    return docs[0]


def certificate_doc(sem: LanguageSemantics, cert) -> list:
    configs = sem.show_configs([c for c, _, _ in cert.witness])
    return [
        {"config": config, "rule": fam, "premise": idx}
        for config, (_, fam, idx) in zip(configs, cert.witness)
    ]


def _trace_doc(sem: LanguageSemantics, prefix, period) -> Dict[str, Any]:
    configs = sem.show_configs(prefix + period)
    return {"prefix": configs[:len(prefix)], "period": configs[len(prefix):]}


def value_doc(sem: LanguageSemantics, value, certificate=None) -> Dict[str, Any]:
    """Classify a value or stepper outcome: ok/wrong/infinity/stuck/timeout.

    A converged outcome is classified by its result and a diverging one
    carries its own certificate; ``certificate`` is attached to the other
    infinite values.  Any result that is not a mark or a trace is ``ok``.
    """
    if isinstance(value, Converged):
        value = value.result
    if isinstance(value, Diverges):
        value, certificate = INFINITY, value.certificate
    if value is WRONG:
        return {"kind": "wrong"}
    if isinstance(value, Stuck):
        return {"kind": "stuck", "detail": value.kind.value}
    if value is NO_JUDGMENT or value is STUCK_TRACE:
        return {"kind": "stuck"}
    if value is TIMEOUT or isinstance(value, OutOfFuel):
        return {"kind": "timeout"}
    if isinstance(value, FinTrace):
        return {"kind": "ok", "result": sem.show_result(value.result),
                "trace": _trace_doc(sem, value.steps, ())}
    if value is INFINITY:
        doc = {"kind": "infinity"}
    elif isinstance(value, InfTrace):
        doc = {"kind": "infinity",
               "trace": _trace_doc(sem, value.prefix, value.period)}
    else:
        return {"kind": "ok", "result": sem.show_result(
            value.value if isinstance(value, Ok) else value)}
    if certificate is not None:
        doc["certificate"] = certificate_doc(sem, certificate)
    return doc


# the classifier's older name, for callers that classify stepper outcomes
outcome_doc = value_doc


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
