"""Indexed predicates and operational soundness auditors.

A predicate over configurations and results, indexed by an opaque index
set (typically types), is audited against a semantics by exhaustively
exploring configurations and checking the observable consequences of the
soundness conditions on every rule instantiation encountered:

* preservation - on every converged evaluation tree, each node's
  configuration satisfies the predicate and the root result satisfies
  every index of the root configuration;
* progress - a stuck outcome whose stuck node satisfies the predicate is
  a counterexample: a dead start witnesses a can-start violation, a dead
  continuation a can-continue violation;
* soundness-must - no predicate-satisfying configuration may reach any
  stuck outcome;
* soundness-may - every predicate-satisfying configuration has at least
  one branch that converges or carries a divergence certificate.

A pass is evidence over the explored corpus, not a proof; a fail is a
genuine counterexample pinpointing the rule instance and clause.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, FrozenSet, List, Mapping, Optional

from .oracle import Config, LanguageSemantics, ResultVal
from .pet import (
    Converged,
    Diverges,
    OutOfFuel,
    Stuck,
    StuckKind,
    run_exhaustive,
)


@dataclass(frozen=True)
class IndexedPredicate:
    """A family of configuration/result sets indexed by e.g. types.

    ``indices_of_config(c)`` is non-empty exactly when ``c`` satisfies the
    un-indexed predicate; ``holds_result(r, i)`` says whether ``r``
    satisfies the predicate at index ``i``.
    """

    indices_of_config: Callable[[Config], FrozenSet]
    holds_result: Callable[[ResultVal, Any], bool]

    def satisfies(self, config: Config) -> bool:
        return bool(self.indices_of_config(config))


class Condition(Enum):
    PRESERVATION = "preservation"
    EXISTS_PROGRESS = "exists-progress"
    FORALL_PROGRESS = "forall-progress"
    MAY_PROGRESS = "may-progress"


@dataclass(frozen=True)
class Violation:
    condition: Condition
    config: Config
    rule_family: Optional[str] = None
    premise_index: Optional[int] = None
    detail: Any = None


@dataclass(frozen=True)
class AuditOutcome:
    passed: bool
    violation: Optional[Violation] = None
    inconclusive: bool = False  # fuel ran out before a verdict


@dataclass
class AuditReport:
    violations: List[Violation] = field(default_factory=list)
    inconclusive: List[Config] = field(default_factory=list)
    stats: Counter[str] = field(default_factory=Counter)

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "AuditReport") -> "AuditReport":
        return AuditReport(
            self.violations + other.violations,
            self.inconclusive + other.inconclusive,
            self.stats + other.stats,
        )


def _preservation_violation(pred: IndexedPredicate, config: Config,
                            outcomes) -> Optional[Violation]:
    """The first preservation violation on the converged trees, in order.

    ``indices`` holds the indices of every configuration checked so far,
    each asked once.  A node's position is built only for the violation
    reported.
    """
    indices = {}
    for o in outcomes:
        if not isinstance(o, Converged):
            continue
        for path, node in o.tree.walk():
            c = node.config
            if c not in indices:
                indices[c] = pred.indices_of_config(c)
                if not indices[c]:
                    return Violation(Condition.PRESERVATION, config,
                                     detail=("node-config", tuple(path[1:]), c))
        for index in indices[config]:
            if not pred.holds_result(o.result, index):
                return Violation(Condition.PRESERVATION, config,
                                 detail=("root-result", index, o.result))
    return None


def audit_preservation(sem: LanguageSemantics, pred: IndexedPredicate,
                       config: Config, fuel: int) -> AuditOutcome:
    """Node-wise predicate and root index/result check on converged trees."""
    outcomes = run_exhaustive(sem, config, fuel)
    violation = _preservation_violation(pred, config, outcomes)
    if violation is not None:
        return AuditOutcome(False, violation)
    saw_fuel = any(isinstance(o, OutOfFuel) for o in outcomes)
    return AuditOutcome(True, inconclusive=saw_fuel)


def _stuck_violation(pred: IndexedPredicate, o: Stuck) -> Optional[Violation]:
    info = o.info
    if not pred.satisfies(info.config):
        # a predicate-satisfying root stepped into a non-satisfying node
        return Violation(Condition.PRESERVATION, info.config,
                         info.rule_family, info.premise_index,
                         detail="stuck node escapes the predicate")
    if info.kind is StuckKind.NO_RULE:
        return Violation(Condition.EXISTS_PROGRESS, info.config)
    return Violation(Condition.FORALL_PROGRESS, info.config,
                     info.rule_family, info.premise_index, detail=info.result)


def audit_progress(sem: LanguageSemantics, pred: IndexedPredicate,
                   config: Config, fuel: int) -> AuditOutcome:
    """No stuck outcome whose stuck node satisfies the predicate."""
    saw_fuel = False
    for o in run_exhaustive(sem, config, fuel):
        if isinstance(o, OutOfFuel):
            saw_fuel = True
        elif isinstance(o, Stuck):
            violation = _stuck_violation(pred, o)
            if violation.condition is not Condition.PRESERVATION:
                return AuditOutcome(False, violation)
    return AuditOutcome(True, inconclusive=saw_fuel)


def _members(sem: LanguageSemantics, pred: IndexedPredicate, corpus, fuel, report):
    """Each corpus member with its exhaustive outcomes, counted in ``report``."""
    for config in corpus:
        if not pred.satisfies(config):
            raise ValueError(f"corpus member does not satisfy the predicate: {config!r}")
        report.stats["configs"] += 1
        yield config, run_exhaustive(sem, config, fuel)


_STAT = {Stuck: "stuck", Converged: "converged", Diverges: "diverges", OutOfFuel: "timeout"}


def soundness_must_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                         corpus, fuel: int) -> AuditReport:
    """Every stuck outcome on a predicate-satisfying corpus is a violation."""
    report = AuditReport()
    # each configuration is typed once per call, whichever member reaches it
    pred = IndexedPredicate(functools.cache(pred.indices_of_config), pred.holds_result)
    for config, outcomes in _members(sem, pred, corpus, fuel, report):
        for o in outcomes:
            report.stats[_STAT[type(o)]] += 1
            if isinstance(o, Stuck):
                report.violations.append(_stuck_violation(pred, o))
        violation = _preservation_violation(pred, config, outcomes)
        if violation is not None:
            report.violations.append(violation)
        if any(isinstance(o, OutOfFuel) for o in outcomes):
            report.inconclusive.append(config)
    return report


def soundness_may_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                        corpus, fuel: int) -> AuditReport:
    """Some branch of every corpus member converges or certifiably diverges."""
    report = AuditReport()
    for config, outcomes in _members(sem, pred, corpus, fuel, report):
        if any(isinstance(o, (Converged, Diverges)) for o in outcomes):
            report.stats["progressing"] += 1
        elif any(isinstance(o, OutOfFuel) for o in outcomes):
            report.stats["timeout"] += 1
            report.inconclusive.append(config)
        else:
            report.stats["all-stuck"] += 1
            report.violations.append(Violation(Condition.MAY_PROGRESS, config))
    return report


def check_progress_implies_may(progress: Mapping[Config, AuditOutcome],
                               may: AuditReport) -> bool:
    """Progress passing on a configuration must imply may-soundness for it.

    Both audits must have run on the same corpus and fuel.  A definite
    may-violation on a configuration whose progress audit passed would
    falsify the implication.
    """
    may_failed = {v.config for v in may.violations
                  if v.condition is Condition.MAY_PROGRESS}
    for config, outcome in progress.items():
        if outcome.passed and not outcome.inconclusive and config in may_failed:
            return False
    return True
