"""Indexed predicates and operational soundness auditors.

A predicate over configurations and results, indexed by an opaque index
set (typically types), is audited against a semantics on the result
table of each configuration, the named record ``extensions._table`` builds:

* preservation - each configuration with a result satisfies the
  predicate and each root result every index of the root;
* progress - a dead end that satisfies the predicate is a counterexample:
  a configuration no rule starts violates can-start, a premise result no
  rule accepts can-continue;
* soundness-must - no predicate-satisfying configuration meets a dead end;
* soundness-may - every predicate-satisfying configuration has a result or
  diverges (``extensions._diverges``, the table's one divergence fixpoint).

Unlike the stepper, a table finds the results that flow back through a
cycle.  ``fuel`` bounds each table's oracle queries; a member whose table
``spent`` them is inconclusive.  A pass is evidence, not a proof; a fail
is a counterexample pinpointing the rule instance and clause.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, FrozenSet, List, Mapping, Optional

from .extensions import _diverges, _table
from .oracle import Config, LanguageSemantics, ResultVal
# no audit runs the stepper; perfbench/engine.py's tracer patches this binding
from .pet import StuckInfo, StuckKind, run_exhaustive  # noqa: F401


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
                            table) -> Optional[Violation]:
    """The first preservation violation of ``config``'s result table: an
    entry with a result and no index, else a result of ``config`` that
    one of its indices rejects.  Each entry with a result is typed once."""
    indices = {c: pred.indices_of_config(c) for c, (found, _) in table.items() if found}
    broken = [("node-config", c) for c, i in indices.items() if not i]
    broken += [("root-result", i, r) for r in table[config][0] for i in indices[config]
               if not pred.holds_result(r, i)]
    return Violation(Condition.PRESERVATION, config, detail=broken[0]) if broken else None


def audit_preservation(sem: LanguageSemantics, pred: IndexedPredicate,
                       config: Config, fuel: int) -> AuditOutcome:
    """The first preservation violation of the result table of ``config``."""
    t = _table(sem, config, fuel)
    violation = _preservation_violation(pred, config, t.entries)
    return AuditOutcome(violation is None, violation, violation is None and t.spent)


def _stuck_violation(pred: IndexedPredicate, info: StuckInfo) -> Violation:
    if not pred.satisfies(info.config):
        # a predicate-satisfying root reached a non-satisfying dead end
        return Violation(Condition.PRESERVATION, info.config,
                         info.rule_family, info.premise_index,
                         detail="stuck node escapes the predicate")
    if info.kind is StuckKind.NO_RULE:
        return Violation(Condition.EXISTS_PROGRESS, info.config)
    return Violation(Condition.FORALL_PROGRESS, info.config,
                     info.rule_family, info.premise_index, detail=info.result)


def audit_progress(sem: LanguageSemantics, pred: IndexedPredicate,
                   config: Config, fuel: int) -> AuditOutcome:
    """No dead end of the result table satisfies the predicate."""
    t = _table(sem, config, fuel)
    for info in t.dead_ends:
        violation = _stuck_violation(pred, info)
        if violation.condition is not Condition.PRESERVATION:
            return AuditOutcome(False, violation)
    return AuditOutcome(True, inconclusive=t.spent)


def _members(pred: IndexedPredicate, corpus, report):
    """Each corpus member, counted in ``report``."""
    for config in corpus:
        if not pred.satisfies(config):
            raise ValueError(f"corpus member does not satisfy the predicate: {config!r}")
        report.stats["configs"] += 1
        yield config


def soundness_must_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                         corpus, fuel: int) -> AuditReport:
    """Each dead end of a member's table is a violation, and so is the
    table's first preservation violation."""
    report = AuditReport()
    # each configuration is typed once per call, whichever member reaches it
    pred = IndexedPredicate(functools.cache(pred.indices_of_config), pred.holds_result)
    for config in _members(pred, corpus, report):
        t = _table(sem, config, fuel)
        report.stats += Counter(converged=len(t.entries[config][0]), stuck=len(t.dead_ends),
                                timeout=int(t.spent))
        report.violations += [_stuck_violation(pred, info) for info in t.dead_ends]
        violation = _preservation_violation(pred, config, t.entries)
        if violation is not None:
            report.violations.append(violation)
        if t.spent:
            report.inconclusive.append(config)
    return report


def soundness_may_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                        corpus, fuel: int) -> AuditReport:
    """Every corpus member has a result or diverges (``_diverges``) in its
    table; else a table that spent its budget leaves it inconclusive."""
    report = AuditReport()
    for config in _members(pred, corpus, report):
        t = _table(sem, config, fuel)
        if t.entries[config][0] or _diverges(t, config):
            report.stats["progressing"] += 1
        elif t.spent:
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
