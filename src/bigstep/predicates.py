"""Indexed predicates and operational soundness auditors.

A predicate over configurations and results, indexed by an opaque index
set (typically types), is audited against a semantics on one result
table (``results``), seeded with a configuration or a corpus:

* preservation - each configuration with a result satisfies the
  predicate and each root result every index of the root;
* progress - a dead end that satisfies the predicate is a counterexample:
  a configuration no rule starts violates can-start, a premise result no
  rule accepts can-continue;
* soundness-must - no predicate-satisfying configuration meets a dead end;
* soundness-may - every predicate-satisfying configuration has a result or
  diverges (``results.diverging``).

``fuel`` bounds the table's oracle queries, per member and pooled over a
corpus; a member that reaches a query left unasked is inconclusive.  A
pass is evidence, not a proof; a fail pinpoints a rule instance and clause.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, FrozenSet, List, Mapping, Optional

from .oracle import Config, LanguageSemantics, ResultVal
# no audit runs the stepper; perfbench/engine.py's tracer patches this binding
from .pet import StuckInfo, StuckKind, run_exhaustive  # noqa: F401
from .results import Table, build, diverging, results_of, unsettled


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


def _preservation(pred: IndexedPredicate, entries, members) -> List[Violation]:
    """The preservation violations of a table's ``entries``: each entry with
    a result and no index, then each member result that one of the
    member's indices rejects.  Each entry with a result is typed once."""
    indices = {c: pred.indices_of_config(c) for c, (found, _) in entries.items() if found}
    broken = [(c, ("node-config", c)) for c, i in indices.items() if not i]
    broken += [(m, ("root-result", i, r)) for m in members for r in entries[m][0]
               for i in indices[m] if not pred.holds_result(r, i)]
    return [Violation(Condition.PRESERVATION, c, detail=d) for c, d in broken]


def audit_preservation(sem: LanguageSemantics, pred: IndexedPredicate,
                       config: Config, fuel: int) -> AuditOutcome:
    """The first preservation violation of the result table of ``config``."""
    t = build(sem, [config], fuel)
    violation = next(iter(_preservation(pred, t.entries, [config])), None)
    return AuditOutcome(violation is None, violation, violation is None and bool(t.spent))


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
    t = build(sem, [config], fuel)
    for info in t.dead_ends:
        violation = _stuck_violation(pred, info)
        if violation.condition is not Condition.PRESERVATION:
            return AuditOutcome(False, violation)
    return AuditOutcome(True, inconclusive=bool(t.spent))


def _corpus_table(sem: LanguageSemantics, pred: IndexedPredicate, corpus, fuel: int):
    """A report counting ``corpus``, one ``Table`` at ``fuel`` queries a member,
    pooled, and its ``unsettled`` configurations, which reach ``spent`` by demands."""
    report = AuditReport()
    for config in corpus:
        if not pred.satisfies(config):
            raise ValueError(f"corpus member does not satisfy the predicate: {config!r}")
    if corpus:
        report.stats["configs"] = len(corpus)
    t = build(sem, corpus, fuel * len(corpus)) if corpus else Table({}, {}, False, set())
    return report, t, unsettled(t)


class _Typings(dict):
    """The indices of each configuration asked about, each asked of
    ``indices_of_config`` on its first lookup; one audit call owns it."""

    __slots__ = ("ask",)

    def __init__(self, indices_of_config):
        self.ask = indices_of_config

    def __missing__(self, config):
        indices = self[config] = self.ask(config)
        return indices


def soundness_must_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                         corpus, fuel: int) -> AuditReport:
    """Each dead end of the corpus table is a violation, and so is each
    preservation violation; an unsettled member is inconclusive."""
    # each configuration is typed once per call, whichever member reaches it
    pred = IndexedPredicate(_Typings(pred.indices_of_config).__getitem__, pred.holds_result)
    report, t, left = _corpus_table(sem, pred, corpus, fuel)
    report.violations += [_stuck_violation(pred, info) for info in t.dead_ends]
    report.violations += _preservation(pred, t.entries, corpus)
    report.inconclusive += [c for c in corpus if c in left]
    for key, n in (("converged", sum(len(results_of(t, c)) for c in corpus)),
                   ("stuck", len(t.dead_ends)), ("timeout", len(report.inconclusive))):
        if n:  # in place, skipping zeros as ``Counter`` addition does
            report.stats[key] += n
    return report


def soundness_may_audit(sem: LanguageSemantics, pred: IndexedPredicate,
                        corpus, fuel: int) -> AuditReport:
    """Every corpus member has a result or diverges (``diverging``) in the
    corpus table; else an unsettled member is inconclusive."""
    report, t, left = _corpus_table(sem, pred, corpus, fuel)
    cycling = diverging(t) if not all(results_of(t, c) for c in corpus) else set()
    for config in corpus:
        if results_of(t, config) or config in cycling:
            report.stats["progressing"] += 1
        elif config in left:
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
