"""Generic inference systems with rules and corules.

An inference system is represented intensionally by its *inverse* rule
query: given a judgment, stream the finite premise sets of all rules
concluding it.  The stream is finite and read once, and the same premise
set may come more than once: a repeated set is the same rule twice, which
changes no fixpoint (see ``InferenceSystem``).  So ``union`` chains two
streams and a query need not build a set of its answers.  All fixpoints
are computed on an explicitly materialised finite universe of judgments;
infinite client systems are handled by closing a goal set under premises
up to a hard cap, which ``reachable_universe`` checks as each premise is
drawn.

Both fixpoints query the rules of each universe judgment once and then
run a worklist over a reverse index from premises to the rules waiting on
them, in the style of Dowling and Gallier's linear-time Horn-SAT: each
costs O(|U| + R + P) set operations for R rules with P premises in all.
``interp_corules`` runs the greatest fixpoint of the rules over the least
fixpoint of rules and corules, and ``bounded_coinduction_check`` runs the
least fixpoint plus one query per judgment of the candidate set.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Any, Callable, FrozenSet, Iterable, Optional

Judgment = Any  # opaque, hashable, structurally comparable


@dataclass(frozen=True)
class FiniteRule:
    premises: FrozenSet[Judgment]
    conclusion: Judgment

    def __post_init__(self):
        object.__setattr__(self, "premises", frozenset(self.premises))


@dataclass(frozen=True)
class InferenceSystem:
    """A rule set given by inverse enumeration.

    ``premise_candidates(j)`` returns a finite iterable, read once, of the
    premise sets ``Pr`` such that ``(Pr, j)`` is a rule; every premise set
    is a finite set.  The same premise set may repeat.  That is harmless:
    every fixpoint here counts rules, not distinct premise sets, and two
    copies of a rule fire together (least fixpoint), die together
    (greatest fixpoint, where both wait on the same premises) and close
    the universe under the same premises.
    """

    premise_candidates: Callable[[Judgment], Iterable[AbstractSet[Judgment]]]

    def union(self, other: "InferenceSystem") -> "InferenceSystem":
        mine, theirs = self.premise_candidates, other.premise_candidates
        return InferenceSystem(lambda j: chain(mine(j), theirs(j)))


@dataclass(frozen=True)
class GeneralizedIS:
    rules: InferenceSystem
    corules: InferenceSystem

    def combined(self) -> InferenceSystem:
        return self.rules.union(self.corules)


def system_from_rules(rules: Iterable[FiniteRule]) -> InferenceSystem:
    by_conclusion: dict = {}
    for rule in rules:
        by_conclusion.setdefault(rule.conclusion, set()).add(rule.premises)
    return InferenceSystem(lambda j: by_conclusion.get(j, ()))


class UniverseOverflow(Exception):
    """The premise closure of the goal set exceeded the cap."""

    def __init__(self, cap: int):
        super().__init__(f"premise closure exceeded cap {cap}")
        self.cap = cap


def reachable_universe(
    sys: InferenceSystem, goals: AbstractSet[Judgment], cap: int
) -> FrozenSet[Judgment]:
    """Smallest set containing the goals and closed under rule premises.

    Raises ``UniverseOverflow`` as soon as the set would exceed ``cap``
    judgments, before the rest of the current query's stream is drawn.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    seen = set(goals)
    if len(seen) > cap:
        raise UniverseOverflow(cap)
    todo = list(seen)
    while todo:
        j = todo.pop()
        for premises in sys.premise_candidates(j):
            for p in premises:
                if p not in seen:
                    seen.add(p)
                    if len(seen) > cap:
                        raise UniverseOverflow(cap)
                    todo.append(p)
    return frozenset(seen)


def _rules(sys: InferenceSystem, universe: AbstractSet[Judgment]) -> tuple:
    """The rules concluding universe judgments, queried once per judgment.

    Returns the ``(conclusion, premises)`` pairs, one per premise set
    drawn (a repeated set is a rule of its own), and a map from each
    premise to the indices of the rules waiting on it.
    """
    rules: list = []
    waiting: dict = {}
    for j in universe:
        for premises in sys.premise_candidates(j):
            for p in premises:
                waiting.setdefault(p, []).append(len(rules))
            rules.append((j, premises))
    return rules, waiting


def interp_inductive(
    sys: InferenceSystem, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Least sys-closed subset of the finite universe.

    Each rule counts its premises not yet derived.  A judgment is derived
    once; it then decrements the rules waiting on it and fires those that
    reach zero.
    """
    rules, waiting = _rules(sys, universe)
    missing = [len(premises) for _, premises in rules]
    todo = [j for j, premises in rules if not premises]
    members: set = set()
    while todo:
        j = todo.pop()
        if j in members:
            continue
        members.add(j)
        for i in waiting.get(j, ()):
            missing[i] -= 1
            if missing[i] == 0:
                todo.append(rules[i][0])
    return frozenset(members)


def interp_coinductive(
    sys: InferenceSystem, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Largest sys-consistent subset of the finite universe.

    Each judgment counts its live rules; a rule with a premise outside
    the universe is dead from the start.  Removing a judgment kills the
    rules waiting on it and removes every conclusion left without one.
    """
    rules, waiting = _rules(sys, universe)
    universe = frozenset(universe)
    dead = [not premises <= universe for _, premises in rules]
    live = dict.fromkeys(universe, 0)
    for (j, _), d in zip(rules, dead):
        if not d:
            live[j] += 1
    removed = [j for j, n in live.items() if n == 0]
    while removed:
        for i in waiting.get(removed.pop(), ()):
            if not dead[i]:
                dead[i] = True
                j = rules[i][0]
                live[j] -= 1
                if live[j] == 0:
                    removed.append(j)
    return frozenset(j for j, n in live.items() if n)


def interp_corules(
    gis: GeneralizedIS, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Interpretation of an inference system with corules.

    The greatest rules-consistent subset of the judgments inductively
    derivable using rules and corules together.  The universe must be
    finite and closed under premises of both systems.
    """
    return interp_coinductive(gis.rules, interp_inductive(gis.combined(), universe))


@dataclass(frozen=True)
class CoinductionCheck:
    passed: bool
    witness: Optional[Judgment] = None
    reason: Optional[str] = None  # "consistency" | "boundedness"


def bounded_coinduction_check(
    gis: GeneralizedIS, X: AbstractSet[Judgment], universe: AbstractSet[Judgment]
) -> CoinductionCheck:
    """Bounded coinduction: X rules-consistent and inside Ind(rules + corules).

    A pass certifies X is contained in the corule interpretation; a fail
    carries a judgment violating one of the two clauses.
    """
    X = frozenset(X)
    bound = interp_inductive(gis.combined(), universe)
    for j in X:
        if j not in bound:
            return CoinductionCheck(False, j, "boundedness")
    for j in X:
        if not any(premises <= X for premises in gis.rules.premise_candidates(j)):
            return CoinductionCheck(False, j, "consistency")
    return CoinductionCheck(True)
