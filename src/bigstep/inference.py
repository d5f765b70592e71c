"""Generic inference systems with rules and corules.

An inference system is represented intensionally by its *inverse* rule
query: given a judgment, stream the finite premise sets of all rules
concluding it.  The stream is finite and read once, and the same premise
set may come more than once: a repeated set is the same rule twice, which
changes no fixpoint (see ``InferenceSystem``).  So ``union`` chains two
streams, and records the base systems it chains as its ``parts``.

All fixpoints are computed on a finite universe of judgments, a
``Universe``: a frozenset that numbers its judgments and keeps, for each
base system it has queried, that system's rules as integer tables.  Each
system is queried at most once per judgment of a universe, by one loop
that draws every premise set: ``reachable_universe`` closes a goal set
under premises with it, up to a hard cap that it checks as each premise
is drawn, and records the tables of every part of its system on the way;
a fixpoint given a plain set numbers it first, and a fixpoint asked about
a system the universe has not queried yet draws that system's tables
then.  The tables belong to the universe and die with it.

The fixpoints run worklists over those tables, in the style of Dowling
and Gallier's linear-time Horn-SAT: each rule counts its premises (least
fixpoint) or each judgment its live rules (greatest fixpoint), and the
rules waiting on a judgment are a chain of premise slots threaded through
flat lists of ints and walked in place, so each costs O(|U| + R + P) for
R rules with P premises in all.  ``interp_corules`` runs the greatest
fixpoint of the rules inside the least fixpoint of rules and corules on
one pair of tables; the universe keeps that least fixpoint's flags, so
``bounded_coinduction_check`` on the same universe reads them instead of
computing them again, and reads its consistency clause off the live-rule
counts that the greatest fixpoint starts from.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from operator import gt, not_
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

    A union keeps the base systems it chains in ``unites``; a universe
    queries and tables each of them on its own.
    """

    premise_candidates: Callable[[Judgment], Iterable[AbstractSet[Judgment]]]
    unites: tuple = field(default=(), repr=False)

    @property
    def parts(self) -> tuple:
        """The base systems whose rules this system's rules are."""
        return self.unites or (self,)

    def union(self, other: "InferenceSystem") -> "InferenceSystem":
        mine, theirs = self.premise_candidates, other.premise_candidates
        return InferenceSystem(lambda j: chain(mine(j), theirs(j)),
                               self.parts + other.parts)


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


class _Rules:
    """One base system's rules over a universe, as flat lists of ints.

    Rule ``r`` concludes judgment number ``conclusion[r]`` and has
    ``size[r]`` premises, each one premise slot.  The slots waiting on
    judgment ``k`` form a chain: ``first[k]`` is the newest (-1 for none),
    ``after[slot]`` the next one in the chain and ``owner[slot]`` the rule
    that the slot belongs to.  When no rule has a premise, ``after`` is
    empty and ``first`` is ``None``.
    """

    __slots__ = ("conclusion", "size", "first", "after", "owner")

    def __init__(self, conclusion: list, size: list, first: Optional[list],
                 after: list, owner: list):
        self.conclusion, self.size = conclusion, size
        self.first, self.after, self.owner = first, after, owner


def _draw(parts, judgments: list, index: dict, cap: Optional[int] = None) -> list:
    """Query each part once about each judgment, in number order.

    Returns each part's ``_Rules``, threading each premise slot onto its
    judgment's chain as the rule is drawn.  With a ``cap``, a premise not
    yet numbered is numbered next, extends every part's ``first`` by -1
    and is queried in turn, and ``UniverseOverflow`` is raised as soon as
    there would be more than ``cap`` judgments, before the rest of the
    current query's stream is drawn.  Without one, the judgments are
    fixed, and a rule with a premise outside them is left out before any
    of its slots is threaded: it can neither fire nor stay live.
    """
    drawn = [(part.premise_candidates, [], [], [-1] * len(judgments), [], [])
             for part in parts]
    # setdefault returns the very ``fresh`` object passed exactly when it
    # numbers a new judgment; without a cap each premise that gets to the
    # lookup is numbered
    lookup, fresh = (index.get, None) if cap is None else (index.setdefault, len(index))
    # the loop also visits the judgments that it appends
    for k, j in enumerate(judgments):
        for query, conclusion, size, first, after, owner in drawn:
            for premise_set in query(j):
                if cap is None and not all(map(index.__contains__, premise_set)):
                    continue
                r, slot = len(conclusion), len(owner)
                conclusion.append(k)
                for p in premise_set:
                    i = lookup(p, fresh)
                    if i is fresh:
                        judgments.append(p)
                        fresh = len(judgments)
                        if fresh > cap:
                            raise UniverseOverflow(cap)
                        for d in drawn:
                            d[3].append(-1)
                    after.append(first[i])
                    first[i] = len(owner)
                    owner.append(r)
                size.append(len(owner) - slot)
    return [_Rules(c, s, f if a else None, a, o) for _, c, s, f, a, o in drawn]


def _numbers(judgments: Iterable[Judgment]) -> dict:
    """Each distinct judgment's number, in iteration order."""
    index: dict = {}
    for j in judgments:
        index.setdefault(j, len(index))
    return index


class Universe(frozenset):
    """A finite set of judgments that numbers them and keeps their rules.

    ``judgments[k]`` is judgment number ``k`` and ``index`` maps each
    judgment back to its number.  As a set it is the frozenset of its
    judgments: it compares and hashes as one, and ``u | s`` and the other
    set operations return a plain frozenset.  ``Universe(judgments)``
    numbers them in iteration order.  The rule tables of each base system
    are drawn on the first fixpoint that needs them and kept here, and
    nowhere else; so are the flags of the least fixpoint of rules and
    corules, once per set of their parts (see ``_bound``).
    """

    __slots__ = ("judgments", "index", "_tables", "_bounds")

    def __new__(cls, judgments: Iterable[Judgment] = ()):
        return cls._numbered(_numbers(judgments), {})

    @classmethod
    def _numbered(cls, index: dict, tables: dict) -> "Universe":
        self = frozenset.__new__(cls, index)  # reuses the dict's hashes
        self.judgments, self.index, self._tables = list(index), index, tables
        self._bounds = {}
        return self

    def tables(self, sys: InferenceSystem) -> list:
        """The tables of the parts of ``sys``, drawn once per part."""
        parts = list(dict.fromkeys(sys.parts))
        new = [p for p in parts if p not in self._tables]
        if new:
            self._tables.update(zip(new, _draw(new, self.judgments, self.index)))
        return [self._tables[p] for p in parts]

    def subset(self, flags) -> FrozenSet[Judgment]:
        """The judgments whose numbers have a true flag."""
        return frozenset(compress(self.judgments, flags))


def _universe(judgments: AbstractSet[Judgment]) -> Universe:
    return judgments if isinstance(judgments, Universe) else Universe(judgments)


def reachable_universe(
    sys: InferenceSystem, goals: AbstractSet[Judgment], cap: int
) -> Universe:
    """Smallest set containing the goals and closed under rule premises.

    Raises ``UniverseOverflow`` as soon as the set would exceed ``cap``
    judgments, before the rest of the current query's stream is drawn.
    Each call builds a fresh universe, holding the tables of every part
    of ``sys``.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    index = _numbers(goals)
    if len(index) > cap:
        raise UniverseOverflow(cap)
    parts = list(dict.fromkeys(sys.parts))
    tables = dict(zip(parts, _draw(parts, list(index), index, cap)))
    return Universe._numbered(index, tables)


def _least(tables: list, n: int) -> bytearray:
    """Flags of the least closed subset of ``n`` judgments under the rules.

    Each rule counts its premises not yet derived.  A judgment is derived
    once; it then decrements the rules waiting on it and fires those that
    reach zero.
    """
    derived = bytearray(n)
    todo: list = []
    waits = []
    for t in tables:
        todo += compress(t.conclusion, map(not_, t.size))
        if t.after:
            waits.append((t.first, t.after, t.owner, t.conclusion, t.size.copy()))
    while todo:
        k = todo.pop()
        if derived[k]:
            continue
        derived[k] = 1
        for first, after, owner, conclusion, missing in waits:
            slot = first[k]
            while slot >= 0:
                r = owner[slot]
                missing[r] -= 1
                if not missing[r]:
                    todo.append(conclusion[r])
                slot = after[slot]
    return derived


def _live(tables: list, inside: bytes) -> tuple:
    """Each table's dead-rule flags and each judgment's live-rule count.

    A rule is dead when its conclusion or one of its premises is not
    flagged ``inside``; a judgment outside has no live rule.
    """
    live = [0] * len(inside)
    outside = list(compress(range(len(inside)), map(not_, inside)))
    dead = []
    for t in tables:
        d = bytearray(map(not_, map(inside.__getitem__, t.conclusion)))
        if t.after:
            first, after, owner = t.first, t.after, t.owner
            for k in outside:
                slot = first[k]
                while slot >= 0:
                    d[owner[slot]] = 1
                    slot = after[slot]
        for c in compress(t.conclusion, map(not_, d)):
            live[c] += 1
        dead.append(d)
    return dead, live


def _greatest(tables: list, inside: bytes) -> list:
    """Live-rule counts, nonzero exactly on the largest consistent subset
    of the judgments flagged ``inside``.

    Removing a judgment kills the rules waiting on it and removes every
    conclusion left without a live rule.
    """
    dead, live = _live(tables, inside)
    # inside[k] > live[k] exactly when k is inside with no live rule
    removed = list(compress(range(len(inside)), map(gt, inside, live)))
    waits = [(t.first, t.after, t.owner, t.conclusion, d)
             for t, d in zip(tables, dead) if t.after]
    while removed:
        k = removed.pop()
        for first, after, owner, conclusion, d in waits:
            slot = first[k]
            while slot >= 0:
                r = owner[slot]
                if not d[r]:
                    d[r] = 1
                    c = conclusion[r]
                    live[c] -= 1
                    if not live[c]:
                        removed.append(c)
                slot = after[slot]
    return live


def _bound(gis: GeneralizedIS, u: Universe) -> bytes:
    """Flags of Ind(rules + corules) on ``u``, computed once per set of
    parts and kept on ``u`` as bytes, which no fixpoint can write."""
    key = frozenset(gis.rules.parts + gis.corules.parts)
    flags = u._bounds.get(key)
    if flags is None:
        flags = u._bounds[key] = bytes(_least(u.tables(gis.combined()), len(u)))
    return flags


def interp_inductive(
    sys: InferenceSystem, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Least sys-closed subset of the finite universe."""
    u = _universe(universe)
    return u.subset(_least(u.tables(sys), len(u)))


def interp_coinductive(
    sys: InferenceSystem, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Largest sys-consistent subset of the finite universe.

    A rule with a premise outside the universe is dead from the start.
    """
    u = _universe(universe)
    return u.subset(_greatest(u.tables(sys), bytearray(b"\1") * len(u)))


def interp_corules(
    gis: GeneralizedIS, universe: AbstractSet[Judgment]
) -> FrozenSet[Judgment]:
    """Interpretation of an inference system with corules.

    The greatest rules-consistent subset of the judgments inductively
    derivable using rules and corules together.  The universe must be
    finite and closed under premises of both systems.
    """
    u = _universe(universe)
    return u.subset(_greatest(u.tables(gis.rules), _bound(gis, u)))


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
    carries the first judgment of X, in its iteration order, violating
    one of the two clauses, boundedness checked first.
    """
    X = frozenset(X)
    u = _universe(universe)
    bound, index = _bound(gis, u), u.index
    for j in X:
        k = index.get(j)
        if k is None or not bound[k]:
            return CoinductionCheck(False, j, "boundedness")
    inside = bytearray(len(u))
    for j in X:
        inside[index[j]] = 1
    live = _live(u.tables(gis.rules), inside)[1]
    for j in X:
        if not live[index[j]]:
            return CoinductionCheck(False, j, "consistency")
    return CoinductionCheck(True)
