"""Partial evaluation trees and the one-step transition relation.

The executable computation model for any rule oracle.  A partial
evaluation tree is an ordered tree of judgments in which the placeholder
result ``?`` marks the frontier of an in-progress evaluation.  One
transition refines the tree at its unique deepest incomplete node:

* a fresh node applies a start rule - either an axiom completes it or the
  first premise of some rule is demanded;
* a node whose last premise just completed either finishes with a rule
  having exactly these premises or demands the next premise of an
  equivalent rule;
* otherwise the step of the unique incomplete child is propagated.

A maximal sequence of transitions ends in a complete tree (convergence),
reaches an incomplete tree with no successor (stuck), or never ends
(divergence, witnessed here by a finite cyclic certificate).

Runs do not rebuild trees.  A live computation is held as its active
path, a stack of frames from the root to the incomplete node the next
transition refines, so a transition touches only the top frame; trees
are folded from the path where an outcome, a history or ``step`` needs
one.  A first-successor run mutates one list of frames in place;
exhaustive branches share their frames as persistent tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .node import node
from .oracle import (
    Activation,
    Axiom,
    BsJudgment,
    Config,
    Finished,
    LanguageSemantics,
    OracleContractError,
    ResultVal,
)
from .util import dedup


class _UnknownType:
    __slots__ = ()

    def __repr__(self):
        return "?"


UNKNOWN = _UnknownType()


@node
class Known:
    value: ResultVal


UnResult = Union[_UnknownType, Known]


class _StartTag:
    __slots__ = ()

    def __repr__(self):
        return "start"


START = _StartTag()


@node
class CompletedRule:
    rule: str


RuleTag = Union[_StartTag, Activation, CompletedRule]


class PartialEvalTree:
    """Ordered tree of judgments with at most one ``?`` per level.

    ``tag`` records the partial-evaluation rule applied at the root: the
    start rule for a fresh node, the activation of a partially applied
    rule for an internal in-progress node, and the completed rule for a
    finished node.
    """

    __slots__ = ("config", "res", "tag", "children")

    def __init__(self, config: Config, res: UnResult, tag: RuleTag,
                 children: Tuple["PartialEvalTree", ...]):
        self.config = config
        self.res = res
        self.tag = tag
        self.children = children

    @property
    def is_complete(self) -> bool:
        return self.res is not UNKNOWN

    def skeleton(self) -> tuple:
        """Config/result shape, forgetting rule annotations."""
        res = "?" if self.res is UNKNOWN else ("!", self.res.value)
        return (self.config, res, tuple(ch.skeleton() for ch in self.children))

    def positions(self):
        yield (), self
        for i, ch in enumerate(self.children):
            for pos, node in ch.positions():
                yield (i,) + pos, node

    def __hash__(self):
        return hash((self.config, self.res, self.tag, self.children))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PartialEvalTree)
            and self.config == other.config and self.res == other.res
            and self.tag == other.tag and self.children == other.children)

    def __repr__(self):
        res = "?" if self.res is UNKNOWN else repr(self.res.value)
        if not self.children:
            return f"<{self.config!r} => {res}>"
        kids = " ".join(repr(c) for c in self.children)
        return f"<{self.config!r} => {res} [{kids}]>"


def initial_tree(config: Config) -> PartialEvalTree:
    """A single fresh node ``config => ?``."""
    return PartialEvalTree(config, UNKNOWN, START, ())


class StuckKind(Enum):
    NO_RULE = "no-rule"
    NO_CONTINUATION = "no-continuation"


@node
class StuckInfo:
    kind: StuckKind
    config: Config
    rule_family: Optional[str] = None
    premise_index: Optional[int] = None
    result: ResultVal = None


class _Frame:
    """One node of the active path: a live judgment ``config => ?``.

    ``children`` are the completed premises; on every frame but the top,
    the pending premise is the next frame up.  A first-successor run owns
    its frames and mutates them in place: it re-tags the top frame and
    appends to ``children`` (a new tuple each time, so folded trees never
    change).  Exhaustive frames are shared between branches and never
    mutated; ``chash`` is the hash of their ``config``, computed once when
    the frame is pushed, for the cycle scan.  First-successor frames leave
    it ``None``.
    """

    __slots__ = ("config", "tag", "children", "chash")

    def __init__(self, config: Config, tag: Union[_StartTag, Activation],
                 children: Tuple[PartialEvalTree, ...], chash: Optional[int] = None):
        self.config = config
        self.tag = tag
        self.children = children
        self.chash = chash


# An exhaustive branch is its active path: a tuple of frames, root first.
Path = Tuple[_Frame, ...]


def _fresh(config: Config) -> _Frame:
    return _Frame(config, START, (), hash(config))


def _fold(path: Sequence[_Frame]) -> PartialEvalTree:
    """The partial evaluation tree whose active path is ``path``."""
    tree = None
    for f in reversed(path):
        children = f.children if tree is None else f.children + (tree,)
        tree = PartialEvalTree(f.config, UNKNOWN, f.tag, children)
    return tree


def _unfold(t: PartialEvalTree) -> Path:
    """The active path of the incomplete tree ``t``, as frames."""
    path = active_path(t)
    top = len(path) - 1
    return tuple(_Frame(e.config, e.node.tag,
                        e.node.children if i == top else e.node.children[:-1],
                        hash(e.config))
                 for i, e in enumerate(path))


def _answers(sem: LanguageSemantics, top: _Frame
             ) -> Tuple[tuple, Optional[StuckInfo]]:
    """The oracle's answers about the top frame, or its stuck info.

    Every answer is checked against the oracle contract at once: the
    activation a start rule or a demand hands back must extend the
    queried one, and no demand may exceed the premise bound.
    """
    config = top.config
    if top.tag is START:
        answers = dedup(sem.start(config))
        if not answers:
            return (), StuckInfo(StuckKind.NO_RULE, config)
        for s in answers:
            if not isinstance(s, Axiom) and (s.activation.completed
                                             or s.activation.pending != s.config):
                raise OracleContractError(
                    f"start activation malformed for {config!r}")
        return answers, None
    act: Activation = top.tag
    result = top.children[-1].res.value
    answers = dedup(sem.advance(act, result))
    if not answers:
        return (), StuckInfo(StuckKind.NO_CONTINUATION, config,
                             act.rule_family, len(top.children), result)
    expected = act.completed + (BsJudgment(act.pending, result),)
    for c in answers:
        if isinstance(c, Finished):
            continue
        nxt = c.activation
        if (nxt.completed != expected
                or nxt.conclusion_config != act.conclusion_config
                or nxt.pending != c.config):
            raise OracleContractError(
                f"advance activation malformed for {config!r}")
        if len(top.children) + 1 > sem.premise_bound(config):
            raise OracleContractError(
                f"premise bound exceeded for {config!r}")
    return answers, None


def _completed(top: _Frame, answer: Union[Axiom, Finished]) -> PartialEvalTree:
    """The tree of ``top`` completed by ``answer``."""
    rule = answer.rule if answer.rule is not None else top.tag.rule_family
    return PartialEvalTree(top.config, Known(answer.result), CompletedRule(rule),
                           top.children)


def _certificate(cycle: Sequence[_Frame], entry: Config) -> "DivergenceCertificate":
    """The witness of a demand of ``entry`` by the last of ``cycle``, whose
    first frame began with ``entry``."""
    # each frame's pending premise follows its completed ones
    return DivergenceCertificate(tuple(
        (g.config, g.tag.rule_family, len(g.children) + 1) for g in cycle), entry)


def _successors(path: Path, answers: tuple):
    """(successor, certificate or None) pairs of ``path``, one per answer.

    A successor is the next active path or, once the root completes, the
    complete tree.  A completion pops the top frame and hands its tree to
    the frame below; a demand re-tags the top frame and pushes a fresh
    one.  A demand closes a cycle if the demanded configuration is
    already on the path: every frame began fresh with its configuration,
    so the demand replays that frame's whole trajectory, a genuine loop.
    Configurations are compared only where their cached hashes agree.
    """
    top = path[-1]
    below = path[:-1]
    for a in answers:
        if isinstance(a, (Axiom, Finished)):
            done = _completed(top, a)
            if below:
                f = below[-1]
                yield below[:-1] + (_Frame(f.config, f.tag, f.children + (done,),
                                           f.chash),), None
            else:
                yield done, None
            continue
        fresh = _fresh(a.config)
        succ = below + (_Frame(top.config, a.activation, top.children, top.chash),
                        fresh)
        cert = None
        for i in range(len(path) - 1, -1, -1):
            f = path[i]
            if f.chash == fresh.chash and f.config == fresh.config:
                cert = _certificate(succ[i:-1], fresh.config)
                break
        yield succ, cert


def step(sem: LanguageSemantics, t: PartialEvalTree) -> Tuple[PartialEvalTree, ...]:
    """One-step successors of ``t``; empty iff ``t`` is irreducible."""
    if t.is_complete:
        return ()
    path = _unfold(t)
    answers, _ = _answers(sem, path[-1])
    return tuple(s if isinstance(s, PartialEvalTree) else _fold(s)
                 for s, _ in _successors(path, answers))


def tree_leq(t1: PartialEvalTree, t2: PartialEvalTree) -> bool:
    """Refinement order: ``t2`` adds branches or resolves ``?`` in ``t1``."""
    if t1.config != t2.config:
        return False
    if t1.is_complete:
        return t1.skeleton() == t2.skeleton()
    if len(t1.children) > len(t2.children):
        return False
    return all(tree_leq(a, b) for a, b in zip(t1.children, t2.children))


@node
class PathEntry:
    config: Config
    rule_family: Optional[str]  # None on the fresh frontier node
    premise_index: Optional[int]
    node: PartialEvalTree


def active_path(t: PartialEvalTree) -> Tuple[PathEntry, ...]:
    """Root-to-frontier path through the unique incomplete node per level."""
    if t.is_complete:
        raise ValueError("active_path requires an incomplete tree")
    entries: List[PathEntry] = []
    node = t
    while True:
        if node.tag is START:
            entries.append(PathEntry(node.config, None, None, node))
            return tuple(entries)
        act: Activation = node.tag
        entries.append(PathEntry(node.config, act.rule_family, len(node.children), node))
        last = node.children[-1]
        if last.is_complete:
            # frontier is this node itself, pending an advance
            return tuple(entries)
        node = last


def check_pet_invariants(t: PartialEvalTree) -> Optional[Tuple[tuple, str]]:
    """None if the structural invariants hold, else (position, reason).

    Checks: a ``?`` child forces a ``?`` parent; at most one ``?`` per
    depth level; the root is complete iff the whole tree is.
    """
    unknown_at_level: dict = {}
    any_unknown = False
    for pos, node in t.positions():
        if node.res is UNKNOWN:
            any_unknown = True
            level = len(pos)
            if level in unknown_at_level:
                return pos, "more than one ? at a level"
            unknown_at_level[level] = pos
        for i, ch in enumerate(node.children):
            if ch.res is UNKNOWN and node.res is not UNKNOWN:
                return pos + (i,), "? child under complete parent"
    if t.is_complete and any_unknown:
        return (), "complete root over incomplete node"
    if not t.is_complete and not any_unknown:
        return (), "? root with no ? node"
    return None


@dataclass(frozen=True)
class DivergenceCertificate:
    """Finite cyclic witness of a non-terminating computation.

    Each entry names a configuration, the rule family applied to it and
    the premise index whose demanded configuration is the next entry's
    (cyclically).  All earlier premises of each entry converge.
    """

    witness: Tuple[Tuple[Config, str, int], ...]
    entry: Config


@dataclass(frozen=True)
class Converged:
    result: ResultVal
    tree: PartialEvalTree
    steps: int


@dataclass(frozen=True)
class Stuck:
    tree: PartialEvalTree
    kind: StuckKind
    steps: int
    info: StuckInfo


@dataclass(frozen=True)
class Diverges:
    certificate: DivergenceCertificate
    tree: PartialEvalTree  # tree at detection time, for trace extraction


@dataclass(frozen=True)
class OutOfFuel:
    frontier: PartialEvalTree


Outcome = Union[Converged, Stuck, Diverges, OutOfFuel]


def _validate(t: PartialEvalTree) -> None:
    bad = check_pet_invariants(t)
    if bad is not None:
        raise AssertionError(f"PET invariant violated at {bad[0]}: {bad[1]}")


def _outcome_key(o: Outcome):
    # the skeleton's root holds a converged result and fixes the stuck kind;
    # diverging branches that reach one cycle along different paths differ
    tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
    return type(o), tree.skeleton()


def _first(sem: LanguageSemantics, config: Config, fuel: int,
           on_tree: Optional[Callable[[PartialEvalTree], None]] = None
           ) -> Outcome:
    """Follow the first successor at every step, at most ``fuel`` steps.

    The run owns its active path, a list of frames mutated in place, and
    ``index`` maps each configuration on it to its position, so the cycle
    check is one dict probe; a configuration leaves ``index`` when its
    frame completes.  ``on_tree``, if given, is called on every tree
    taken.  Trees are folded from the path only for the outcome and
    ``on_tree``.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    stack = [_Frame(config, START, ())]
    index = {config: 0}
    for steps in range(fuel):
        top = stack[-1]
        answers, stuck = _answers(sem, top)
        if stuck is not None:
            return Stuck(_fold(stack), stuck.kind, steps, stuck)
        a = answers[0]
        if isinstance(a, (Axiom, Finished)):
            done = _completed(top, a)
            stack.pop()
            del index[top.config]
            if not stack:
                if on_tree is not None:
                    on_tree(done)
                return Converged(a.result, done, steps + 1)
            stack[-1].children += (done,)
        else:
            top.tag = a.activation
            stack.append(_Frame(a.config, START, ()))
            i = index.setdefault(a.config, len(stack) - 1)
            if i < len(stack) - 1:
                tree = _fold(stack)
                if on_tree is not None:
                    on_tree(tree)
                return Diverges(_certificate(stack[i:-1], a.config), tree)
        if on_tree is not None:
            on_tree(_fold(stack))
    return OutOfFuel(_fold(stack))


def run_first(sem: LanguageSemantics, config: Config, fuel: int) -> Outcome:
    """Follow the first successor at every step."""
    return _first(sem, config, fuel)


def run_history(sem: LanguageSemantics, config: Config, fuel: int
                ) -> Tuple[List[PartialEvalTree], Outcome]:
    """First-successor run keeping the whole transition sequence."""
    history = [initial_tree(config)]
    outcome = _first(sem, config, fuel, on_tree=history.append)
    return history, outcome


def run_exhaustive(sem: LanguageSemantics, config: Config, fuel: int,
                   validate: bool = False) -> Tuple[Outcome, ...]:
    """Breadth-first exploration of every nondeterministic branch.

    Level by level, one transition per level: each successor is a branch
    and all branches advance together, so converging branches are found
    before fuel runs out on diverging siblings.  Fuel bounds the number of
    transitions along any single branch.  Branches share their frames as
    persistent tuples.  Paths are never compared: each distinct oracle
    answer opens its own branch, so an oracle that gives two distinct
    answers for the same rule gets two branches, and outcomes are merged
    by ``_outcome_key`` only.  Trees are folded from paths only for
    outcomes and, with ``validate``, to check every tree taken.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    outcomes: dict = {}

    def emit(o: Outcome) -> None:
        outcomes.setdefault(_outcome_key(o), o)

    frontier = [(_fresh(config),)]
    steps = 0
    while frontier and steps < fuel:
        nxt = []
        for path in frontier:
            answers, stuck = _answers(sem, path[-1])
            if stuck is not None:
                emit(Stuck(_fold(path), stuck.kind, steps, stuck))
                continue
            for s, cert in _successors(path, answers):
                done = isinstance(s, PartialEvalTree)
                if done:
                    tree = s
                elif validate or cert is not None:
                    tree = _fold(s)
                if validate:
                    _validate(tree)
                if done:
                    emit(Converged(s.res.value, s, steps + 1))
                elif cert is not None:
                    emit(Diverges(cert, tree))
                else:
                    nxt.append(s)
        frontier = nxt
        steps += 1
    for path in frontier:
        emit(OutOfFuel(_fold(path)))
    return tuple(outcomes.values())


def run(sem: LanguageSemantics, config: Config, fuel: int,
        strategy: str = "first"):
    """Evaluate ``config``: one outcome (``first``) or all (``exhaustive``)."""
    if strategy == "first":
        return run_first(sem, config, fuel)
    if strategy == "exhaustive":
        return run_exhaustive(sem, config, fuel)
    raise ValueError(f"unknown strategy {strategy!r}")
