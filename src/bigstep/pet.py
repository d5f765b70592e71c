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
one.  One depth-first walk, ``_explore``, serves every run: it mutates
one list of frames in place and undoes each transition when it
backtracks, and stops at the end after which no answer is left.  The
first branch it ends is the first-successor run; ``run_exhaustive``
takes every end, and ``step`` every end after one transition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .node import node
from .oracle import (
    COMPLETIONS,
    Activation,
    Config,
    LanguageSemantics,
    ResultVal,
    checked_advance,
    checked_start,
)
from .util import Mark


UNKNOWN = Mark("?")
START = Mark("start")


class PartialEvalTree:
    """Ordered tree of judgments with at most one ``?`` per level.

    ``res`` is the judgment's result, or ``UNKNOWN`` for ``?``.  ``tag``
    records the partial-evaluation rule applied at the root: ``START`` for
    a fresh node, the ``Activation`` of a partially applied rule for an
    internal in-progress node, and the rule's name, a ``str``, for a
    finished node.
    """

    __slots__ = ("config", "res", "tag", "children")

    def __init__(self, config: Config, res: ResultVal,
                 tag: Union[Mark, Activation, str],
                 children: Tuple["PartialEvalTree", ...]):
        self.config = config
        self.res = res
        self.tag = tag
        self.children = children

    @property
    def is_complete(self) -> bool:
        return self.res is not UNKNOWN

    def skeleton(self) -> tuple:
        """Config/result shape, forgetting rule annotations, folded from
        ``_shape()`` read backwards: each node finds its children's
        skeletons on top of ``done``, the first child on top."""
        done = []
        for config, res, n in reversed(self._shape()):
            kids = tuple(done.pop() for _ in range(n))
            done.append((config, "?" if res is UNKNOWN else ("!", res), kids))
        return done[0]

    def _shape(self) -> tuple:
        """``(config, res, number of children)`` of every node, in pre-order:
        the tree but for its tags, flat, so two shapes compare without
        recursing.  It keys every merged end, so it keeps no ``walk()`` path."""
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            out.append((t.config, t.res, len(t.children)))
            todo += t.children[::-1]
        return tuple(out)

    def walk(self) -> Iterator[Tuple[list, "PartialEvalTree"]]:
        """``(path, subtree)`` for every node, in pre-order.

        ``path`` is one list, updated in place: a dummy index, then the
        child indices from the root, so ``path[1:]`` is the node's
        position.  Copy it to keep it.  Built without recursion: ``todo``
        holds the subtrees still to visit, the next one on top.
        """
        path, todo = [], [(0, 0, self)]
        while todo:
            depth, i, t = todo.pop()
            path[depth:] = (i,)
            yield path, t
            kids = t.children
            if kids:
                todo += [(depth + 1, j, kids[j]) for j in range(len(kids) - 1, -1, -1)]

    def positions(self) -> Iterator[Tuple[tuple, "PartialEvalTree"]]:
        """``(position, subtree)`` for every node, in pre-order; a position
        lists the child indices from the root."""
        return ((tuple(path[1:]), t) for path, t in self.walk())

    def _nodes(self) -> tuple:
        """``(config, res, tag, number of children)`` of every node, in
        pre-order, which fixes the tree."""
        return tuple((t.config, t.res, t.tag, len(t.children)) for _, t in self.walk())

    def __hash__(self):
        return hash(self._nodes())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PartialEvalTree) and self._nodes() == other._nodes())

    def __repr__(self):
        """``<config => res>``, or ``<config => res [child child ...]>``.

        ``opened`` counts the brackets still open; before each node, all
        but those of its ancestors close.
        """
        out, opened = [], 0
        for path, t in self.walk():
            depth = len(path) - 1
            out.append(f"{']>' * (opened - depth)}{' ' if path[-1] else ''}"
                       f"<{t.config!r} => {t.res!r}{' [' if t.children else '>'}")
            opened = depth + bool(t.children)
        out.append("]>" * opened)
        return "".join(out)


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


def dead_end(config: Config, act, result: ResultVal = None) -> StuckInfo:
    """Where ``config`` is stuck when no rule answers: no rule starts it
    (``act`` is ``START``), or none continues ``act`` with ``result``."""
    if act is START:
        return StuckInfo(StuckKind.NO_RULE, config)
    return StuckInfo(StuckKind.NO_CONTINUATION, config, act.rule_family, act.index, result)


class _Frame:
    """One node of the active path: a live judgment ``config => ?``.

    ``children`` are the completed premises; on every frame but the top,
    the pending premise is the next frame up.  A run owns its frames and
    mutates them in place: it re-tags a frame and appends to or drops
    from its ``children`` (a new tuple each time, so folded trees never
    change).  ``chash`` is the hash of ``config``, computed once, when the
    frame is built.  ``shadow`` is the position of the next lower frame on
    the path whose ``chash`` is the same, or ``None``; the run sets it
    when it pushes the frame.
    """

    __slots__ = ("config", "tag", "children", "chash", "shadow")

    def __init__(self, config: Config, tag: Union[Mark, Activation],
                 children: Tuple[PartialEvalTree, ...]):
        self.config = config
        self.tag = tag
        self.children = children
        self.chash = hash(config)


def _fold(path: Sequence[_Frame]) -> PartialEvalTree:
    """The partial evaluation tree whose active path is ``path``."""
    tree = None
    for f in reversed(path):
        children = f.children if tree is None else f.children + (tree,)
        tree = PartialEvalTree(f.config, UNKNOWN, f.tag, children)
    return tree


def _unfold(t: PartialEvalTree) -> List[_Frame]:
    """The active path of the incomplete tree ``t``, as frames."""
    path = active_path(t)
    top = len(path) - 1
    return [_Frame(e.config, e.node.tag,
                   e.node.children if i == top else e.node.children[:-1])
            for i, e in enumerate(path)]


def tree_leq(t1: PartialEvalTree, t2: PartialEvalTree) -> bool:
    """Refinement order: ``t2`` adds branches or resolves ``?`` in ``t1``.

    A complete subtree of ``t1`` must reappear in ``t2`` with the same
    skeleton.  Built without recursion: ``todo`` holds the pairs of
    subtrees still to compare, each with whether it lies in a complete
    subtree of ``t1``.
    """
    todo = [(t1, t2, False)]
    while todo:
        a, b, same = todo.pop()
        same = same or a.is_complete
        if (a.config != b.config or len(a.children) > len(b.children)
                or same and (a.res != b.res or len(a.children) != len(b.children))):
            return False
        todo += [(x, y, same) for x, y in zip(a.children, b.children)]
    return True


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
    unknown_levels = set()
    for path, node in t.walk():
        if node.res is UNKNOWN:
            if len(path) in unknown_levels:
                return tuple(path[1:]), "more than one ? at a level"
            unknown_levels.add(len(path))
            continue
        for i, ch in enumerate(node.children):
            if ch.res is UNKNOWN:
                return tuple(path[1:]) + (i,), "? child under complete parent"
    if t.is_complete and unknown_levels:
        return (), "complete root over incomplete node"
    if not t.is_complete and not unknown_levels:
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
    # the shape's root holds a converged result and fixes the stuck kind;
    # diverging branches that reach one cycle along different paths differ
    tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
    return type(o), tree._shape()


def _explore(sem: LanguageSemantics, path: List[_Frame], fuel: int,
             on_tree: Optional[Callable[[PartialEvalTree], None]] = None
             ) -> Iterator[Tuple[int, Outcome]]:
    """Every branch from the active path ``path``, depth first.

    Yields one ``(steps, outcome)`` pair per branch end, taking the
    oracle's answers in order, so the first pair ends the first-successor
    run; ``steps`` counts the transitions before the branch's last oracle
    query, or is ``fuel``, which bounds the transitions of every branch.
    ``on_tree``, if given, is called on every tree taken; trees are folded
    from the path only for it and the outcomes.

    The walk owns ``path`` and its frames and mutates them in place,
    undoing each transition when it backtracks: a completion pops the top
    frame and appends its tree to the new top's ``children``, and its undo
    drops that child and pushes the frame back; a demand re-tags the top
    frame and pushes a fresh one, and its undo pops the fresh frame and
    restores the tag.  The walk stops at the branch end after which no
    transition of the path has an answer left, without undoing the path;
    a count of the transitions with answers left tells it when.  A demand
    closes a cycle if the demanded configuration is already on the path:
    every frame began fresh with its configuration, so the demand replays
    that frame's whole trajectory, a genuine loop.  ``index`` maps a hash
    to the position of the deepest frame with it (``None`` once none is
    left), the ``shadow``s chain the lower ones, and configurations are
    compared only along that chain.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    index: dict = {}
    for i, f in enumerate(path):
        f.shadow = index.get(f.chash)
        index[f.chash] = i
    # per transition of the current branch: (answers, position of the
    # answer taken, the frame queried, its tag when queried); ``left``
    # counts the entries with an answer after the one taken
    taken: list = []
    left = 0
    end = None
    while True:
        a = None
        if end is None:
            steps = len(taken)
            top = path[-1]
            if steps == fuel:
                yield steps, OutOfFuel(_fold(path))
            else:
                act = top.tag
                if act is START:
                    answers = checked_start(sem, top.config)
                else:
                    result = top.children[-1].res
                    answers = checked_advance(sem, act, result)
                if answers:
                    taken.append((answers, 0, top, act))
                    left += len(answers) > 1
                    a = answers[0]
                else:
                    stuck = dead_end(top.config, act, None if act is START else result)
                    yield steps, Stuck(_fold(path), stuck.kind, steps, stuck)
        # after an end, undo transitions until one has an answer left;
        # with none left, the walk is over and the path is left as it is
        while a is None:
            if not left:
                return
            answers, i, top, tag = taken[-1]
            if isinstance(answers[i], COMPLETIONS):
                if path:
                    path[-1].children = path[-1].children[:-1]
                index[top.chash] = len(path)
                path.append(top)
            else:
                fresh = path.pop()
                index[fresh.chash] = fresh.shadow
                top.tag = tag
            i += 1
            if i < len(answers):
                taken[-1] = (answers, i, top, tag)
                a = answers[i]
                left -= i + 1 == len(answers)
            else:
                taken.pop()
        steps = len(taken) - 1
        end = None
        if isinstance(a, COMPLETIONS):
            rule = a.rule if a.rule is not None else top.tag.rule_family
            done = PartialEvalTree(top.config, a.result, rule, top.children)
            path.pop()
            index[top.chash] = top.shadow
            if path:
                path[-1].children += (done,)
            else:
                end = Converged(a.result, done, steps + 1)
        else:
            top.tag = a.activation
            config = a.config
            fresh = _Frame(config, START, ())
            j = fresh.shadow = index.get(fresh.chash)
            while j is not None and path[j].config != config:
                j = path[j].shadow
            index[fresh.chash] = len(path)
            path.append(fresh)
            if j is not None:
                # each frame's pending premise follows its completed ones
                end = Diverges(DivergenceCertificate(tuple(
                    (g.config, g.tag.rule_family, len(g.children) + 1)
                    for g in path[j:-1]), config), _fold(path))
        if on_tree is not None:
            on_tree(_fold(path) if end is None else end.tree)
        if end is not None:
            yield steps, end


def step(sem: LanguageSemantics, t: PartialEvalTree) -> Tuple[PartialEvalTree, ...]:
    """One-step successors of ``t``; empty iff ``t`` is irreducible."""
    if t.is_complete:
        return ()
    return tuple(o.frontier if isinstance(o, OutOfFuel) else o.tree
                 for _, o in _explore(sem, _unfold(t), 1)
                 if not isinstance(o, Stuck))


def run_first(sem: LanguageSemantics, config: Config, fuel: int) -> Outcome:
    """Follow the first successor at every step, at most ``fuel`` steps."""
    return next(_explore(sem, [_Frame(config, START, ())], fuel))[1]


def run_history(sem: LanguageSemantics, config: Config, fuel: int
                ) -> Tuple[List[PartialEvalTree], Outcome]:
    """First-successor run keeping the whole transition sequence.

    The walk is dropped at its first end, so no other answer ever builds
    a tree.
    """
    history = [initial_tree(config)]
    _, outcome = next(_explore(sem, [_Frame(config, START, ())], fuel,
                               history.append))
    return history, outcome


def run_exhaustive(sem: LanguageSemantics, config: Config, fuel: int,
                   validate: bool = False) -> Tuple[Outcome, ...]:
    """Every nondeterministic branch, each at most ``fuel`` transitions.

    Paths are never compared: each distinct oracle answer opens its own
    branch, and outcomes are merged by ``_outcome_key`` only.  Outcomes
    come in breadth-first order, the first of equal ones kept: by the
    transitions before the branch ended, then in answer order, the order
    a depth-first walk ends branches of equal length in.  A run with one
    end returns its outcome as it is; only a run with two or more keys
    its ends, and so builds their flat shapes.  With ``validate``, every
    tree taken is checked.
    """
    ends = list(_explore(sem, [_Frame(config, START, ())], fuel,
                         _validate if validate else None))
    if len(ends) == 1:
        return (ends[0][1],)
    ends.sort(key=itemgetter(0))
    outcomes: dict = {}
    for _, o in ends:
        outcomes.setdefault(_outcome_key(o), o)
    return tuple(outcomes.values())


def run(sem: LanguageSemantics, config: Config, fuel: int,
        strategy: str = "first"):
    """Evaluate ``config``: one outcome (``first``) or all (``exhaustive``)."""
    if strategy == "first":
        return run_first(sem, config, fuel)
    if strategy == "exhaustive":
        return run_exhaustive(sem, config, fuel)
    raise ValueError(f"unknown strategy {strategy!r}")
