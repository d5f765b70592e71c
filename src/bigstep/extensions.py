"""Semantics-extending constructions over any rule oracle.

Three canonical extensions of a big-step semantics, each a transformer
producing another rule oracle, plus evaluators on the stepper and on a
result table:

* traces  - results become (finite trace, value) pairs or an eventually
            periodic infinite trace; the trace collects every
            configuration visited, in premise order;
* wrong   - a special result marks stuck computations: introduced where
            no rule starts a configuration or no equivalent rule accepts
            a premise result, then propagated;
* divergence - a special infinity result propagated through premises,
            with one coaxiom per configuration so that infinite
            derivations prove nothing but divergence.

All three lift every base rule the same way and differ only in how a
result is lifted, lowered, propagated and shown; wrong and divergence
are one transformer, ``LiftedSemantics``, with a different mark.  The
total semantics combines wrong and divergence so every computation is
classified; ``evaluate`` runs the base semantics (mode ``plain``, the
identity extension) or any of the four extensions once and pairs each
stepper outcome with its extended value; its finite proof of divergence
is a cyclic certificate.  Exhaustive ``eval_div`` and ``eval_total``, the
certificate check and the audits read one record, ``Table(entries,
dead_ends, rejoined, spent)``, of results over the base rules closed by
a least fixpoint from its roots, an audit's whole corpus; ``_diverges``
is the greatest fixpoint of the divergence rules on its demand edges.
``fuel`` bounds a table's queries in all, a stepper branch's transitions.
"""
from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Any, Optional, Tuple, Union

from .node import node
from .oracle import (
    COMPLETIONS,
    Activation,
    Axiom,
    BsJudgment,
    Config,
    Demand,
    Finished,
    FirstPremise,
    LanguageSemantics,
    check_demand,
    check_first_premise,
    checked_advance,
    checked_start,
)
from .pet import (
    Converged,
    Diverges,
    DivergenceCertificate,
    START,
    Stuck,
    active_path,
    dead_end,
    run_exhaustive,
    run_first,
)
from .rational import RationalList
from .util import Mark


@node
class Ok:
    value: Any

    def __repr__(self):
        return f"Ok({self.value!r})"


WRONG = Mark("wrong")
INFINITY = Mark("infinity", rule="div")
NO_JUDGMENT = Mark("no-judgment")
STUCK_TRACE = Mark("stuck")
TIMEOUT = Mark("timeout")


@node
class FinTrace:
    steps: Tuple[Config, ...]
    result: Any


class InfTrace(RationalList):
    """A rational word of configurations: ``prefix . period^omega``."""


TraceResult = Union[FinTrace, InfTrace]


def trace_forget(tr: TraceResult):
    """Forget traces: finite pairs keep the value, infinite ones diverge."""
    if isinstance(tr, FinTrace):
        return Ok(tr.result)
    if isinstance(tr, InfTrace):
        return INFINITY
    raise TypeError(tr)


# ``lower``'s answer for an extended result with no base counterpart; not
# ``None``, which may be a base result
_NO_BASE = object()


def _trace_word(config, completed) -> Tuple[Config, ...]:
    """``config`` followed by the traces of the ``completed`` premises."""
    word = [config]
    for j in completed:
        word.extend(j.result.steps)
    return tuple(word)


class _Extension(LanguageSemantics):
    """Every base rule lifted to extended results, plus propagation rules.

    An extended activation holds the extended premise results and keeps
    the base activation in ``bindings``.  Subclasses define ``lift``,
    ``lower`` (``_NO_BASE`` for a result to ``propagate``) and
    ``show_result``.  A ``dead_end`` mark concludes every configuration no
    rule starts (``<r>-config``, ``<r>`` the mark's rule prefix) and every
    premise result no rule accepts (``<r>-result``).
    """

    def __init__(self, base: LanguageSemantics, dead_end: Optional[Mark] = None):
        self.base = base
        self.dead_end = dead_end

    def start(self, config):
        steps = self.base.start(config)
        if not steps and self.dead_end is not None:
            return (Axiom(self.dead_end, f"{self.dead_end.rule}-config"),)
        out = []
        for s in steps:
            if isinstance(s, Axiom):
                out.append(Axiom(self.lift(config, (), s.result), s.rule))
            else:
                check_first_premise(config, s)
                inner = s.activation
                out.append(FirstPremise(s.config, Activation(
                    inner.rule_family, inner.conclusion_config, (),
                    inner.pending, inner)))
        return tuple(out)

    def advance(self, a, r):
        value = self.lower(r)
        if value is _NO_BASE:
            return (self.propagate(a, r),)
        inner: Activation = a.bindings
        conts = self.base.advance(inner, value)
        if not conts and self.dead_end is not None:
            return (Finished(self.dead_end, f"{self.dead_end.rule}-result"),)
        completed = a.completed + (BsJudgment(a.pending, r),)
        out = []
        for c in conts:
            if isinstance(c, Finished):
                out.append(Finished(self.lift(a.conclusion_config, completed, c.result),
                                    c.rule))
            else:
                check_demand(inner, value, c)
                nxt = c.activation
                out.append(Demand(c.config, Activation(
                    nxt.rule_family, nxt.conclusion_config, completed,
                    nxt.pending, nxt)))
        return tuple(out)

    def premise_bound(self, config):
        return self.base.premise_bound(config)

    def show_config(self, config):
        return self.base.show_config(config)

    def show_configs(self, configs):
        return self.base.show_configs(configs)


class LiftedSemantics(_Extension):
    """Base results lifted into ``Ok``, plus one mark propagated through premises.

    A premise producing ``mark`` concludes ``mark`` (rule ``<r>-prop``).
    With ``dead_ends`` every dead end concludes ``mark`` too.
    """

    def __init__(self, base: LanguageSemantics, mark: Mark, dead_ends: bool):
        super().__init__(base, mark if dead_ends else None)
        self.mark = mark

    def lift(self, config, completed, result):
        return Ok(result)

    def lower(self, r):
        return _NO_BASE if r is self.mark else r.value

    def propagate(self, a, r):
        return Finished(self.mark, f"{self.mark.rule}-prop")

    def show_result(self, result):
        if result is self.mark:
            return repr(self.mark)
        return self.base.show_result(result.value)


class TraceSemantics(_Extension):
    """The trace extension: premise traces concatenate after the conclusion."""

    def lift(self, config, completed, result):
        return FinTrace(_trace_word(config, completed), result)

    def lower(self, r):
        return _NO_BASE if isinstance(r, InfTrace) else r.result

    def propagate(self, a, r):
        prefix = _trace_word(a.conclusion_config, a.completed) + r.prefix
        return Finished(InfTrace(prefix, r.period), "div-trace")

    def show_result(self, result):
        # neither surface syntax uses ";", so it separates configurations
        if isinstance(result, FinTrace):
            trace = " ; ".join(self.base.show_configs(result.steps))
            return f"<{trace}, {self.base.show_result(result.result)}>"
        shown = self.base.show_configs(result.prefix + result.period)
        pre = "".join(s + " ; " for s in shown[:len(result.prefix)])
        per = " ; ".join(shown[len(result.prefix):])
        return f"{pre}({per})^w"


def wrong_oracle(sem: LanguageSemantics) -> LiftedSemantics:
    return LiftedSemantics(sem, WRONG, dead_ends=True)


def div_oracle(sem: LanguageSemantics) -> LiftedSemantics:
    return LiftedSemantics(sem, INFINITY, dead_ends=False)


def is_div_coaxiom(j: BsJudgment) -> bool:
    """The divergence extension's coaxiom set as a judgment predicate: one
    coaxiom ``c => infinity`` per configuration."""
    return j.result is INFINITY


def trace_oracle(sem: LanguageSemantics) -> TraceSemantics:
    return TraceSemantics(sem)


def _rational_trace(d: Diverges) -> InfTrace:
    """The eventually periodic trace induced by a detected cycle.

    Each active-path node contributes the trace word of its activation:
    its configuration, then the traces of its completed premises; the
    fresh frontier closes the cycle.
    """
    path = active_path(d.tree)
    start = len(path) - 1 - len(d.certificate.witness)
    words = [_trace_word(e.config, e.node.tag.completed) for e in path[:-1]]
    return InfTrace(tuple(chain(*words[:start])), tuple(chain(*words[start:])))


def _cannot_stick(o: Stuck):
    raise AssertionError("the wrong extension cannot get stuck")


# mode -> (its oracle, value of a diverging run, value of a stuck run); a
# converged run yields its result and a run out of fuel TIMEOUT in every
# mode.  ``plain`` is the identity extension: a diverging or stuck run's
# value is the outcome itself.  The oracle factories are looked up when
# called, so that rebinding the module globals reaches the evaluators.
_MODES = {
    "plain": (lambda sem: sem, lambda d: d, lambda s: s),
    "wrong": (lambda sem: wrong_oracle(sem), lambda d: d, _cannot_stick),
    "div": (lambda sem: div_oracle(sem), lambda d: INFINITY,
            lambda s: NO_JUDGMENT),
    "trace": (lambda sem: trace_oracle(sem), _rational_trace,
              lambda s: STUCK_TRACE),
    "total": (lambda sem: wrong_oracle(sem), lambda d: INFINITY, _cannot_stick),
}


def evaluate(sem: LanguageSemantics, config: Config, fuel: int, mode: str,
             exhaustive: bool = False) -> Tuple[Tuple[Any, Any], ...]:
    """(stepper outcome, extended value) pairs of ``config`` in ``mode``.

    ``mode`` is ``plain`` (the base semantics), ``wrong``, ``div``,
    ``trace`` or ``total``.  The first strategy gives one pair,
    ``exhaustive`` one per distinct outcome.  The value is the converged
    result or the mode's reading of the outcome; the outcome keeps the
    evidence the value forgets, such as the divergence certificate behind
    ``INFINITY``.  Each branch takes at most ``fuel`` transitions.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    lift, on_diverges, on_stuck = _MODES[mode]
    lifted = lift(sem)
    outcomes = (run_exhaustive(lifted, config, fuel) if exhaustive
                else (run_first(lifted, config, fuel),))

    def value(o):
        if isinstance(o, Converged):
            return o.result
        if isinstance(o, Diverges):
            return on_diverges(o)
        if isinstance(o, Stuck):
            return on_stuck(o)
        return TIMEOUT

    return tuple((o, value(o)) for o in outcomes)


def _values(pairs, exhaustive: bool):
    if exhaustive:
        return frozenset(v for _, v in pairs)
    return pairs[0][1]


Table = namedtuple("Table", "entries dead_ends rejoined spent")


def _table(sem: LanguageSemantics, roots, fuel: int, wanted: Optional[set] = None):
    """A ``Table`` of results over the base rules, built forward from ``roots``.

    It asks ``start`` of every configuration met, and ``advance`` of every
    activation with every result its pending premise has so far, each
    once; a result new to a configuration wakes the activations pending
    on it.  This is the least fixpoint of the rules met, so unlike a
    stepper run it also finds the results that flow back through a
    cycle.  ``fuel`` bounds the queries in all; a set ``wanted`` of
    ``(conclusion, family, index, demanded config)`` loses each demand
    met, and the table stops once it is empty.  ``entries`` maps each
    configuration met to its results, ``{result: None}`` in discovery
    order, and the ``(conclusion, activation)`` pairs pending on it;
    ``dead_ends`` holds each dead end once, as the stepper attributes it
    (``pet.dead_end``); ``rejoined`` says whether a demand rejoined a
    configuration met before, and ``spent`` holds those with queries left.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    entries = {root: ({}, []) for root in roots}
    # queries still to ask: (config, START, None) for ``start``, (conclusion,
    # activation, pending result) for ``advance``
    todo = deque([(root, START, None) for root in entries])
    dead, rejoined = {}, False
    for _ in range(fuel):
        if not todo or wanted is not None and not wanted:
            break
        config, act, r = todo.popleft()
        answers = (checked_start(sem, config) if act is START
                   else checked_advance(sem, act, r))
        if not answers:
            dead[dead_end(config, act, r)] = None
        found, waiting = entries[config]
        for a in answers:
            if isinstance(a, COMPLETIONS):
                r = a.result
                if r not in found:
                    found[r] = None
                    todo.extend([(c, w, r) for c, w in waiting])
                continue
            p, w = a.config, a.activation
            entry = entries.get(p)
            if entry is None:
                entries[p] = ({}, [(config, w)])
                todo.append((p, START, None))
            else:
                rejoined = True
                entry[1].append((config, w))
                todo.extend([(config, w, res) for res in entry[0]])
            if wanted is not None:
                wanted.discard((config, w.rule_family, w.index, p))
    return Table(entries, dead, rejoined, {c for c, _, _ in todo} if todo else set())


def _diverges(table: Table) -> set:
    """The configurations of ``table`` that reach a cycle of demands: the
    greatest fixpoint of the divergence rules drops, again and again, every
    configuration with no demand edge into the survivors.  Unless a demand
    rejoined one met before, the edges form a tree and nothing survives."""
    if not table.rejoined:
        return set()
    entries = table.entries
    live = dict.fromkeys(entries, 0)
    for _, waiting in entries.values():
        for c, _ in waiting:
            live[c] += 1
    drop = [c for c, n in live.items() if not n]
    while drop:
        for c, _ in entries[drop.pop()][1]:
            live[c] -= 1
            if not live[c]:
                drop.append(c)
    return {c for c, n in live.items() if n}


def _result_set(sem: LanguageSemantics, root: Config, fuel: int, dead_end: Mark):
    """The results of ``root`` read off its ``_table``: ``Ok(r)`` for each
    result, ``INFINITY`` if ``root`` diverges (``_diverges``), ``dead_end``
    if a dead end was met, and ``TIMEOUT`` if the budget ran out with
    queries left, besides what the partial table proves.
    """
    t = _table(sem, [root], fuel)
    proved = {INFINITY: root in _diverges(t), dead_end: t.dead_ends, TIMEOUT: t.spent}
    return frozenset([Ok(r) for r in t.entries[root][0]] + [m for m, p in proved.items() if p])


def eval_wrong(sem: LanguageSemantics, config: Config, fuel: int,
               exhaustive: bool = False):
    """Ok / wrong per the wrong extension; divergence via certificate.

    Runs the stepper, at most ``fuel`` transitions per branch.
    """
    return _values(evaluate(sem, config, fuel, "wrong", exhaustive), exhaustive)


def eval_div(sem: LanguageSemantics, config: Config, fuel: int,
             exhaustive: bool = False):
    """Ok / infinity per the divergence extension; stuckness has no judgment.

    The exhaustive value is read off a result table (``_result_set``), so
    it is the paper's set of results.  It equals the set of the stepper's
    outcomes wherever ``run_exhaustive`` neither runs out of fuel nor cuts,
    at a cycle, a configuration whose results flow back into the cycle:
    for ``M M`` with ``M = \\x. 0 (+) succ (x x)`` the stepper gives
    ``{Ok(0), infinity}``, while every natural is a result of ``M M``, so
    the table spends its budget and adds ``timeout``.  ``fuel`` bounds the
    table's queries in all, the first strategy's stepper transitions.
    """
    if exhaustive:
        return _result_set(sem, config, fuel, NO_JUDGMENT)
    return evaluate(sem, config, fuel, "div")[0][1]


def eval_trace(sem: LanguageSemantics, config: Config, fuel: int,
               exhaustive: bool = False):
    """Finite trace with result, or the rational trace induced by a cycle.

    Runs the stepper, at most ``fuel`` transitions per branch.
    """
    return _values(evaluate(sem, config, fuel, "trace", exhaustive), exhaustive)


def eval_total(sem: LanguageSemantics, config: Config, fuel: int,
               exhaustive: bool = False):
    """All computations classified: a value, wrong, or infinity.

    The exhaustive value is ``eval_div``'s with ``WRONG`` for
    ``NO_JUDGMENT``: a dead end anywhere below concludes ``wrong`` through
    every premise above it.  ``fuel`` is read as in ``eval_div``: the
    table's queries in all, the first strategy's stepper transitions.
    """
    if exhaustive:
        return _result_set(sem, config, fuel, WRONG)
    return evaluate(sem, config, fuel, "total")[0][1]


@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    reason: Optional[str] = None


def divergence_certificate_check(sem: LanguageSemantics,
                                 cert: DivergenceCertificate,
                                 fuel: int) -> CertificateCheck:
    """Check a certificate against the ``_table`` of its first entry.

    The entries must be closed under the divergence rules: entry ``(cfg,
    family, idx)`` needs an activation of ``family`` that concludes ``cfg``
    and pends at index ``idx`` on the next entry's configuration,
    cyclically; the table meets one only once its earlier premises have
    results, and stops once it has met every entry's.  ``fuel`` bounds
    the table's oracle queries in all.
    """
    witness = cert.witness
    if not witness:
        return CertificateCheck(False, "empty witness")
    demands = [(*e, nxt[0]) for e, nxt in zip(witness, witness[1:] + witness[:1])]
    missing = set(demands)
    spent = _table(sem, [witness[0][0]], fuel, missing).spent
    for k, d in enumerate(demands):
        if d in missing:
            why = f"the budget of {fuel} queries ran out" if spent else "the table closed"
            return CertificateCheck(False, f"entry {k}: premise {d[2]} did not"
                                           f" demand the next entry before {why}")
    return CertificateCheck(True)
