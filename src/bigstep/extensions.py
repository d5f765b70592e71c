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

The wrong and divergence results are the base results plus a mark, a
disjoint union, so both are one transformer, ``LiftedSemantics``: it
passes every base answer through and adds only the mark's rules.
``TraceSemantics`` lifts every base rule to traced results, as the paper
defines it, and is the reference for traces read off trees.  The total
semantics combines wrong and divergence so every computation is
classified; ``evaluate`` runs the base semantics (mode ``plain``, the
identity extension) or any of the four extensions once and pairs each
stepper outcome with its extended value; its finite proof of divergence
is a cyclic certificate.  No stepper premise ever yields infinity and a
trace lists a tree's configurations in pre-order, so only the ``wrong``
and ``total`` modes step an extension, the wrong one; the others step
the base oracle and read their values off its outcomes.  Exhaustive
``eval_div``, ``eval_total`` and the certificate check read a result
table (``results``).
``fuel`` bounds a table's queries in all, a stepper branch's transitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from .node import node
from .oracle import (
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
)
from .pet import (
    Converged,
    Diverges,
    DivergenceCertificate,
    Stuck,
    active_path,
    run_exhaustive,
    run_first,
)
from .rational import RationalList
from .results import build, diverging, results_of
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


def _trace_word(config, completed) -> Tuple[Config, ...]:
    """``config`` followed by the traces of the ``completed`` premises."""
    word = [config]
    for j in completed:
        word.extend(j.result.steps)
    return tuple(word)


class _Extension(LanguageSemantics):
    """An extension of ``base``, with its configurations and premise bounds."""

    def __init__(self, base: LanguageSemantics):
        self.base = base

    def premise_bound(self, config):
        return self.base.premise_bound(config)

    def show_config(self, config):
        return self.base.show_config(config)

    def show_configs(self, configs):
        return self.base.show_configs(configs)


class LiftedSemantics(_Extension):
    """The base rules plus ``mark``, a result disjoint from the base ones.

    Every base answer passes through as it is.  A premise producing
    ``mark`` concludes ``mark`` (rule ``<r>-prop``, ``<r>`` the mark's rule
    prefix).  With ``dead_ends``, ``mark`` also concludes every
    configuration no rule starts (``<r>-config``) and every premise result
    no rule accepts (``<r>-result``).
    """

    def __init__(self, base: LanguageSemantics, mark: Mark, dead_ends: bool):
        super().__init__(base)
        self.mark = mark
        r = mark.rule
        self._no_start = (Axiom(mark, f"{r}-config"),) if dead_ends else ()
        self._no_advance = (Finished(mark, f"{r}-result"),) if dead_ends else ()
        self._propagate = (Finished(mark, f"{r}-prop"),)

    def start(self, config):
        return tuple(self.base.start(config)) or self._no_start

    def advance(self, a, r):
        if r is self.mark:
            return self._propagate
        return tuple(self.base.advance(a, r)) or self._no_advance

    def show_result(self, result):
        return repr(result) if result is self.mark else self.base.show_result(result)


class TraceSemantics(_Extension):
    """The trace extension: premise traces concatenate after the conclusion.

    Every base rule is lifted to traced premise results, and a premise
    producing an infinite trace concludes one (rule ``div-trace``).  An
    extended activation holds the traced premise results and keeps the
    base activation in ``bindings``; each base activation it rebuilds is
    checked, as the checked queries check the answers they see.
    """

    def start(self, config):
        out = []
        for s in self.base.start(config):
            if isinstance(s, Axiom):
                out.append(Axiom(FinTrace((config,), s.result), s.rule))
            else:
                check_first_premise(config, s)
                inner = s.activation
                out.append(FirstPremise(s.config, Activation(
                    inner.rule_family, inner.conclusion_config, (),
                    inner.pending, inner)))
        return tuple(out)

    def advance(self, a, r):
        if isinstance(r, InfTrace):
            prefix = _trace_word(a.conclusion_config, a.completed) + r.prefix
            return (Finished(InfTrace(prefix, r.period), "div-trace"),)
        inner: Activation = a.bindings
        completed = a.completed + (BsJudgment(a.pending, r),)
        out = []
        for c in self.base.advance(inner, r.result):
            if isinstance(c, Finished):
                steps = _trace_word(a.conclusion_config, completed)
                out.append(Finished(FinTrace(steps, c.result), c.rule))
            else:
                check_demand(inner, r.result, c)
                nxt = c.activation
                out.append(Demand(c.config, Activation(
                    nxt.rule_family, nxt.conclusion_config, completed,
                    nxt.pending, nxt)))
        return tuple(out)

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


def _ok(c: Converged):
    """A converged run's value: ``WRONG`` as it is, a base result in ``Ok``."""
    return c.result if c.result is WRONG else Ok(c.result)


def _fin_trace(c: Converged) -> FinTrace:
    """The trace of a converged run: its tree's configurations in pre-order."""
    return FinTrace(tuple(n.config for _, n in c.tree.walk()), c.result)


def _rational_trace(d: Diverges) -> InfTrace:
    """The eventually periodic trace induced by a detected cycle.

    It is the detection tree's configurations in pre-order but for the
    fresh frontier, which comes last and closes the cycle; the period
    begins at the cycle's first active-path node.
    """
    nodes = [n for _, n in d.tree.walk()]
    entry = active_path(d.tree)[-1 - len(d.certificate.witness)].node
    split = next(i for i, n in enumerate(nodes) if n is entry)
    configs = tuple(n.config for n in nodes[:-1])
    return InfTrace(configs[:split], configs[split:])


def _cannot_stick(o: Stuck):
    raise AssertionError("the wrong extension cannot get stuck")


# mode -> (whether it steps the wrong oracle rather than the base one, and
# the value of a converged, a diverging and a stuck run); a run out of
# fuel yields TIMEOUT in every mode.  ``plain`` is the identity extension:
# a run's value is its result or the outcome itself.
_MODES = {
    "plain": (False, lambda c: c.result, lambda d: d, lambda s: s),
    "wrong": (True, _ok, lambda d: d, _cannot_stick),
    "div": (False, _ok, lambda d: INFINITY, lambda s: NO_JUDGMENT),
    "trace": (False, _fin_trace, _rational_trace, lambda s: STUCK_TRACE),
    "total": (True, _ok, lambda d: INFINITY, _cannot_stick),
}


def evaluate(sem: LanguageSemantics, config: Config, fuel: int, mode: str,
             exhaustive: bool = False) -> Tuple[Tuple[Any, Any], ...]:
    """(stepper outcome, extended value) pairs of ``config`` in ``mode``.

    ``mode`` is ``plain`` (the base semantics), ``wrong``, ``div``,
    ``trace`` or ``total``.  The first strategy gives one pair,
    ``exhaustive`` one per distinct outcome.  The value is the mode's
    reading of the outcome: a converged result is bare in ``plain``, with
    its trace in ``trace`` and in ``Ok`` elsewhere, but for ``WRONG``; the
    outcome keeps the evidence the value forgets, such as the divergence
    certificate behind ``INFINITY``.  Each branch takes at most ``fuel``
    transitions.  ``wrong_oracle`` is looked up when called, so that
    rebinding the module global reaches the evaluators.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    lifted, on_converged, on_diverges, on_stuck = _MODES[mode]
    oracle = wrong_oracle(sem) if lifted else sem
    outcomes = (run_exhaustive(oracle, config, fuel) if exhaustive
                else (run_first(oracle, config, fuel),))

    def value(o):
        if isinstance(o, Converged):
            return on_converged(o)
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


def _result_set(sem: LanguageSemantics, root: Config, fuel: int, dead_end: Mark):
    """The results of ``root`` read off its result table: ``Ok(r)`` for each
    result, ``INFINITY`` if ``root`` diverges (``diverging``), ``dead_end``
    if a dead end was met, and ``TIMEOUT`` if the budget ran out with
    queries left, besides what the partial table proves."""
    t = build(sem, [root], fuel)
    proved = {INFINITY: root in diverging(t), dead_end: t.dead_ends, TIMEOUT: t.spent}
    return frozenset([Ok(r) for r in results_of(t, root)] + [m for m, p in proved.items() if p])


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
    """Check a certificate against the result table of its first entry.

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
    spent = build(sem, [witness[0][0]], fuel, missing).spent
    for k, d in enumerate(demands):
        if d in missing:
            why = f"the budget of {fuel} queries ran out" if spent else "the table closed"
            return CertificateCheck(False, f"entry {k}: premise {d[2]} did not"
                                           f" demand the next entry before {why}")
    return CertificateCheck(True)
