"""``evaluate`` answers as it did when every extension rebuilt the base rules.

The wrong and divergence oracles pass base answers through, and
``evaluate`` steps the base oracle in the ``plain``, ``div`` and
``trace`` modes, reading trace values off the base trees.  The classes
below keep the earlier lifting, which rebuilt every base answer for all
three extensions (results in ``Ok`` or ``FinTrace``, activations wrapping
the base ones), with the ``evaluate`` that stepped it, as references.  On
every closed lambda term of depth <= 3, none of which diverges, and on
a few diverging terms, under each premise order and the ``drop_succ``
fixture, both give equal values, outcomes of the same kind
with the same steps and certificates, and trees of the same shape once
the lifted results are unwrapped.
"""
from itertools import chain

import pytest

from bigstep.extensions import (INFINITY, NO_JUDGMENT, STUCK_TRACE, TIMEOUT, WRONG,
                                FinTrace, InfTrace, Ok, evaluate)
from bigstep.lam import OMEGA, lambda_semantics, parse_expr
from bigstep.lam.corpus import enumerate_terms
from bigstep.oracle import (Activation, Axiom, BsJudgment, Demand, Finished, FirstPremise,
                            LanguageSemantics, check_demand, check_first_premise)
from bigstep.pet import (Converged, Diverges, OutOfFuel, Stuck, active_path,
                         run_exhaustive, run_first)

FUEL = 120
MODES = ("plain", "wrong", "div", "trace", "total")
# cycles of one and of two configurations, behind converged, stuck and
# diverging premises, one whose results flow back through its cycle, and
# a term that needs 121 transitions
M = "(\\x:rec t. t -> nat. 0 (+) succ (x x))"
DIVERGING = (OMEGA,) + tuple(map(parse_expr, (
    "0 (+) omega", "succ ((0 (+) omega) (+) omega)", "(\\x:nat. x) omega", "omega (0 0)",
    "(0 0) omega", "(\\x:nat. succ x) (succ omega)",
    "(\\x:rec t. t -> nat. succ (x x)) (\\x:rec t. t -> nat. succ (x x))",
    f"{M} {M}", "succ (" * 60 + "0" + ")" * 60)))

# ``lower``'s answer for an extended result with no base counterpart
_NO_BASE = object()


def _trace_word(config, completed):
    word = [config]
    for j in completed:
        word.extend(j.result.steps)
    return tuple(word)


class RefExtension(LanguageSemantics):
    """Every base rule lifted to extended results, plus propagation rules."""

    def __init__(self, base, dead_end=None):
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
        inner = a.bindings
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


class RefLifted(RefExtension):
    def __init__(self, base, mark, dead_ends):
        super().__init__(base, mark if dead_ends else None)
        self.mark = mark

    def lift(self, config, completed, result):
        return Ok(result)

    def lower(self, r):
        return _NO_BASE if r is self.mark else r.value

    def propagate(self, a, r):
        return Finished(self.mark, f"{self.mark.rule}-prop")


class RefTrace(RefExtension):
    def lift(self, config, completed, result):
        return FinTrace(_trace_word(config, completed), result)

    def lower(self, r):
        return _NO_BASE if isinstance(r, InfTrace) else r.result

    def propagate(self, a, r):
        prefix = _trace_word(a.conclusion_config, a.completed) + r.prefix
        return Finished(InfTrace(prefix, r.period), "div-trace")


def _rational_trace(d):
    path = active_path(d.tree)
    start = len(path) - 1 - len(d.certificate.witness)
    words = [_trace_word(e.config, e.node.tag.completed) for e in path[:-1]]
    return InfTrace(tuple(chain(*words[:start])), tuple(chain(*words[start:])))


def _cannot_stick(o):
    raise AssertionError("the wrong extension cannot get stuck")


REF_MODES = {
    "plain": (lambda sem: sem, lambda d: d, lambda s: s),
    "wrong": (lambda sem: RefLifted(sem, WRONG, True), lambda d: d, _cannot_stick),
    "div": (lambda sem: RefLifted(sem, INFINITY, False), lambda d: INFINITY,
            lambda s: NO_JUDGMENT),
    "trace": (RefTrace, _rational_trace, lambda s: STUCK_TRACE),
    "total": (lambda sem: RefLifted(sem, WRONG, True), lambda d: INFINITY,
              _cannot_stick),
}


def ref_evaluate(sem, config, fuel, mode, exhaustive=False):
    lift, on_diverges, on_stuck = REF_MODES[mode]
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


def _unwrap(res):
    """A lifted result as the base one: ``Ok`` and a finite trace unwrapped."""
    if type(res) is Ok:
        return res.value
    if type(res) is FinTrace:
        return res.result
    return res


def _kind(o):
    """What an outcome keeps beside its tree."""
    return (type(o), getattr(o, "kind", None), getattr(o, "steps", None),
            getattr(o, "certificate", None))


def _unwrapped_shape(o):
    tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
    return tuple((c, _unwrap(res), n) for c, res, n in tree._shape())


@pytest.mark.parametrize("strategy, drop", [
    ("app", False), ("app-r", False), ("app-late", False), ("app", True),
], ids=["app", "app-r", "app-late", "drop_succ"])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["first", "exhaustive"])
def test_evaluate_answers_as_the_rebuilding_lifting(strategy, drop, exhaustive):
    sem = lambda_semantics(strategy, drop_succ=drop)
    for e in enumerate_terms(3) + DIVERGING:
        for mode in MODES:
            got = evaluate(sem, e, FUEL, mode, exhaustive)
            ref = ref_evaluate(sem, e, FUEL, mode, exhaustive)
            # a value that is its outcome is compared as an outcome, below
            assert ([v for o, v in got if v is not o]
                    == [v for o, v in ref if v is not o]), (e, mode)
            assert [v is o for o, v in got] == [v is o for o, v in ref], (e, mode)
            assert [_kind(o) for o, _ in got] == [_kind(o) for o, _ in ref], (e, mode)
            assert ([_unwrapped_shape(o) for o, _ in got]
                    == [_unwrapped_shape(o) for o, _ in ref]), (e, mode)
