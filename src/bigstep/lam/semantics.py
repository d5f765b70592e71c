"""Rule oracles for the lambda-calculus, one per evaluation strategy.

The inductive semantic relation is the same for every strategy; the
premise order decides which computations get stuck versus diverge.

* ``app``      - evaluate the function, check it is an abstraction, then
                 the argument (left-to-right, early error detection);
* ``app-r``    - argument first, then function (right-to-left);
* ``app-late`` - function, argument, and only then check the function
                 value is an abstraction (late error detection).

``e1 (+) e2`` has one choice rule per distinct premise: when ``e1`` and
``e2`` are equal the two rules coincide, so ``start`` answers the same
activation twice and the stepper takes one branch.

``drop_succ`` removes the successor rule, the deliberately unsound
fixture used by the soundness audits.
"""
from __future__ import annotations

from typing import Sequence

from ..oracle import (
    Activation,
    Axiom,
    Config,
    Continuation,
    Demand,
    Finished,
    FirstPremise,
    LanguageSemantics,
    ResultVal,
    StartStep,
)
from .syntax import Abs, App, Choice, Expr, Nat, Succ, Var, is_value, show_expr, subst

STRATEGIES = ("app", "app-r", "app-late")


class LambdaSemantics(LanguageSemantics):
    def __init__(self, strategy: str = "app", drop_succ: bool = False):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.drop_succ = drop_succ

    def start(self, config: Config) -> Sequence[StartStep]:
        steps: list = []
        if is_value(config):
            steps.append(Axiom(config, rule="val"))
        match config:
            case App(fn, arg):
                first = arg if self.strategy == "app-r" else fn
                steps.append(FirstPremise(
                    first, Activation(self.strategy, config, (), first)))
            case Succ(arg):
                if not self.drop_succ:
                    steps.append(FirstPremise(
                        arg, Activation("succ", config, (), arg)))
            case Choice(left, right):
                steps.append(FirstPremise(
                    left, Activation("choice", config, (), left)))
                steps.append(FirstPremise(
                    right, Activation("choice", config, (), right)))
        return tuple(steps)

    def advance(self, a: Activation, r: ResultVal) -> Sequence[Continuation]:
        family = a.rule_family
        i = a.index  # premise that just finished
        conclusion: Expr = a.conclusion_config
        if family == "succ":
            if isinstance(r, Nat):
                return (Finished(Nat(r.value + 1), rule="succ"),)
            return ()
        if family == "choice":
            return (Finished(r, rule="choice"),)
        if family == "app":
            if i == 1:
                if isinstance(r, Abs):
                    return (Demand(conclusion.arg, a.extend(r, conclusion.arg)),)
                return ()
            if i == 2:
                fn_val = a.completed[0].result
                body = subst(fn_val.body, r, fn_val.param)
                return (Demand(body, a.extend(r, body)),)
            return (Finished(r, rule="app"),)
        if family == "app-r":
            if i == 1:
                return (Demand(conclusion.fn, a.extend(r, conclusion.fn)),)
            if i == 2:
                if isinstance(r, Abs):
                    body = subst(r.body, a.completed[0].result, r.param)
                    return (Demand(body, a.extend(r, body)),)
                return ()
            return (Finished(r, rule="app-r"),)
        if family == "app-late":
            if i == 1:
                return (Demand(conclusion.arg, a.extend(r, conclusion.arg)),)
            if i == 2:
                fn_val = a.completed[0].result
                # the function value is itself re-evaluated as premise 3
                return (Demand(fn_val, a.extend(r, fn_val)),)
            if i == 3:
                if isinstance(r, Abs):
                    body = subst(r.body, a.completed[1].result, r.param)
                    return (Demand(body, a.extend(r, body)),)
                return ()
            return (Finished(r, rule="app-late"),)
        raise ValueError(f"unknown rule family {family!r}")

    def premise_bound(self, config: Config) -> int:
        match config:
            case App(_, _):
                return 4 if self.strategy == "app-late" else 3
            case Succ(_):
                return 1
            case Choice(_, _):
                return 1
        return 0

    def show_config(self, config: Config) -> str:
        return show_expr(config)

    show_result = show_config


def lambda_semantics(strategy: str = "app", drop_succ: bool = False) -> LambdaSemantics:
    return LambdaSemantics(strategy, drop_succ=drop_succ)


class _Exhausted(Exception):
    pass


def direct_results(e: Expr, depth: int = 200) -> frozenset:
    """All derivable values by direct meta-rule instantiation.

    Independent of the oracle and the stepper: structural derivation
    search over the plain rules, bounded by derivation depth.
    """
    if depth <= 0:
        raise _Exhausted()
    out = set()
    if is_value(e):
        out.add(e)
    match e:
        case App(fn, arg):
            for v1 in direct_results(fn, depth - 1):
                if isinstance(v1, Abs):
                    for v2 in direct_results(arg, depth - 1):
                        out |= direct_results(subst(v1.body, v2, v1.param), depth - 1)
        case Succ(arg):
            for v in direct_results(arg, depth - 1):
                if isinstance(v, Nat):
                    out.add(Nat(v.value + 1))
        case Choice(left, right):
            out |= direct_results(left, depth - 1)
            out |= direct_results(right, depth - 1)
    return frozenset(out)


WRONG_MARK = "WRONG"


def direct_wrong_results(e: Expr, depth: int = 200, strategy: str = "app") -> frozenset:
    """Derivation search over the rules extended with a wrong result.

    Members are either values or the ``WRONG_MARK`` sentinel; the premise
    order of the chosen strategy decides where wrong is introduced.
    """
    if depth <= 0:
        raise _Exhausted()
    out = set()
    if is_value(e):
        out.add(e)

    def wrong_or(values, cont):
        acc = set()
        for v in values:
            if v == WRONG_MARK:
                acc.add(WRONG_MARK)  # propagation
            else:
                acc |= cont(v)
        return acc

    match e:
        case Var(_):
            out.add(WRONG_MARK)  # no rule concludes a bare variable
        case App(fn, arg):
            if strategy == "app":
                def after_fn(v1):
                    if not isinstance(v1, Abs):
                        return {WRONG_MARK}
                    return wrong_or(
                        direct_wrong_results(arg, depth - 1, strategy),
                        lambda v2: direct_wrong_results(
                            subst(v1.body, v2, v1.param), depth - 1, strategy))
                out |= wrong_or(direct_wrong_results(fn, depth - 1, strategy), after_fn)
            elif strategy == "app-r":
                def after_arg(v2):
                    def after_fn(v1):
                        if not isinstance(v1, Abs):
                            return {WRONG_MARK}
                        return direct_wrong_results(
                            subst(v1.body, v2, v1.param), depth - 1, strategy)
                    return wrong_or(direct_wrong_results(fn, depth - 1, strategy), after_fn)
                out |= wrong_or(direct_wrong_results(arg, depth - 1, strategy), after_arg)
            else:  # app-late
                def after_fn(v1):
                    def after_arg(v2):
                        def after_check(v1b):
                            if not isinstance(v1b, Abs):
                                return {WRONG_MARK}
                            return direct_wrong_results(
                                subst(v1b.body, v2, v1b.param), depth - 1, strategy)
                        return wrong_or(
                            direct_wrong_results(v1, depth - 1, strategy), after_check)
                    return wrong_or(direct_wrong_results(arg, depth - 1, strategy), after_arg)
                out |= wrong_or(direct_wrong_results(fn, depth - 1, strategy), after_fn)
        case Succ(arg):
            def after(v):
                if isinstance(v, Nat):
                    return {Nat(v.value + 1)}
                return {WRONG_MARK}  # wrong result rule for succ
            out |= wrong_or(direct_wrong_results(arg, depth - 1, strategy), after)
        case Choice(left, right):
            out |= direct_wrong_results(left, depth - 1, strategy)
            out |= direct_wrong_results(right, depth - 1, strategy)
    return frozenset(out)


def direct_traces(e: Expr, depth: int = 200) -> frozenset:
    """Finite-trace derivations: pairs (trace tuple, value)."""
    if depth <= 0:
        raise _Exhausted()
    out = set()
    if is_value(e):
        out.add(((e,), e))
    match e:
        case App(fn, arg):
            for s1, v1 in direct_traces(fn, depth - 1):
                if isinstance(v1, Abs):
                    for s2, v2 in direct_traces(arg, depth - 1):
                        body = subst(v1.body, v2, v1.param)
                        for s3, v in direct_traces(body, depth - 1):
                            out.add(((e,) + s1 + s2 + s3, v))
        case Succ(arg):
            for s, v in direct_traces(arg, depth - 1):
                if isinstance(v, Nat):
                    out.add(((e,) + s, Nat(v.value + 1)))
        case Choice(left, right):
            for s, v in direct_traces(left, depth - 1):
                out.add(((e,) + s, v))
            for s, v in direct_traces(right, depth - 1):
                out.add(((e,) + s, v))
    return frozenset(out)
