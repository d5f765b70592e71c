"""Rule oracles for the lambda-calculus, one per evaluation strategy.

The inductive semantic relation is the same for every strategy; the
premise order decides which computations get stuck versus diverge.
There is one application rule, and ``_APP`` lists its premise orders:

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

from typing import List, Sequence

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

# Per premise order: the premises before the body (``fn-value``
# evaluates premise 1's result, the function's value, again), then the
# premise whose result must be an abstraction, then the argument's premise.
_APP = {
    "app": (("fn", "arg"), 1, 2),
    "app-r": (("arg", "fn"), 2, 1),
    "app-late": (("fn", "arg", "fn-value"), 3, 2),
}
STRATEGIES = tuple(_APP)


class LambdaSemantics(LanguageSemantics):
    def __init__(self, strategy: str = "app", drop_succ: bool = False):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.drop_succ = drop_succ
        order = _APP[strategy][0]
        self._first = App._fields.index(order[0])  # the field premise 1 evaluates
        self._app_bound = len(order) + 1

    # Each query dispatches once on ``type(...)`` and builds its answers
    # positionally, as ``oracle`` advises: every transition asks one query.
    def start(self, config: Config) -> Sequence[StartStep]:
        cls = type(config)
        if cls is App:
            first = config[self._first]
            return (FirstPremise(first, Activation(self.strategy, config, (), first)),)
        if cls is Nat or cls is Abs:
            return (Axiom(config, "val"),)
        if cls is Succ:
            if self.drop_succ:
                return ()
            arg = config.arg
            return (FirstPremise(arg, Activation("succ", config, (), arg)),)
        if cls is Choice:
            left, right = config
            return (FirstPremise(left, Activation("choice", config, (), left)),
                    FirstPremise(right, Activation("choice", config, (), right)))
        return ()

    def advance(self, a: Activation, r: ResultVal) -> Sequence[Continuation]:
        family = a.rule_family
        if family == "succ":
            if type(r) is Nat:
                return (Finished(Nat(r.value + 1), "succ"),)
            return ()
        if family == "choice":
            return (Finished(r, "choice"),)
        app = _APP.get(family)
        if app is None:
            raise ValueError(f"unknown rule family {family!r}")
        order, check, arg = app
        completed = a.completed
        i = len(completed) + 1  # a.index, the premise that just finished
        if i == check and type(r) is not Abs:
            return ()
        n = len(order)
        if i < n:
            nxt = (completed[0].result if order[i] == "fn-value"
                   else getattr(a.conclusion_config, order[i]))
        elif i == n:
            fn = r if i == check else completed[check - 1].result
            value = r if i == arg else completed[arg - 1].result
            nxt = subst(fn.body, value, fn.param)
        else:
            return (Finished(r, family),)
        return (Demand(nxt, a.extend(r, nxt)),)

    def premise_bound(self, config: Config) -> int:
        cls = type(config)
        if cls is App:
            return self._app_bound
        return 1 if cls is Succ or cls is Choice else 0

    def show_config(self, config: Config) -> str:
        return show_expr(config)

    show_result = show_config

    def show_configs(self, configs: Sequence[Config]) -> List[str]:
        """One memo over ``configs``, rendered last first: in a trace, a
        certificate's witness or a tree's pre-order, a configuration's
        subterms come after it, so each is rendered once."""
        shown = {}
        for c in reversed(configs):
            shown[id(c)] = show_expr(c, shown)
        return [shown[id(c)] for c in configs]


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
