"""The oracles' queries answer as their ``match``-based versions did.

The lambda and FJ oracles, ``subst`` and ``subst_expr`` dispatch on
``type(...)`` and build their answers positionally.  The classes below
keep the earlier versions, written with class patterns and keyword
arguments, as references: over every query that a result table meets on
the depth-3 corpora, both answer equal tuples (node ``==`` is
type-strict, so a node of the wrong class would differ).
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from bigstep.fj import (EMPTY_MEMORY, IMP_TABLE, INTEROP_TABLE, EnvConfig, MemConfig,
                        enumerate_fj, enumerate_impfj, fj_semantics, impfj_semantics)
from bigstep.fj.syntax import (Cast, FieldAccess, FieldAssign, Invoke, LamVal, Lambda,
                               MemResult, New, ObjIdRef, ObjState, ObjVal, subst_expr)
from bigstep.fj.semantics import FJSemantics, ImpFJSemantics
from bigstep.fj.syntax import Var as FJVar
from bigstep.lam import lambda_semantics
from bigstep.lam.corpus import ANNOTATION_ALPHABET, enumerate_terms
from bigstep.lam.semantics import _APP, LambdaSemantics
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var, is_value, subst
from bigstep.oracle import Activation, Axiom, Demand, Finished, FirstPremise, LanguageSemantics
from bigstep.results import build
from bigstep.util import EMPTY_MAP


def match_subst(e, v, x):
    match e:
        case Var(name):
            return v if name == x else e
        case Nat(_):
            return e
        case Abs(param, ann, body):
            if param == x:
                return e
            return Abs(param, ann, match_subst(body, v, x))
        case App(fn, arg):
            return App(match_subst(fn, v, x), match_subst(arg, v, x))
        case Succ(arg):
            return Succ(match_subst(arg, v, x))
        case Choice(left, right):
            return Choice(match_subst(left, v, x), match_subst(right, v, x))
    raise TypeError(e)


def match_subst_expr(e, mapping):
    match e:
        case FJVar(name):
            return mapping.get(name, e)
        case FieldAccess(target, field):
            return FieldAccess(match_subst_expr(target, mapping), field)
        case New(cls, args):
            return New(cls, tuple(match_subst_expr(a, mapping) for a in args))
        case Invoke(target, method, args):
            return Invoke(match_subst_expr(target, mapping), method,
                          tuple(match_subst_expr(a, mapping) for a in args))
        case FieldAssign(target, field, value):
            return FieldAssign(match_subst_expr(target, mapping), field,
                               match_subst_expr(value, mapping))
        case ObjIdRef(_):
            return e
        case Lambda(params, body):
            trimmed = {k: v for k, v in mapping.items() if k not in params}
            return Lambda(params, match_subst_expr(body, trimmed))
        case Cast(type_, target):
            return Cast(type_, match_subst_expr(target, mapping))
    raise TypeError(e)


class MatchLambda(LambdaSemantics):
    def start(self, config):
        steps: list = []
        if is_value(config):
            steps.append(Axiom(config, rule="val"))
        match config:
            case App(_, _):
                first = getattr(config, _APP[self.strategy][0][0])
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

    def advance(self, a, r):
        family = a.rule_family
        if family == "succ":
            if isinstance(r, Nat):
                return (Finished(Nat(r.value + 1), rule="succ"),)
            return ()
        if family == "choice":
            return (Finished(r, rule="choice"),)
        order, check, arg = _APP[family]
        i = len(a.completed) + 1
        if i == check and not isinstance(r, Abs):
            return ()
        n = len(order)
        if i < n:
            nxt = (a.completed[0].result if order[i] == "fn-value"
                   else getattr(a.conclusion_config, order[i]))
        elif i == n:
            fn = r if i == check else a.completed[check - 1].result
            value = r if i == arg else a.completed[arg - 1].result
            nxt = match_subst(fn.body, value, fn.param)
        else:
            return (Finished(r, rule=family),)
        return (Demand(nxt, a.extend(r, nxt)),)

    def premise_bound(self, config):
        match config:
            case App(_, _):
                return len(_APP[self.strategy][0]) + 1
            case Succ(_) | Choice(_, _):
                return 1
        return 0


def match_premise_bound(self, config):
    match config.expr:
        case Invoke(_, _, args):
            return len(args) + 2
        case New(_, args):
            return len(args)
        case FieldAssign(_, _, _):
            return 2
        case FieldAccess(_, _) | Cast(_, _):
            return 1
    return 0


class MatchFJ(FJSemantics):
    # ``advance`` is inherited: it never matched class patterns, and its
    # positional ``Finished`` equal the keyword-built ones
    premise_bound = match_premise_bound

    def start(self, config):
        env, e = config.env, config.expr
        match e:
            case FJVar(name):
                v = env.get(name)
                return (Axiom(v, rule="var"),) if v is not None else ()
            case Lambda(params, body):
                return (Axiom(LamVal(params, body), rule="lambda"),)
            case New(cls, args):
                fields = self.ct.fields(cls)
                if fields is None or len(fields) != len(args):
                    return ()
                if not args:
                    return (Axiom(ObjVal(cls, ()), rule="new"),)
                first = EnvConfig(env, args[0])
                return (FirstPremise(first, Activation("new", config, (), first)),)
            case FieldAccess() | Invoke() | Cast():
                first = EnvConfig(env, e.target)
                family = self._TARGET_FIRST[type(e)]
                return (FirstPremise(first, Activation(family, config, (), first)),)
        return ()


class MatchImpFJ(ImpFJSemantics):
    premise_bound = match_premise_bound

    def start(self, config):
        mem, e = config.memory, config.expr
        match e:
            case ObjIdRef(oid):
                return (Axiom(MemResult(mem, oid), rule="obj"),)
            case New(cls, args):
                fields = self.ct.fields(cls)
                if fields is None or len(fields) != len(args):
                    return ()
                if not args:
                    mem2, oid = mem.allocate(ObjState(cls, ()))
                    return (Axiom(MemResult(mem2, oid), rule="new"),)
                first = MemConfig(mem, args[0])
                return (FirstPremise(first, Activation("new", config, (), first)),)
            case FieldAccess() | Invoke() | FieldAssign():
                first = MemConfig(mem, e.target)
                family = self._TARGET_FIRST[type(e)]
                return (FirstPremise(first, Activation(family, config, (), first)),)
        return ()

    def advance(self, a, r):
        config = a.conclusion_config
        e = config.expr
        i = a.index
        family = a.rule_family
        mem_after = r.memory
        if family == "new":
            if i < len(e.args):
                nxt = MemConfig(mem_after, e.args[i])
                return (Demand(nxt, a.extend(r, nxt)),)
            oids = tuple(j.result.oid for j in a.completed) + (r.oid,)
            mem2, oid = mem_after.allocate(ObjState(e.cls, oids))
            return (Finished(MemResult(mem2, oid), rule="new"),)
        if family == "fld":
            state = mem_after.get(r.oid)
            if state is None:
                return ()
            idx = self.ct.field_index(state.cls, e.field)
            if idx is None or idx >= len(state.fields):
                return ()
            return (Finished(MemResult(mem_after, state.fields[idx]), rule="fld"),)
        if family == "fld-up":
            if i == 1:
                nxt = MemConfig(mem_after, e.value)
                return (Demand(nxt, a.extend(r, nxt)),)
            target = a.completed[0].result
            state = mem_after.get(target.oid)
            if state is None:
                return ()
            idx = self.ct.field_index(state.cls, e.field)
            if idx is None or idx >= len(state.fields):
                return ()
            mem2 = mem_after.update_field(target.oid, idx, r.oid)
            return (Finished(MemResult(mem2, r.oid), rule="fld-up"),)
        if family == "invk":
            n = len(e.args)
            cls = a.bindings
            if i == 1:
                state = mem_after.get(r.oid)
                if state is None:
                    return ()
                found = self.ct.mbody(state.cls, e.method)
                if found is None or len(found[0]) != n:
                    return ()
                cls = state.cls
            if i <= n:
                nxt = MemConfig(mem_after, e.args[i - 1])
            elif i == n + 1:
                oids = tuple(j.result.oid for j in a.completed) + (r.oid,)
                params, body = self.ct.mbody(cls, e.method)
                mapping = {p: ObjIdRef(o) for p, o in zip(params, oids[1:])}
                mapping["this"] = ObjIdRef(oids[0])
                nxt = MemConfig(mem_after, match_subst_expr(body, mapping))
            else:
                return (Finished(r, rule="invk"),)
            return (Demand(nxt, a.extend(r, nxt, bindings=cls)),)
        raise ValueError(f"unknown rule family {family!r}")


class Recorder(LanguageSemantics):
    """Asks ``inner`` and keeps every query asked of it."""

    def __init__(self, inner):
        self.inner = inner
        self.starts, self.advances = [], []

    def start(self, config):
        self.starts.append(config)
        return self.inner.start(config)

    def advance(self, a, r):
        self.advances.append((a, r))
        return self.inner.advance(a, r)

    def premise_bound(self, config):
        return self.inner.premise_bound(config)


def same_answers(sem, ref, roots):
    """Build the table of ``roots`` on ``sem`` and check that ``ref``
    answers every query met as ``sem`` does; the queries met."""
    rec = Recorder(sem)
    assert not build(rec, roots, 10**6).spent
    assert len(rec.starts) >= len(roots) and rec.advances
    for c in rec.starts:
        assert sem.start(c) == ref.start(c), c
        assert sem.premise_bound(c) == ref.premise_bound(c), c
    for a, r in rec.advances:
        assert sem.advance(a, r) == ref.advance(a, r), (a, r)
    return rec


def test_lambda_oracles_answer_as_the_match_based_ones():
    terms = enumerate_terms(3)
    for strategy, drop in [("app", False), ("app-r", False), ("app-late", False),
                           ("app", True)]:
        same_answers(lambda_semantics(strategy, drop_succ=drop),
                     MatchLambda(strategy, drop_succ=drop), terms)


def test_fj_oracles_answer_as_the_match_based_ones():
    fj = [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)]
    same_answers(fj_semantics(INTEROP_TABLE), MatchFJ(INTEROP_TABLE), fj)
    imp = [MemConfig(EMPTY_MEMORY, e) for e in enumerate_impfj(IMP_TABLE, 3)]
    rec = same_answers(impfj_semantics(IMP_TABLE), MatchImpFJ(IMP_TABLE), imp)
    # method bodies are demanded, so ``subst_expr`` answers are compared
    assert any(a.rule_family == "invk" and a.index == len(a.conclusion_config.expr.args) + 1
               for a, _ in rec.advances)


# two names, so that binders often shadow the substituted one
NAMES = st.sampled_from(["x", "y"])


def lambda_terms():
    leaves = st.builds(Nat, st.integers(0, 3)) | st.builds(Var, NAMES)
    return st.recursive(leaves, lambda inner: (
        st.builds(Abs, NAMES, st.sampled_from(ANNOTATION_ALPHABET), inner)
        | st.builds(App, inner, inner) | st.builds(Succ, inner)
        | st.builds(Choice, inner, inner)), max_leaves=12)


def fj_terms():
    leaves = st.builds(FJVar, NAMES | st.just("this")) | st.builds(ObjIdRef, st.integers(0, 3))
    args = lambda inner: st.lists(inner, max_size=3).map(tuple)  # noqa: E731
    return st.recursive(leaves, lambda inner: (
        st.builds(FieldAccess, inner, st.just("f"))
        | st.builds(New, st.just("C"), args(inner))
        | st.builds(Invoke, inner, st.just("m"), args(inner))
        | st.builds(Lambda, st.lists(NAMES, min_size=1, max_size=2, unique=True).map(tuple),
                    inner)
        | st.builds(Cast, st.just("C"), inner)
        | st.builds(FieldAssign, inner, st.just("f"), inner)), max_leaves=12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lambda_terms(), lambda_terms(), NAMES)
def test_subst_equals_the_match_based_one(e, v, x):
    assert subst(e, v, x) == match_subst(e, v, x)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fj_terms(), st.dictionaries(NAMES | st.just("this"), fj_terms(), max_size=3))
def test_subst_expr_equals_the_match_based_one(e, mapping):
    assert subst_expr(e, mapping) == match_subst_expr(e, mapping)
