"""The lambda type checker against a copy that validates every comparison,
and ``show_type`` on types deeper than the recursion limit."""
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bigstep.lam import (ANNOTATION_ALPHABET, NAT, OMEGA_BODY, LambdaTypeError, TArrow,
                         TNat, TRec, TVar, enumerate_terms, is_contractive, show_type,
                         typecheck, typed_corpus)
from bigstep.lam.corpus import MAX_LITERAL
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var
from bigstep.lam.types import free_type_vars, unfold_head


def _show(t) -> str:
    """``show_type`` as a plain recursion over the type."""
    match t:
        case TNat():
            return "nat"
        case TVar(n):
            return n
        case TArrow(d, c):
            ds = _show(d)
            if isinstance(d, (TArrow, TRec)):
                ds = f"({ds})"
            return f"{ds} -> {_show(c)}"
        case TRec(v, body):
            return f"rec {v}. {_show(body)}"
    raise TypeError(t)


def _equal(t1, t2) -> bool:
    """Type equality that checks both types for free variables and
    contractiveness on every comparison, then runs the recursive
    coinductive pairing loop."""
    for t in (t1, t2):
        if free_type_vars(t):
            raise ValueError(f"type has free variables: {_show(t)}")
        if not is_contractive(t):
            raise ValueError(f"non-contractive type: {_show(t)}")
    assumed = set()

    def go(a, b):
        key = (a, b)
        if key in assumed:
            return True
        assumed.add(key)
        a, b = unfold_head(a), unfold_head(b)
        unfolded = (a, b)
        if unfolded != key:
            if unfolded in assumed:
                return True
            assumed.add(unfolded)
        if isinstance(a, TNat) and isinstance(b, TNat):
            return True
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            return go(a.dom, b.dom) and go(a.cod, b.cod)
        return False

    return go(t1, t2)


def _reference_typecheck(env, e):
    """The syntax-directed checker, comparing every pair of types with
    ``_equal``."""
    match e:
        case Var(name):
            if name not in env:
                raise LambdaTypeError("t-var", f"unbound variable {name}")
            return env[name]
        case Nat(_):
            return NAT
        case Abs(param, ann, body):
            if free_type_vars(ann):
                raise LambdaTypeError("t-abs", f"open annotation {_show(ann)}")
            if not is_contractive(ann):
                raise LambdaTypeError("t-abs", f"non-contractive annotation {_show(ann)}")
            return TArrow(ann, _reference_typecheck({**env, param: ann}, body))
        case App(fn, arg):
            fn_t = unfold_head(_reference_typecheck(env, fn))
            if not isinstance(fn_t, TArrow):
                raise LambdaTypeError("t-app", "applied expression is not a function")
            arg_t = _reference_typecheck(env, arg)
            if not _equal(arg_t, fn_t.dom):
                raise LambdaTypeError(
                    "t-app",
                    f"operand type {_show(arg_t)} does not match {_show(fn_t.dom)}")
            return fn_t.cod
        case Succ(arg):
            if not _equal(_reference_typecheck(env, arg), NAT):
                raise LambdaTypeError("t-succ", "successor of a non-natural")
            return NAT
        case Choice(left, right):
            lt = _reference_typecheck(env, left)
            if not _equal(lt, _reference_typecheck(env, right)):
                raise LambdaTypeError("t-choice", "choice branches of unequal type")
            return lt
    raise TypeError(e)


def _verdict(check, env, e):
    try:
        return "type", check(env, e)
    except (LambdaTypeError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "rule", None)


TYPE_NAMES = st.sampled_from(["t", "u"])
# recursive, open and non-contractive types, such as ``rec t. t``
TYPES = st.recursive(
    st.just(NAT) | st.builds(TVar, TYPE_NAMES),
    lambda inner: st.builds(TArrow, inner, inner) | st.builds(TRec, TYPE_NAMES, inner),
    max_leaves=6)
ANNOTATIONS = st.sampled_from(ANNOTATION_ALPHABET) | TYPES


@st.composite
def annotated_terms(draw, depth=5, scope=("u",)):
    """Terms of AST depth <= ``depth`` whose binders carry any drawn type;
    ``u`` is free unless an environment binds it."""
    kinds = (["app", "choice", "succ", "abs", "abs"] if depth >= 2 else []) + ["leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        atoms = [Nat(k) for k in range(MAX_LITERAL + 1)] + [Var(x) for x in scope]
        return draw(st.just(OMEGA_BODY) | st.sampled_from(atoms))
    if kind == "succ":
        return Succ(draw(annotated_terms(depth - 1, scope)))
    if kind == "abs":
        fresh = draw(st.sampled_from([f"x{len(scope)}", "u"]))
        return Abs(fresh, draw(ANNOTATIONS), draw(annotated_terms(depth - 1, scope + (fresh,))))
    left = draw(annotated_terms(depth - 1, scope))
    right = draw(annotated_terms(depth - 1, scope))
    return App(left, right) if kind == "app" else Choice(left, right)


# an environment holds closed, contractive types; ``typecheck`` rejects
# any other on entry (see the test after this one)
ENVS = st.just({}) | st.builds(
    lambda t: {"u": t}, TYPES.filter(lambda t: not free_type_vars(t) and is_contractive(t)))


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ENVS, annotated_terms())
def test_typecheck_equals_a_checker_that_validates_every_comparison(env, e):
    assert _verdict(typecheck, env, e) == _verdict(_reference_typecheck, env, e)


@pytest.mark.parametrize("bad, message", [
    (TVar("t"), "type has free variables: t"),
    (TArrow(NAT, TVar("t")), "type has free variables: nat -> t"),
    (TRec("t", TVar("t")), "non-contractive type: rec t. t"),
])
def test_typecheck_rejects_an_open_or_non_contractive_environment_type(bad, message):
    # checked once on entry, even where no comparison would meet the type
    for e in (Nat(0), Var("u"), App(Var("u"), Nat(0))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            typecheck({"u": bad}, e)


def test_typed_corpus_is_the_reference_checkers_typable_terms():
    expected = tuple(e for e in enumerate_terms(3)
                     if _verdict(_reference_typecheck, {}, e)[0] == "type")
    assert len(expected) == 974
    assert typed_corpus(3) == expected


def test_show_type_renders_a_type_deeper_than_the_recursion_limit():
    # built without the parser; a recursive ``show_type`` raised
    # ``RecursionError`` on both
    n = 5_000
    right = left = NAT
    for _ in range(n):
        right, left = TArrow(NAT, right), TArrow(left, NAT)
    assert show_type(right) == "nat -> " * n + "nat"
    assert show_type(left) == "(" * (n - 1) + "nat -> nat" + ") -> nat" * (n - 1)
    binders = NAT
    for k in range(n):
        binders = TRec(f"t{k}", TArrow(TVar(f"t{k}"), binders))
    assert show_type(binders) == "".join(f"rec t{k}. t{k} -> " for k in reversed(range(n))) + "nat"
