"""Equi-recursive simple types and the syntax-directed checker.

Types are rational trees over ``nat`` and arrow, written as finite terms
with explicit recursion binders.  A type equals its own unfolding, so
equality is bisimilarity of the infinite unfoldings, decided by a
coinductive pairing loop over the finite reachable head forms.  Only
contractive types (every cycle crosses an arrow) are admitted.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Union

from ..node import node
from .syntax import Abs, App, Choice, Expr, Nat, Succ, Var


@node
class TNat:
    pass


@node
class TVar:
    name: str


@node
class TArrow:
    dom: "LType"
    cod: "LType"


@node
class TRec:
    var: str
    body: "LType"


LType = Union[TNat, TVar, TArrow, TRec]

NAT = TNat()


def _subst_type(t: LType, name: str, repl: LType) -> LType:
    match t:
        case TNat():
            return t
        case TVar(n):
            return repl if n == name else t
        case TArrow(d, c):
            return TArrow(_subst_type(d, name, repl), _subst_type(c, name, repl))
        case TRec(v, body):
            if v == name:
                return t
            return TRec(v, _subst_type(body, name, repl))
    raise TypeError(t)


def free_type_vars(t: LType, bound: FrozenSet[str] = frozenset()) -> FrozenSet[str]:
    match t:
        case TNat():
            return frozenset()
        case TVar(n):
            return frozenset() if n in bound else frozenset({n})
        case TArrow(d, c):
            return free_type_vars(d, bound) | free_type_vars(c, bound)
        case TRec(v, body):
            return free_type_vars(body, bound | {v})
    raise TypeError(t)


def _guarded(t: LType, pending: FrozenSet[str]) -> bool:
    match t:
        case TNat():
            return True
        case TVar(n):
            return n not in pending
        case TArrow(d, c):
            return _guarded(d, frozenset()) and _guarded(c, frozenset())
        case TRec(v, body):
            return _guarded(body, pending | {v})
    raise TypeError(t)


def is_contractive(t: LType) -> bool:
    """Every recursion variable occurrence sits under an arrow."""
    return _guarded(t, frozenset())


def unfold_head(t: LType) -> LType:
    """Unroll recursion binders until a nat or arrow head shows."""
    while isinstance(t, TRec):
        t = _subst_type(t.body, t.var, t)
    return t


def type_equal(t1: LType, t2: LType) -> bool:
    """Bisimilarity of the infinite unfoldings of two closed types."""
    for t in (t1, t2):
        if free_type_vars(t):
            raise ValueError(f"type has free variables: {show_type(t)}")
        if not is_contractive(t):
            raise ValueError(f"non-contractive type: {show_type(t)}")
    assumed = set()

    def go(a: LType, b: LType) -> bool:
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


def show_type(t: LType) -> str:
    match t:
        case TNat():
            return "nat"
        case TVar(n):
            return n
        case TArrow(d, c):
            ds = show_type(d)
            if isinstance(d, (TArrow, TRec)):
                ds = f"({ds})"
            return f"{ds} -> {show_type(c)}"
        case TRec(v, body):
            return f"rec {v}. {show_type(body)}"
    raise TypeError(t)


class LambdaTypeError(Exception):
    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


TypeEnv = Dict[str, LType]


def _check_annotation(t: LType) -> None:
    if free_type_vars(t):
        raise LambdaTypeError("t-abs", f"open annotation {show_type(t)}")
    if not is_contractive(t):
        raise LambdaTypeError("t-abs", f"non-contractive annotation {show_type(t)}")


def typecheck(env: TypeEnv, e: Expr) -> LType:
    """The unique type of an annotated term, or a rule-named error."""
    match e:
        case Var(name):
            if name not in env:
                raise LambdaTypeError("t-var", f"unbound variable {name}")
            return env[name]
        case Nat(_):
            return NAT
        case Abs(param, ann, body):
            _check_annotation(ann)
            body_t = typecheck({**env, param: ann}, body)
            return TArrow(ann, body_t)
        case App(fn, arg):
            fn_t = unfold_head(typecheck(env, fn))
            if not isinstance(fn_t, TArrow):
                raise LambdaTypeError("t-app", "applied expression is not a function")
            arg_t = typecheck(env, arg)
            if not type_equal(arg_t, fn_t.dom):
                raise LambdaTypeError(
                    "t-app",
                    f"operand type {show_type(arg_t)} does not match {show_type(fn_t.dom)}",
                )
            return fn_t.cod
        case Succ(arg):
            arg_t = typecheck(env, arg)
            if not type_equal(arg_t, NAT):
                raise LambdaTypeError("t-succ", "successor of a non-natural")
            return NAT
        case Choice(left, right):
            lt = typecheck(env, left)
            rt = typecheck(env, right)
            if not type_equal(lt, rt):
                raise LambdaTypeError("t-choice", "choice branches of unequal type")
            return lt
    raise TypeError(e)
