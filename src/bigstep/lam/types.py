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


def _check_type(t: LType) -> None:
    """Raise ``ValueError`` unless ``t`` is closed and contractive."""
    if free_type_vars(t):
        raise ValueError(f"type has free variables: {show_type(t)}")
    if not is_contractive(t):
        raise ValueError(f"non-contractive type: {show_type(t)}")


def type_equal(t1: LType, t2: LType) -> bool:
    """Bisimilarity of the infinite unfoldings of two closed types."""
    _check_type(t1)
    _check_type(t2)
    return _bisimilar(t1, t2)


def _bisimilar(t1: LType, t2: LType) -> bool:
    """``type_equal`` of two types already known closed and contractive.

    Structurally equal types are equal at once.  Else a coinductive
    pairing loop, on an explicit stack, visits the pairs of subtrees that
    both unfoldings reach together and fails on the first pair whose head
    forms differ; a pair seen before, folded or unfolded, is assumed
    equal.  The order of the visits does not change the verdict.
    """
    if t1 == t2:
        return True
    assumed = set()
    todo = [(t1, t2)]
    while todo:
        key = todo.pop()
        if key in assumed:
            continue
        assumed.add(key)
        a, b = unfold_head(key[0]), unfold_head(key[1])
        unfolded = (a, b)
        if unfolded != key:
            if unfolded in assumed:
                continue
            assumed.add(unfolded)
        if type(a) is TArrow and type(b) is TArrow:
            todo.append((a.cod, b.cod))
            todo.append((a.dom, b.dom))
        elif type(a) is not TNat or type(b) is not TNat:
            return False
    return True


def show_type(t: LType) -> str:
    """Surface syntax; parses back to the same type.

    Iterative, as ``show_expr`` is: ``todo`` is a stack of subtrees still
    to render and of literal pieces, popped in output order.  An arrow or
    a binder in domain position is parenthesized.
    """
    out = []
    todo = [t]
    push, emit = todo.append, out.append
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is str:
            emit(t)
        elif cls is TArrow:
            dom, cod = t
            push(cod)
            if type(dom) is TArrow or type(dom) is TRec:
                push(") -> ")
                push(dom)
                emit("(")
            else:
                push(" -> ")
                push(dom)
        elif cls is TNat:
            emit("nat")
        elif cls is TVar:
            emit(t.name)
        elif cls is TRec:
            emit(f"rec {t.var}. ")
            push(t.body)
        else:
            raise TypeError(t)
    return "".join(out)


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
    """The unique type of an annotated term, or a rule-named error.

    Each type is validated once, where it enters the checker: an
    annotation by ``_check_annotation``, a type of ``env`` here, which
    raises ``ValueError`` unless it is closed and contractive, as
    ``type_equal`` does.  Every type the checker builds from them is
    closed and contractive, so it compares types with ``_bisimilar``.
    """
    for t in env.values():
        _check_type(t)
    return _typecheck(env, e)


def _typecheck(env: TypeEnv, e: Expr) -> LType:
    match e:
        case Var(name):
            if name not in env:
                raise LambdaTypeError("t-var", f"unbound variable {name}")
            return env[name]
        case Nat(_):
            return NAT
        case Abs(param, ann, body):
            _check_annotation(ann)
            body_t = _typecheck({**env, param: ann}, body)
            return TArrow(ann, body_t)
        case App(fn, arg):
            fn_t = unfold_head(_typecheck(env, fn))
            if not isinstance(fn_t, TArrow):
                raise LambdaTypeError("t-app", "applied expression is not a function")
            arg_t = _typecheck(env, arg)
            if not _bisimilar(arg_t, fn_t.dom):
                raise LambdaTypeError(
                    "t-app",
                    f"operand type {show_type(arg_t)} does not match {show_type(fn_t.dom)}",
                )
            return fn_t.cod
        case Succ(arg):
            arg_t = _typecheck(env, arg)
            if not _bisimilar(arg_t, NAT):
                raise LambdaTypeError("t-succ", "successor of a non-natural")
            return NAT
        case Choice(left, right):
            lt = _typecheck(env, left)
            rt = _typecheck(env, right)
            if not _bisimilar(lt, rt):
                raise LambdaTypeError("t-choice", "choice branches of unequal type")
            return lt
    raise TypeError(e)
