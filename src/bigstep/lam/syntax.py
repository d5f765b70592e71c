"""Terms of the lambda-calculus with naturals, successor and choice."""
from __future__ import annotations

from typing import Any, FrozenSet, Union

from ..node import node


@node
class Var:
    name: str


@node
class Nat:
    value: int


@node
class Abs:
    param: str
    annotation: Any  # LType
    body: "Expr"


@node
class App:
    fn: "Expr"
    arg: "Expr"


@node
class Succ:
    arg: "Expr"


@node
class Choice:
    left: "Expr"
    right: "Expr"


Expr = Union[Var, Nat, Abs, App, Succ, Choice]


def is_value(e: Expr) -> bool:
    return isinstance(e, (Nat, Abs))


def free_vars(e: Expr) -> FrozenSet[str]:
    match e:
        case Var(name):
            return frozenset({name})
        case Nat(_):
            return frozenset()
        case Abs(param, _, body):
            return free_vars(body) - {param}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Succ(arg):
            return free_vars(arg)
        case Choice(left, right):
            return free_vars(left) | free_vars(right)
    raise TypeError(e)


def is_closed(e: Expr) -> bool:
    return not free_vars(e)


def subst(e: Expr, v: Expr, x: str) -> Expr:
    """Substitute the closed value ``v`` for ``x`` in ``e``.

    Closedness of ``v`` means no capture can occur, so binders only need
    a shadowing check.
    """
    match e:
        case Var(name):
            return v if name == x else e
        case Nat(_):
            return e
        case Abs(param, ann, body):
            if param == x:
                return e
            return Abs(param, ann, subst(body, v, x))
        case App(fn, arg):
            return App(subst(fn, v, x), subst(arg, v, x))
        case Succ(arg):
            return Succ(subst(arg, v, x))
        case Choice(left, right):
            return Choice(subst(left, v, x), subst(right, v, x))
    raise TypeError(e)


def show_expr(e: Expr) -> str:
    """Surface syntax; parses back to the same term."""
    def atom(t: Expr) -> str:
        s = show_expr(t)
        if isinstance(t, (Var, Nat)):
            return s
        return f"({s})"

    match e:
        case Var(name):
            return name
        case Nat(value):
            return str(value)
        case Abs(param, ann, body):
            return f"\\{param}:{show_type(ann)}. {show_expr(body)}"
        case App(fn, arg):
            # application is left-associative; lambdas and choices need parens
            fs = show_expr(fn) if isinstance(fn, App) else atom(fn)
            return f"{fs} {atom(arg)}"
        case Succ(arg):
            return f"succ {atom(arg)}"
        case Choice(left, right):
            ls = show_expr(left) if not isinstance(left, (Abs, Choice)) else atom(left)
            rs = show_expr(right) if not isinstance(right, (Abs, Choice)) else atom(right)
            return f"{ls} (+) {rs}"
    raise TypeError(e)


# ``types`` imports the term classes above, so it is imported only once
# they exist; the package imports this module first.
from .types import show_type  # noqa: E402
