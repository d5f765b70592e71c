"""Terms of the lambda-calculus with naturals, successor and choice."""
from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Union

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
    a shadowing check.  It runs once per application body, so it
    dispatches on ``type(e)`` rather than matching class patterns.
    """
    cls = type(e)
    if cls is Var:
        return v if e.name == x else e
    if cls is App:
        fn, arg = e
        return App(subst(fn, v, x), subst(arg, v, x))
    if cls is Abs:
        param, ann, body = e
        return e if param == x else Abs(param, ann, subst(body, v, x))
    if cls is Nat:
        return e
    if cls is Succ:
        return Succ(subst(e.arg, v, x))
    if cls is Choice:
        left, right = e
        return Choice(subst(left, v, x), subst(right, v, x))
    raise TypeError(e)


def show_expr(e: Expr, shown: Optional[Dict[int, str]] = None) -> str:
    """Surface syntax; parses back to the same term.

    Iterative, so no depth of ``e`` reaches the recursion limit: ``todo``
    is a stack of subterms still to render and of literal pieces, popped
    in output order, and the pieces are joined once.  A subterm in atom
    position is parenthesized unless it is a variable or a numeral.

    ``shown`` maps the ``id`` of subterms already rendered to their
    strings; a popped subterm found there emits its string whole.  A
    subterm's string does not depend on its context, since the parent
    alone adds parentheses.  The caller keeps every keyed subterm alive
    while ``shown`` is in use, so no ``id`` is reused.
    """
    out = []
    todo = [e]
    push, emit = todo.append, out.append
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is str:
            emit(t)
        elif shown is not None and id(t) in shown:
            emit(shown[id(t)])
        elif cls is Succ:
            arg = t.arg
            if type(arg) is Nat or type(arg) is Var:
                emit("succ ")
                push(arg)
            else:
                emit("succ (")
                push(")")
                push(arg)
        elif cls is Nat:
            emit(str(t.value))
        elif cls is Var:
            emit(t.name)
        elif cls is App:
            # application is left-associative; lambdas and choices need parens
            fn, arg = t
            if type(arg) is Nat or type(arg) is Var:
                push(arg)
                push(" ")
            else:
                push(")")
                push(arg)
                push(" (")
            if type(fn) is App or type(fn) is Nat or type(fn) is Var:
                push(fn)
            else:
                emit("(")
                push(")")
                push(fn)
        elif cls is Abs:
            emit(f"\\{t.param}:{show_type(t.annotation)}. ")
            push(t.body)
        elif cls is Choice:
            left, right = t
            if type(right) is Abs or type(right) is Choice:
                push(")")
                push(right)
                push(" (+) (")
            else:
                push(right)
                push(" (+) ")
            if type(left) is Abs or type(left) is Choice:
                emit("(")
                push(")")
            push(left)
        else:
            raise TypeError(t)
    return "".join(out)


# ``types`` imports the term classes above, so it is imported only once
# they exist; the package imports this module first.
from .types import show_type  # noqa: E402
