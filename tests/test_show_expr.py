"""The iterative ``show_expr`` against a copy of the recursive one."""
import random

from bigstep.lam import OMEGA, enumerate_terms, parse_expr, show_expr
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var
from bigstep.lam.types import NAT, show_type


def _recursive_show(e):
    def atom(t):
        s = _recursive_show(t)
        if isinstance(t, (Var, Nat)):
            return s
        return f"({s})"

    match e:
        case Var(name):
            return name
        case Nat(value):
            return str(value)
        case Abs(param, ann, body):
            return f"\\{param}:{show_type(ann)}. {_recursive_show(body)}"
        case App(fn, arg):
            fs = _recursive_show(fn) if isinstance(fn, App) else atom(fn)
            return f"{fs} {atom(arg)}"
        case Succ(arg):
            return f"succ {atom(arg)}"
        case Choice(left, right):
            ls = _recursive_show(left) if not isinstance(left, (Abs, Choice)) else atom(left)
            rs = _recursive_show(right) if not isinstance(right, (Abs, Choice)) else atom(right)
            return f"{ls} (+) {rs}"
    raise TypeError(e)


def _ladder(n, wrap, base):
    e = base
    for _ in range(n):
        e = wrap(e)
    return e


IDENTITY = Abs("x", NAT, Var("x"))
LADDERS = (
    lambda n: _ladder(n, Succ, Nat(0)),
    lambda n: _ladder(n, lambda e: App(IDENTITY, e), Nat(0)),
    lambda n: _ladder(n, Succ, OMEGA),
)


def test_iterative_show_equals_the_recursive_one_on_the_corpus():
    for e in enumerate_terms(3) + (OMEGA,):
        assert show_expr(e) == _recursive_show(e)


def test_iterative_show_equals_the_recursive_one_on_the_deep_ladders():
    for ladder in LADDERS:
        for n in (1, 2, 10, 60, 200):
            assert show_expr(ladder(n)) == _recursive_show(ladder(n))


def test_a_deep_spine_renders_without_recursion():
    text = show_expr(_ladder(10_000, Succ, Nat(0)))
    assert text == "succ (" * 9_999 + "succ 0" + ")" * 9_999


def test_a_shallow_sample_parses_back():
    for e in random.Random(3).sample(enumerate_terms(3), 200):
        assert parse_expr(show_expr(e)) == e
    for ladder in LADDERS:
        assert parse_expr(show_expr(ladder(40))) == ladder(40)
