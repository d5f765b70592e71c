"""The iterative ``show_expr`` against a copy of the recursive one, and
its memo against rendering each configuration anew."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bigstep.extensions import eval_trace
from bigstep.lam import OMEGA, enumerate_terms, lambda_semantics, parse_expr, show_expr
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var
from bigstep.lam.types import NAT, show_type
from bigstep.serialize import value_doc
from test_properties import closed_terms


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


# --- one memo per document: ``show_expr(e, shown)`` and ``show_configs`` ----

SEM = lambda_semantics()


def _children(t):
    if type(t) in (App, Choice):
        return tuple(t)
    if type(t) is Succ:
        return (t.arg,)
    if type(t) is Abs:
        return (t.body,)
    return ()


def _subterms(e):
    """Every subterm occurrence of ``e``, in pre-order."""
    out, todo = [], [e]
    while todo:
        t = todo.pop()
        out.append(t)
        todo += reversed(_children(t))
    return out


def _copy(t):
    """A copy of ``t`` equal by value that shares no node with it."""
    if type(t) is Abs:
        return Abs(t.param, t.annotation, _copy(t.body))
    if type(t) in (App, Choice, Succ):
        return type(t)(*map(_copy, t))
    return type(t)(*t)


@st.composite
def terms_and_subterm_lists(draw):
    e = draw(closed_terms())
    subs = _subterms(e)
    # shallow copies share their children with ``e``, deep ones share nothing
    pool = subs + [type(t)(*t) for t in subs] + [_copy(t) for t in subs]
    picked = draw(st.lists(st.sampled_from(pool), max_size=24))
    order = draw(st.sampled_from(["drawn", "pre-order", "post-order"]))
    if order == "pre-order":
        picked = subs + picked
    elif order == "post-order":
        picked = subs[::-1] + picked
    return picked


@settings(max_examples=300, deadline=None)
@given(terms_and_subterm_lists())
def test_show_configs_equals_show_expr_of_each(configs):
    assert SEM.show_configs(configs) == [show_expr(c) for c in configs]


def test_show_configs_keeps_duplicates_and_order():
    inner = Succ(Nat(0))
    outer = App(IDENTITY, Succ(inner))
    configs = [inner, outer, inner, Succ(Nat(0)), outer.arg, outer]
    assert SEM.show_configs(configs) == [show_expr(c) for c in configs]
    assert SEM.show_configs([]) == []


def test_show_expr_emits_the_memo_entry_of_a_popped_subterm():
    sub = Succ(Nat(0))
    assert show_expr(Succ(sub), {id(sub): "X"}) == "succ (X)"
    assert show_expr(App(sub, Nat(1)), {id(sub): "X"}) == "(X) 1"
    assert show_expr(Choice(Nat(1), sub), {id(sub): "X"}) == "1 (+) X"
    # the memo is read by identity: an equal copy is rendered anew
    assert show_expr(Succ(Succ(Nat(0))), {id(sub): "X"}) == "succ (succ 0)"
    assert show_expr(sub, {id(sub): "X"}) == "X"


def test_trace_document_of_a_deep_spine_equals_the_per_config_reference():
    n = 3_000
    e = _ladder(n, Succ, Nat(0))
    value = eval_trace(SEM, e, 2 * n + 1)
    assert len(value.steps) == n + 1
    doc = value_doc(SEM, value)
    assert doc["kind"] == "ok" and doc["result"] == str(n)
    assert doc["trace"]["period"] == []
    prefix = doc["trace"]["prefix"]
    assert len(prefix) == n + 1
    # one reference string at a time: all of them hold about 30 MB
    for c, text in zip(value.steps, prefix):
        assert text == show_expr(c)
