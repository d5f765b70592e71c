"""Lambda language: substitution, recursive types, enumeration, parsing."""
import random

import pytest

from bigstep.lam import (
    ANNOTATION_ALPHABET,
    NAT,
    OMEGA,
    OMEGA_BODY,
    LambdaTypeError,
    TArrow,
    TRec,
    TVar,
    enumerate_terms,
    is_contractive,
    parse_expr,
    parse_type,
    show_expr,
    show_type,
    type_equal,
    typecheck,
    typed_corpus,
)
from bigstep.lam.corpus import SELF_APPLY
from bigstep.lam.parser import ParseError
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var, is_closed, subst
from bigstep.pet import Converged, run_exhaustive


def test_subst_builds_omega():
    # (x x)[omega_body/x] is the divergent self-application
    assert subst(App(Var("x"), Var("x")), OMEGA_BODY, "x") == OMEGA


def test_subst_unbound_and_shadowed():
    assert subst(Var("x"), Nat(3), "y") == Var("x")
    inner = Abs("x", NAT, Var("x"))
    assert subst(inner, Nat(3), "x") == inner


def test_typecheck_goldens():
    t = typecheck({}, parse_expr("\\x:nat. succ x"))
    assert type_equal(t, TArrow(NAT, NAT))
    assert type_equal(typecheck({}, parse_expr("1 (+) 2")), NAT)
    # Omega is typable with the self-application annotation
    assert type_equal(typecheck({}, OMEGA), NAT)


def test_typecheck_errors_name_the_rule():
    with pytest.raises(LambdaTypeError) as err:
        typecheck({}, Var("x"))
    assert err.value.rule == "t-var"
    with pytest.raises(LambdaTypeError) as err:
        typecheck({}, parse_expr("0 0"))
    assert err.value.rule == "t-app"
    with pytest.raises(LambdaTypeError) as err:
        typecheck({}, parse_expr("succ (\\x:nat. x)"))
    assert err.value.rule == "t-succ"
    with pytest.raises(LambdaTypeError) as err:
        typecheck({}, parse_expr("1 (+) (\\x:nat. x)"))
    assert err.value.rule == "t-choice"


def test_type_equal_goldens():
    mu = TRec("t", TArrow(NAT, TVar("t")))
    assert type_equal(mu, TArrow(NAT, mu))
    assert not type_equal(NAT, TArrow(NAT, NAT))
    unfolded_variant = TRec("s", TArrow(TArrow(TVar("s"), NAT), NAT))
    assert type_equal(SELF_APPLY, unfolded_variant)


def _expand(t, depth):
    # finite unfolding oracle: the first `depth` levels of the tree
    from bigstep.lam.types import unfold_head

    if depth == 0:
        return "*"
    h = unfold_head(t)
    if isinstance(h, TArrow):
        return ("->", _expand(h.dom, depth - 1), _expand(h.cod, depth - 1))
    return "nat"


def test_type_equal_matches_bounded_unfolding():
    rng = random.Random(3)

    def random_type(depth, scope):
        choices = ["nat"]
        if scope:
            choices.append("var")
        if depth > 0:
            choices += ["arrow", "arrow", "rec"]
        kind = rng.choice(choices)
        if kind == "nat":
            return NAT
        if kind == "var":
            return TVar(rng.choice(scope))
        if kind == "arrow":
            return TArrow(random_type(depth - 1, scope),
                          random_type(depth - 1, scope))
        v = f"t{len(scope)}"
        # keep the binder guarded: the body is an arrow
        return TRec(v, TArrow(random_type(depth - 1, scope + [v]),
                              random_type(depth - 1, scope + [v])))

    types = [random_type(3, []) for _ in range(40)]
    types = [t for t in types if is_contractive(t)]
    for a in types:
        for b in types:
            assert type_equal(a, b) == (_expand(a, 8) == _expand(b, 8))


def test_type_equal_rejects_noncontractive():
    with pytest.raises(ValueError):
        type_equal(TRec("t", TVar("t")), NAT)


def test_contractivity():
    assert is_contractive(SELF_APPLY)
    assert not is_contractive(TRec("t", TVar("t")))
    assert is_contractive(TRec("t", TArrow(TVar("t"), TVar("t"))))


def _count(depth, scope):
    # closed-form recurrence, independent of the generator
    leaves = 4 + scope
    if depth == 1:
        return leaves
    below = _count(depth - 1, scope)
    under = _count(depth - 1, scope + 1)
    return leaves + below + 2 * below * below + 3 * under


def test_enumeration_counts_match_recurrence():
    for depth in (1, 2, 3):
        assert len(enumerate_terms(depth)) == _count(depth, 0)
    assert len(enumerate_terms(2, closed_only=False)) == _count(2, 1)


def test_enumeration_contents():
    d1 = enumerate_terms(1)
    assert set(d1) == {Nat(k) for k in range(4)}
    d2 = set(enumerate_terms(2))
    assert Succ(Nat(0)) in d2
    assert App(Nat(0), Nat(0)) in d2
    assert all(is_closed(e) for e in enumerate_terms(3))


def test_depth_three_corpus_is_several_thousand():
    assert len(enumerate_terms(3)) > 5000


def test_parse_show_roundtrip_on_enumerated_terms():
    for e in enumerate_terms(2):
        assert parse_expr(show_expr(e)) == e
    rng = random.Random(1)
    for e in rng.sample(enumerate_terms(3), 400):
        assert parse_expr(show_expr(e)) == e


def test_parse_goldens():
    assert parse_expr("(\\x:nat. x) 3") == App(Abs("x", NAT, Var("x")), Nat(3))
    assert parse_expr("succ (1 (+) 2)") == Succ(Choice(Nat(1), Nat(2)))
    assert parse_expr("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse_type("rec t. t -> nat") == SELF_APPLY
    assert parse_type("nat -> nat -> nat") == TArrow(NAT, TArrow(NAT, NAT))


def test_parse_knows_omega_inside_terms():
    assert parse_expr("0 (+) omega") == Choice(Nat(0), OMEGA)
    with pytest.raises(ParseError):
        parse_expr("\\omega:nat. 0")  # a name, not a variable


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("succ )")
    assert err.value.line == 1 and err.value.column == 6


def test_show_type_roundtrip():
    for t in ANNOTATION_ALPHABET:
        assert parse_type(show_type(t)) == t


def test_substitution_lemma_on_redexes():
    # type of a well-typed redex equals the type of its contractum
    checked = 0
    for e in typed_corpus(3):
        if not isinstance(e, App) or not isinstance(e.fn, Abs):
            continue
        from bigstep.lam.syntax import is_value

        if not is_value(e.arg):
            continue
        redex_t = typecheck({}, e)
        contractum = subst(e.fn.body, e.arg, e.fn.param)
        assert type_equal(redex_t, typecheck({}, contractum))
        checked += 1
    assert checked > 50


def test_canonical_forms_over_corpus():
    from bigstep.lam import lambda_semantics
    from bigstep.lam.types import unfold_head

    sem = lambda_semantics()
    checked = 0
    for e in typed_corpus(2):
        t = unfold_head(typecheck({}, e))
        for o in run_exhaustive(sem, e, 100):
            if not isinstance(o, Converged):
                continue
            if isinstance(t, TArrow):
                assert isinstance(o.result, Abs)
            else:
                assert isinstance(o.result, Nat)
            checked += 1
    assert checked > 40
