"""The immutable-node contract shared by terms, types, configurations and
oracle answers, and the cached hash of rational lists."""
import pytest

from bigstep.extensions import FinTrace, InfTrace, Ok
from bigstep.fj.syntax import EnvConfig, MemConfig, Memory, New, ObjIdRef, ObjState
from bigstep.fj.syntax import Var as FJVar
from bigstep.lam import lambda_semantics
from bigstep.lam.syntax import Abs, App, Nat, Succ, Var
from bigstep.lam.types import NAT, TArrow, TNat
from bigstep.maxelem import MaxElem
from bigstep.node import Node
from bigstep.oracle import Activation, Axiom, BsJudgment, Demand, Finished
from bigstep.pet import Converged, StuckInfo, StuckKind, run_first
from bigstep.rational import RationalList, periodic
from bigstep.util import EMPTY_MAP

IDENT = Abs("x", NAT, Var("x"))


def test_assigning_a_field_raises():
    act = Activation("app", App(IDENT, Nat(3)), (), IDENT)
    for obj, name in ((Nat(3), "value"), (act, "pending"), (New("A", ()), "cls"),
                      (Ok(Nat(0)), "value"), (MaxElem(periodic((), (1,)), 1), "value")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.extra = None  # no instance dictionary either


def test_equality_is_type_strict():
    lam_x, fj_x = Var("x"), FJVar("x")
    assert tuple(lam_x) == tuple(fj_x) and hash(lam_x) == hash(fj_x)
    assert lam_x != fj_x and not lam_x == fj_x
    assert len({lam_x, fj_x}) == 2
    for node, plain in ((Nat(0), (0,)), (ObjIdRef(0), (0,)), (TNat(), ())):
        assert node != plain and plain != node
        assert not node == plain and not plain == node
    assert App(Nat(0), Nat(1)) == App(Nat(0), Nat(1))
    assert App(Nat(0), Nat(1)) != App(Nat(1), Nat(0))
    # children are compared type-strictly too
    assert EnvConfig(EMPTY_MAP, lam_x) != EnvConfig(EMPTY_MAP, fj_x)


def test_hash_is_the_hash_of_the_fields():
    # the frozen dataclasses these nodes replace hashed the same way, so
    # sets and dicts of nodes keep their iteration order
    e = App(IDENT, Nat(3))
    assert hash(e) == hash((IDENT, Nat(3)))
    assert hash(TNat()) == hash(())
    assert hash(BsJudgment(e, Nat(3))) == hash((e, Nat(3)))


def test_every_node_is_truthy():
    assert TNat() and NAT and bool(TNat()) is True
    assert isinstance(TNat(), Node) and isinstance(Axiom(Nat(0)), Node)


def test_repr_is_unchanged():
    assert repr(App(Var("x"), Nat(3))) == "App(fn=Var(name='x'), arg=Nat(value=3))"
    assert repr(TArrow(NAT, NAT)) == "TArrow(dom=TNat(), cod=TNat())"
    assert repr(Ok(Nat(3))) == "Ok(Nat(value=3))"
    assert repr(MaxElem(periodic((), (1, 2)), 2)) == "maxElem((1:2)*, 2)"
    assert repr(FinTrace((Nat(0),), Nat(0))) == \
        "FinTrace(steps=(Nat(value=0),), result=Nat(value=0))"
    assert repr(Activation("succ", Succ(Nat(0)), (), Nat(0))) == (
        "Activation(rule_family='succ', conclusion_config=Succ(arg=Nat(value=0)), "
        "completed=(), pending=Nat(value=0), bindings=None)")


def test_positional_keyword_and_default_arguments():
    assert Axiom(Nat(0)).rule == "axiom"
    assert Axiom(Nat(0), rule="val") == Axiom(Nat(0), "val")
    assert Axiom(result=Nat(0)) == Axiom(Nat(0), "axiom")
    assert Finished(Nat(0)).rule is None
    act = Activation("app", Nat(0), (), Nat(1))
    assert act.bindings is None and act == Activation("app", Nat(0), (), Nat(1), bindings=None)
    assert act.index == 1 and act.extend(Nat(2), Nat(3)).index == 2
    info = StuckInfo(StuckKind.NO_RULE, Nat(0))
    assert (info.rule_family, info.premise_index, info.result) == (None, None, None)
    with pytest.raises(TypeError):
        Nat()
    with pytest.raises(TypeError):
        Nat(0, 1)


def test_class_patterns_match_positionally_and_by_keyword():
    match Demand(Nat(1), Activation("app", Nat(0), (), Nat(1))):
        case Demand(Nat(v), activation=Activation(rule_family=fam)):
            assert (v, fam) == (1, "app")
        case _:
            pytest.fail("no match")
    match MemConfig((), FJVar("x")):
        case EnvConfig(_, _):
            pytest.fail("a memory configuration matched an environment one")
        case MemConfig(_, FJVar(name)):
            assert name == "x"


def test_deep_spine_hashes_and_runs():
    # built without the parser; both raised RecursionError when nodes were
    # dataclasses with a recursive Python-level hash
    n = 10_000
    e = Nat(0)
    for _ in range(n):
        e = Succ(e)
    assert isinstance(hash(e), int)
    out = run_first(lambda_semantics(), e, 2 * n + 1)
    assert isinstance(out, Converged)
    assert out.result == Nat(n) and out.steps == 2 * n + 1


def _spine(n, leaf=Nat(0)):
    for _ in range(n):
        leaf = Succ(leaf)
    return leaf


@pytest.mark.parametrize("n", [600, 5_000, 100_000])
def test_separately_built_deep_spines_compare(n):
    # no spine is hashed: hashing a term about 10^6 deep overflows the C
    # stack; both comparisons raised RecursionError from about depth 500
    a, b, longer = _spine(n), _spine(n), _spine(n + 1)
    assert a == b and not a != b
    assert a != longer and not a == longer and longer != a
    assert _spine(n, Nat(1)) != a and not _spine(n, Nat(1)) == a


def test_deep_comparison_stays_type_strict():
    assert _spine(600, Var("x")) != _spine(600, FJVar("x"))
    assert not _spine(600, Var("x")) == _spine(600, FJVar("x"))
    # a plain tuple and a ``Memory`` inside a node compare element by element
    state = ObjState("A", (0,))
    deep = _spine(600)
    assert FinTrace((state, deep), 0) == FinTrace(Memory((state, _spine(600))), 0)
    assert FinTrace((state, deep), 0) != FinTrace(Memory((state, _spine(601))), 0)
    assert _spine(600, (0,)) != _spine(600, Nat(0))
    assert MemConfig(Memory((state,)), deep) == MemConfig(Memory((state,)), _spine(600))


def test_rational_list_hash_is_cached_and_type_strict():
    lst = RationalList((3,), (1, 2, 1, 2))
    assert hash(lst) == hash(((3,), (1, 2)))
    assert lst.tail == RationalList((), (1, 2)) and hash(lst.tail) == hash(RationalList((), (1, 2)))
    assert lst.tail.tail == RationalList((2,), (1, 2))
    assert hash(lst.tail.tail) == hash(RationalList((2,), (1, 2)))
    trace = InfTrace((3,), (1, 2))
    assert hash(trace) == hash(lst) and trace != lst and lst != trace
    assert trace == InfTrace((3, 1, 2), (1, 2))
    with pytest.raises(AttributeError):
        lst.prefix = ()
