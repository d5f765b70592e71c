"""Functional FJ variant: table well-formedness, typing and evaluation."""
import pytest

from bigstep import cli
from bigstep.extensions import divergence_certificate_check, eval_total, WRONG
from bigstep.fj import (
    ClassDecl,
    ClassTable,
    EnvConfig,
    FJ_OMEGA,
    FJParseError,
    FJTypeError,
    IDENTITY_LAMBDA,
    INTEROP_TABLE,
    InterfaceDecl,
    LamVal,
    MethodDef,
    New,
    ObjVal,
    Var,
    class_table_wf,
    fj_indexed_predicate,
    fj_semantics,
    fj_typecheck,
    fj_typed_corpus,
    parse_class_table,
    parse_fj_expr,
    value_has_type,
)
from bigstep.parsing import ParseError
from bigstep.pet import Converged, Diverges, Stuck, StuckKind, run_exhaustive, run_first
from bigstep.predicates import soundness_must_audit
from bigstep.util import EMPTY_MAP

SEM = fj_semantics(INTEROP_TABLE)


def _conf(src):
    return EnvConfig(EMPTY_MAP, parse_fj_expr(src))


def test_interop_table_well_formed():
    assert class_table_wf(INTEROP_TABLE) == ()


def test_wf_rejects_field_hiding():
    table = ClassTable(classes=(
        ClassDecl("A", fields=(("A", "f"),)),
        ClassDecl("B", superclass="A", fields=(("A", "f"),)),
    ))
    problems = class_table_wf(table)
    assert any("hides field" in p for p in problems)


def test_wf_rejects_variant_override():
    table = ClassTable(classes=(
        ClassDecl("A", methods=(MethodDef("m", (), "A", New("A", ())),)),
        ClassDecl("B", superclass="A",
                  methods=(MethodDef("m", (), "B", New("B", ())),)),
    ))
    problems = class_table_wf(table)
    assert any("different signature" in p for p in problems)


def test_wf_rejects_cycles_and_unknown_types():
    cyclic = ClassTable(interfaces=(
        InterfaceDecl("I", extends=("J",)), InterfaceDecl("J", extends=("I",))))
    assert any("cyclic" in p for p in class_table_wf(cyclic))
    dangling = ClassTable(classes=(ClassDecl("A", superclass="Ghost"),))
    assert any("undeclared" in p for p in class_table_wf(dangling))


def test_wf_rejects_illtyped_body():
    table = ClassTable(classes=(
        ClassDecl("A", methods=(MethodDef("m", (), "A", Var("nope")),)),
    ))
    assert any(p.startswith("MB") for p in class_table_wf(table))


DUPLICATES = [
    ("class A { } class A { A f; }", "A: declared more than once"),
    ("class A { } class C { A f; A f; }", "C.f: duplicate field"),
    ("class A { } interface I { A m(); A m(A x); }", "I.m: method overloading"),
    ("class A { } interface A { }", "A: declared more than once"),
]


@pytest.mark.parametrize("source, problem", DUPLICATES)
def test_wf_rejects_duplicate_declarations(source, problem, capsys):
    assert class_table_wf(parse_class_table(source)) == (problem,)
    for argv in (["typecheck", "new A()"], ["eval", "new A()"]):
        assert cli.main([argv[0], "--lang", "fj", "--table", source, argv[1]]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"class table: {problem}\n")


# ``this`` is every method's implicit first parameter
BAD_PARAMETERS = [
    ("class A { A m(A x, A x) { return x; } }", "new A().m(new A(), new A())",
     "A.m: duplicate parameter x"),
    ("class A { A m(A this) { return this; } }", "new A().m(new A())",
     "A.m: duplicate parameter this"),
]


@pytest.mark.parametrize("source, call, problem", BAD_PARAMETERS, ids=["repeated", "this"])
@pytest.mark.parametrize("lang", ["fj", "impfj"])
def test_wf_rejects_repeated_and_this_parameters(source, call, problem, lang, capsys):
    assert class_table_wf(parse_class_table(source)) == (problem,)
    for command in ("typecheck", "eval"):
        assert cli.main([command, "--lang", lang, "--table", source, call]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"class table: {problem}\n")


INTERFACE_OVERLOADING = [
    ("class A { } interface I { A m(); } interface J extends I { A m(A x); }",
     "IM: J.m overrides with a different signature"),
    ("class A { } interface I { A m(); } interface J { A m(A x); }"
     " interface K extends I, J { }",
     "IM: K.m inherits J.m with a different signature"),
]


@pytest.mark.parametrize("source, problem", INTERFACE_OVERLOADING,
                         ids=["override", "two-parents"])
def test_wf_rejects_interface_overloading_through_extends(source, problem, capsys):
    assert class_table_wf(parse_class_table(source)) == (problem,)
    assert cli.main(["typecheck", "--lang", "fj", "--table", source, "new A()"]) == 1
    assert capsys.readouterr().err == f"class table: {problem}\n"


def test_wf_accepts_one_signature_inherited_twice():
    source = ("class A { } interface I { A m(); } interface J extends I { A m(); }"
              " interface K extends I, J { }")
    assert class_table_wf(parse_class_table(source)) == ()


def test_duplicate_field_is_not_evaluated(capsys):
    source = "class A { } class C { A f; A f; }"
    assert cli.main(["eval", "--lang", "fj", "--table", source,
                     "new C(new A(), new A()).f"]) == 1
    assert capsys.readouterr().err == "class table: C.f: duplicate field\n"


def test_typing_goldens():
    assert fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("new C(<I>\\x. x)")) == "C"
    assert fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("new D().m(\\x. x)")) == "D"
    with pytest.raises(FJTypeError):
        fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("new C(\\x. x)"))
    with pytest.raises(FJTypeError):
        fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("new D().n(\\x. x)"))
    # subsumption moves an I-typed variable to a J parameter, but never a lambda
    assert fj_typecheck(INTEROP_TABLE, {"y": "I"},
                        parse_fj_expr("new D().n(y)")) == "D"


def test_lambda_receiver_rejected():
    with pytest.raises(FJTypeError) as err:
        fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("(\\x. x).f"))
    assert err.value.rule in ("t-field-access", "t-lambda")
    with pytest.raises(FJTypeError):
        fj_typecheck(INTEROP_TABLE, {}, parse_fj_expr("(\\x. x).m(new A())"))


def test_eval_goldens():
    out = run_first(SEM, _conf("new C(<I>\\x. x)"), 50)
    assert isinstance(out, Converged)
    assert out.result == ObjVal("C", (LamVal(("x",), Var("x")),))

    unbound = run_first(SEM, EnvConfig(EMPTY_MAP, Var("x")), 10)
    assert isinstance(unbound, Stuck) and unbound.kind is StuckKind.NO_RULE

    invoke = run_first(SEM, _conf("new D().m(\\x. x)"), 80)
    assert isinstance(invoke, Converged)
    assert invoke.result == ObjVal("D", ())


def test_lambda_invocation_selects_lambda_rule():
    # receiver evaluates to a lambda: the lambda invocation rule fires and
    # the method name is irrelevant at runtime
    out = run_first(SEM, _conf("(<I>\\x. x).m(new A())"), 60)
    assert isinstance(out, Converged)
    assert out.result == ObjVal("A", ())
    assert out.tree.tag == "lambda-invk"


def test_fj_omega_well_typed_and_diverges():
    assert fj_typecheck(INTEROP_TABLE, {}, FJ_OMEGA) == "K"
    out = run_first(SEM, EnvConfig(EMPTY_MAP, FJ_OMEGA), 120)
    assert isinstance(out, Diverges)
    assert divergence_certificate_check(SEM, out.certificate, 80).passed


def test_indexed_predicate_goldens():
    pred = fj_indexed_predicate(INTEROP_TABLE)
    idx = pred.indices_of_config(_conf("new C(<I>\\x. x)"))
    assert "C" in idx
    assert pred.holds_result(ObjVal("C", (LamVal(("x",), Var("x")),)), "C")
    # a bare lambda configuration satisfies the predicate at its interfaces
    lam_conf = EnvConfig(EMPTY_MAP, IDENTITY_LAMBDA)
    lam_idx = pred.indices_of_config(lam_conf)
    assert "I" in lam_idx and "J" in lam_idx
    assert "C" not in lam_idx


def test_value_typing_subtypes_lambdas():
    lam = LamVal(("x",), Var("x"))
    assert value_has_type(INTEROP_TABLE, lam, "I")
    assert value_has_type(INTEROP_TABLE, lam, "J")  # via I <= J
    assert not value_has_type(INTEROP_TABLE, lam, "C")
    obj = ObjVal("C", (lam,))
    assert value_has_type(INTEROP_TABLE, obj, "C")


def test_soundness_must_on_fj_corpus():
    pred = fj_indexed_predicate(INTEROP_TABLE)
    corpus = fj_typed_corpus(INTEROP_TABLE, 3)
    assert len(corpus) > 15
    report = soundness_must_audit(SEM, pred, corpus, 200)
    assert report.passed, report.violations
    assert not report.inconclusive


def test_illtyped_lambda_receiver_is_stranded():
    # the checker rejects exactly what the semantics would strand
    bad = _conf("(\\x. x).f")
    with pytest.raises(FJTypeError):
        fj_typecheck(INTEROP_TABLE, {}, bad.expr)
    assert eval_total(SEM, bad, 50) is WRONG


def test_parse_paper_class_table():
    source = """
    interface J {}
    interface I extends J { A m(A x); }
    class A {}
    class C { J f; }
    class D {
      D m(I y) { return new D().n(y); }
      D n(J y) { return new D(); }
    }
    """
    table = parse_class_table(source)
    assert class_table_wf(table) == ()
    assert table.umtype("I") == (("A",), "A")
    assert table.umtype("J") is None
    assert table.subtype("I", "J")
    assert fj_typecheck(table, {}, parse_fj_expr("new C(<I>\\x. x)")) == "C"


def test_exhaustive_is_deterministic_for_fj():
    for src in ("new C(<I>\\x. x)", "new D().m(\\x. x)", "new A()"):
        assert len(run_exhaustive(SEM, _conf(src), 100)) == 1


def test_parse_show_roundtrip_on_enumerated_fj():
    from bigstep.fj import enumerate_fj, show_fj

    for e in enumerate_fj(INTEROP_TABLE, 2):
        assert parse_fj_expr(show_fj(e)) == e
    # assignment chains and nested casts round-trip too
    for src in ("new B(new A()).f = new A()",
                "(new B(new A()).f = new A()).f",
                "<J><I>\\x. x",
                "(<K>\\x. x.m(x)).m(\\x. x.m(x))"):
        e = parse_fj_expr(src)
        assert parse_fj_expr(show_fj(e)) == e


def test_parse_rejects_empty_implements_list():
    assert FJParseError is ParseError
    with pytest.raises(ParseError) as err:
        parse_class_table("class C implements { }")
    assert err.value.pos == 19


def test_parse_errors_point_at_the_offending_character():
    with pytest.raises(ParseError) as err:
        parse_fj_expr("new A(\n  $)")
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(ParseError) as err:
        parse_fj_expr("#")  # an object id is missing at the end of input
    assert err.value.pos == 1


def test_parse_has_no_arrow_token():
    # `=>` is not FJ syntax: the error names the `=` where the input goes wrong
    with pytest.raises(ParseError) as err:
        parse_fj_expr("a => b")
    assert (err.value.line, err.value.column) == (1, 3)
    assert "'='" in str(err.value) and "'=>'" not in str(err.value)


def test_parse_show_roundtrip_on_depth3_casts_of_postfix_terms():
    from bigstep.fj import enumerate_fj, show_fj
    from bigstep.fj.syntax import Cast, FieldAccess

    # a cast of a field access or call printed as <T>e.f, which parses as
    # a field access on the cast <T>e
    e = Cast("A", FieldAccess(New("A", ()), "f"))
    assert show_fj(e) == "<A>(new A().f)"
    for e in enumerate_fj(INTEROP_TABLE, 3):
        assert parse_fj_expr(show_fj(e)) == e
