#!/usr/bin/env python3
"""The two object calculi: lambda target types and imperative memory.

The functional variant stores lambdas in fields and selects between the
ordinary and the lambda invocation rule only after the receiver premise
completes.  The imperative variant threads a growing memory through the
premises of every rule.
"""
from bigstep.extensions import divergence_certificate_check, eval_total
from bigstep.fj import (
    EMPTY_MEMORY,
    EnvConfig,
    FJ_OMEGA,
    FJTypeError,
    IMP_LOOP_TABLE,
    IMP_TABLE,
    INTEROP_TABLE,
    MemConfig,
    class_table_wf,
    fj_semantics,
    fj_typecheck,
    impfj_semantics,
    impfj_typecheck,
    parse_fj_expr,
    show_fj,
)
from bigstep.pet import Converged, Diverges, run_first
from bigstep.util import EMPTY_MAP

print("=" * 64)
print("LAMBDAS NEED TARGET TYPES")
print("=" * 64)
print("class table well-formed:", class_table_wf(INTEROP_TABLE) == ())
sem = fj_semantics(INTEROP_TABLE)
for src in ("new C(<I>\\x. x)", "new C(\\x. x)", "new D().m(\\x. x)",
            "new D().n(\\x. x)"):
    e = parse_fj_expr(src)
    try:
        t = fj_typecheck(INTEROP_TABLE, {}, e)
        verdict = f"well-typed at {t}"
    except FJTypeError as err:
        verdict = f"ill-typed ({err})"
    print(f"  {src:24} {verdict}")

out = run_first(sem, EnvConfig(EMPTY_MAP, parse_fj_expr("new C(<I>\\x. x)")), 60)
print("evaluating the cast form:", show_fj(out.result))
print("(the upcast vanishes at runtime; the lambda lands in the field,")
print(" where subtyping applies to values even though it never does to")
print(" source lambdas)")

print()
print("=" * 64)
print("A WELL-TYPED DIVERGING OBJECT PROGRAM")
print("=" * 64)
print("expression:", show_fj(FJ_OMEGA))
print("type:", fj_typecheck(INTEROP_TABLE, {}, FJ_OMEGA))
out = run_first(sem, EnvConfig(EMPTY_MAP, FJ_OMEGA), 150)
assert isinstance(out, Diverges)
print("diverges; certificate:")
for config, rule, idx in out.certificate.witness:
    print(f"  {show_fj(config)} via {rule}, premise {idx}")
print("certificate replays:",
      divergence_certificate_check(sem, out.certificate, 100).passed)

print()
print("=" * 64)
print("IMPERATIVE MEMORY THREADING")
print("=" * 64)
imp = impfj_semantics(IMP_TABLE)
for src in ("new B(new A())", "new B(new A()).f = new A()",
            "new B(new A()).test()"):
    e = parse_fj_expr(src)
    t = impfj_typecheck(IMP_TABLE, {}, (), e)
    out = run_first(imp, MemConfig(EMPTY_MEMORY, e), 100)
    assert isinstance(out, Converged)
    print(f"  {src}")
    print(f"    : {t}  ~~>  {show_fj(out.result)}")
print("(ids are allocated by a deterministic counter: argument first,")
print(" then the constructed object; the assignment returns the new id)")

print()
print("=" * 64)
print("DIVERGENCE WITHOUT ALLOCATION IS CERTIFIED")
print("=" * 64)
loop = impfj_semantics(IMP_LOOP_TABLE)
out = run_first(loop, MemConfig(EMPTY_MEMORY, parse_fj_expr("new L().loop()")), 100)
assert isinstance(out, Diverges)
print("new L().loop() loops on a fixed memory; certificate:")
for config, rule, idx in out.certificate.witness:
    print(f"  {show_fj(config)} via {rule}, premise {idx}")
print()
print("wrong-vs-divergent classification via the total semantics:")
stuck = parse_fj_expr("new A().get()")
print(f"  new A().get()   -> {eval_total(imp, MemConfig(EMPTY_MEMORY, stuck), 60)!r}")
looping = parse_fj_expr("new L().loop()")
print(f"  new L().loop()  -> {eval_total(loop, MemConfig(EMPTY_MEMORY, looping), 60)!r}")
