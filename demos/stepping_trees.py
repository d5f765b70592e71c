#!/usr/bin/env python3
"""Partial evaluation trees: watching a big-step evaluation happen.

Each transition refines the tree at its unique incomplete node, so the
stepper turns the declarative rules into an interpreter.  A run either
completes the tree, gets stuck on it, or keeps growing it forever - the
last case is caught by a cyclic certificate.
"""
from bigstep.extensions import divergence_certificate_check
from bigstep.lam import OMEGA, lambda_semantics, parse_expr, show_expr
from bigstep.pet import Diverges, Stuck, active_path, run_first, run_history

sem = lambda_semantics()


def render(t, indent="  "):
    res = "?" if not t.is_complete else show_expr(t.res)
    print(f"{indent}{show_expr(t.config)}  =>  {res}")
    for child in t.children:
        render(child, indent + "    ")


print("=" * 64)
print("CONVERGENCE: (\\x:nat. x) 3")
print("=" * 64)
history, outcome = run_history(sem, parse_expr("(\\x:nat. x) 3"), fuel=20)
for i, tree in enumerate(history):
    print(f"-- after {i} transition(s):")
    render(tree)
print(f"converged to {show_expr(outcome.result)} in {outcome.steps} transitions")

print()
print("=" * 64)
print("STUCKNESS: 0 0")
print("=" * 64)
out = run_first(sem, parse_expr("0 0"), fuel=20)
assert isinstance(out, Stuck)
render(out.tree)
print(f"stuck: {out.kind.value} at rule {out.info.rule_family}, "
      f"premise {out.info.premise_index}, result {show_expr(out.info.result)}")

print()
print("=" * 64)
print("DIVERGENCE: Omega")
print("=" * 64)
history, out = run_history(sem, OMEGA, fuel=50)
assert isinstance(out, Diverges)
print("active path when the cycle closed:")
for entry in active_path(out.tree):
    rule = entry.rule_family or "start"
    idx = "" if entry.premise_index is None else f" premise {entry.premise_index}"
    print(f"  {show_expr(entry.config)}   [{rule}{idx}]")
print("certificate witness:")
for config, rule, idx in out.certificate.witness:
    print(f"  {show_expr(config)} via {rule}, premise {idx}")
print("replays against the oracle:",
      divergence_certificate_check(sem, out.certificate, fuel=50).passed)
