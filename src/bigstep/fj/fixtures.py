"""Built-in class tables and corpus generators.

``INTEROP_TABLE`` is the functional-variant demo table: a functional
interface usable as a lambda target, a non-functional super-interface,
a class storing a lambda in a field, and a class whose methods exercise
subsumption on interface arguments.  ``SELFCALL`` is a functional
interface whose method type allows a lambda to invoke its own argument,
giving well-typed diverging programs.

``IMP_TABLE`` is the two-class imperative fixture; ``IMP_LOOP_TABLE``
adds a class with a self-recursive method that never allocates, so its
divergence is certifiable by cycle detection.
"""
from __future__ import annotations

from itertools import product

from ..util import EMPTY_MAP
from .syntax import (
    EMPTY_MEMORY,
    Cast,
    EnvConfig,
    FieldAccess,
    FieldAssign,
    Invoke,
    Lambda,
    MemConfig,
    New,
    Var,
)
from .table import ClassDecl, ClassTable, InterfaceDecl, MethodDef
from .typing import FJTypeError, fj_typecheck, impfj_typecheck

IDENTITY_LAMBDA = Lambda(("x",), Var("x"))

INTEROP_TABLE = ClassTable(
    classes=(
        ClassDecl("A"),
        ClassDecl("C", fields=(("J", "f"),)),
        ClassDecl("D", methods=(
            MethodDef("m", (("I", "y"),), "D",
                      Invoke(New("D", ()), "n", (Var("y"),))),
            MethodDef("n", (("J", "y"),), "D", New("D", ())),
        )),
    ),
    interfaces=(
        InterfaceDecl("J"),
        InterfaceDecl("I", extends=("J",), methods=(("m", ("A",), "A"),)),
        InterfaceDecl("K", methods=(("m", ("K",), "K"),)),
    ),
)

# (<K>\x. x.m(x)).m(\x. x.m(x)) is well-typed at K and diverges
SELF_INVOKE = Lambda(("x",), Invoke(Var("x"), "m", (Var("x"),)))
FJ_OMEGA = Invoke(Cast("K", SELF_INVOKE), "m", (SELF_INVOKE,))

IMP_TABLE = ClassTable(
    classes=(
        ClassDecl("A"),
        ClassDecl("B", fields=(("A", "f"),), methods=(
            MethodDef("get", (), "A", FieldAccess(Var("this"), "f")),
            MethodDef("set", (("A", "x"),), "A",
                      FieldAssign(Var("this"), "f", Var("x"))),
            MethodDef("getafter", (("A", "y"),), "A",
                      FieldAccess(Var("this"), "f")),
            MethodDef("test", (), "A",
                      Invoke(Var("this"), "getafter",
                             (FieldAssign(Var("this"), "f", New("A", ())),))),
        )),
    ),
)

IMP_LOOP_TABLE = ClassTable(
    classes=IMP_TABLE.classes + (
        ClassDecl("L", methods=(
            MethodDef("loop", (), "L", Invoke(Var("this"), "loop", ())),
        )),
    ),
)

TABLES = {
    "interop": INTEROP_TABLE,
    "imp": IMP_TABLE,
    "imp-loop": IMP_LOOP_TABLE,
}


def _news(ct: ClassTable, classes: tuple, below: tuple, k: int):
    """``New`` of each class with one or two fields over arguments from
    ``below``, at least one of them from ``below[k:]``."""
    for c in classes:
        arity = len(ct.fields(c) or ())
        if arity == 0 or arity > 2:
            continue
        for idx in product(range(len(below)), repeat=arity):
            if max(idx) >= k:
                yield New(c, tuple(below[i] for i in idx))


def _enumerate(ct: ClassTable, depth: int, lambdas: tuple, casts: tuple,
               assignable: bool, method_sigs: set) -> tuple:
    """Closed expressions of depth at most ``depth`` over one calculus.

    The leaves are the zero-field ``New``s and ``lambdas``; the casts go to
    ``casts``, fields are assigned when ``assignable``, and methods are
    invoked by their ``(name, arity)`` in ``method_sigs``.

    Each level is ``below``, the level under it, followed by the terms of
    the new greatest depth.  The terms of ``below`` before ``k`` are those
    of the level under that, so a term whose children all come before
    ``k`` is already in ``below`` and is skipped.
    """
    classes = tuple(c.name for c in ct.classes)
    field_names = {n for c in classes for _, n in (ct.fields(c) or ())}
    below, k = tuple(New(c, ()) for c in classes if not ct.fields(c)) + lambdas, 0
    for _ in range(depth - 1):
        out = list(below)
        out.extend(_news(ct, classes, below, k))
        singles = tuple((e,) for e in below)  # argument tuples, shared
        for i, e in enumerate(below):
            fresh = i >= k
            start = 0 if fresh else k
            if fresh:
                out.extend(Cast(t, e) for t in casts)
            if isinstance(e, Lambda):
                continue
            if fresh:
                out.extend(FieldAccess(e, fname) for fname in field_names)
            if assignable:
                for e2 in below[start:]:
                    for fname in field_names:
                        out.append(FieldAssign(e, fname, e2))
            for mname, arity in method_sigs:
                if arity == 0 and fresh:
                    out.append(Invoke(e, mname, ()))
                elif arity == 1:
                    for args in singles[start:]:
                        out.append(Invoke(e, mname, args))
        below, k = tuple(out), len(below)
    return below


def enumerate_fj(ct: ClassTable, depth: int) -> tuple:
    """Closed functional-variant expressions of bounded depth."""
    method_sigs = {(m.name, len(m.params)) for c in ct.classes for m in c.methods}
    method_sigs |= {(s[0], len(s[1])) for i in ct.interfaces
                    for s in ct.interface_methods(i.name)}
    return _enumerate(ct, depth, (IDENTITY_LAMBDA,), ct.all_types(), False, method_sigs)


def fj_typed_corpus(ct: ClassTable, depth: int) -> tuple:
    out = []
    for e in enumerate_fj(ct, depth):
        try:
            fj_typecheck(ct, {}, e)
        except FJTypeError:
            continue
        out.append(EnvConfig(EMPTY_MAP, e))
    return tuple(out)


def enumerate_impfj(ct: ClassTable, depth: int) -> tuple:
    """Closed imperative expressions of bounded depth."""
    method_sigs = {m for c in ct.classes for m in
                   ((md.name, len(md.params)) for md in c.methods)}
    return _enumerate(ct, depth, (), (), True, method_sigs)


def impfj_typed_corpus(ct: ClassTable, depth: int) -> tuple:
    out = []
    for e in enumerate_impfj(ct, depth):
        try:
            impfj_typecheck(ct, {}, (), e)
        except FJTypeError:
            continue
        out.append(MemConfig(EMPTY_MEMORY, e))
    return tuple(out)
