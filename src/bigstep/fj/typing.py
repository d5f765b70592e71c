"""Typecheckers, class-table well-formedness and indexed predicates.

Checking is algorithmic: minimal types with subsumption applied lazily at
argument and field positions.  Lambdas are never subsumed - a source
lambda checks only against an exact functional-interface target, while
lambda *values* stored in environments or fields may sit at any subtype
of the required type.
"""
from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Dict, FrozenSet, Tuple

from ..predicates import IndexedPredicate
from .syntax import (
    Cast,
    EnvConfig,
    FieldAccess,
    FieldAssign,
    FJExpr,
    FJValue,
    Invoke,
    LamVal,
    Lambda,
    MemConfig,
    Memory,
    MemResult,
    New,
    ObjIdRef,
    ObjVal,
    Var,
    show_fj,
)
from .table import ClassTable


class FJTypeError(Exception):
    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


TypeEnv = Dict[str, str]


def lambda_fits(ct: ClassTable, lam: Lambda | LamVal, iface: str) -> bool:
    """Does the lambda check against functional interface ``iface``?"""
    sig = ct.umtype(iface)
    if sig is None:
        return False
    param_types, ret = sig
    if len(param_types) != len(lam.params):
        return False
    env = dict(zip(lam.params, param_types))
    try:
        check_against(ct, env, lam.body, ret)
    except FJTypeError:
        return False
    return True


def min_types(ct: ClassTable, env: TypeEnv, e: FJExpr) -> FrozenSet[str]:
    """Minimal types of an expression.

    A set because a lambda admits several (incomparable) functional
    interfaces; every other form has at most one minimal type.
    """
    if isinstance(e, Lambda):
        return frozenset(
            i.name for i in ct.interfaces if lambda_fits(ct, e, i.name))
    return frozenset({fj_typecheck(ct, env, e)})


def fj_typecheck(ct: ClassTable, env: TypeEnv, e: FJExpr) -> str:
    """The unique minimal type of a functional-variant expression, or an
    error; lambdas need a target and are rejected."""
    match e:
        case Var(name):
            if name not in env:
                raise FJTypeError("t-var", f"unbound variable {name}")
            return env[name]
        case Lambda(_, _):
            raise FJTypeError("t-lambda", "lambda without a target type")
        case FieldAccess(target, fname):
            recv = fj_typecheck(ct, env, target)
            if not ct.is_class(recv):
                raise FJTypeError("t-field-access",
                                  f"receiver type {recv} is not a class")
            idx = ct.field_index(recv, fname)
            if idx is None:
                raise FJTypeError("t-field-access", f"{recv} has no field {fname}")
            return ct.fields(recv)[idx][0]
        case New(cls, args):
            fields = ct.fields(cls)
            if fields is None:
                raise FJTypeError("t-new", f"unknown class {cls}")
            if len(fields) != len(args):
                raise FJTypeError("t-new", f"wrong constructor arity for {cls}")
            for arg, (ftype, _) in zip(args, fields):
                check_against(ct, env, arg, ftype)
            return cls
        case Invoke(target, method, args):
            if isinstance(target, Lambda):
                raise FJTypeError("t-invk", "lambda receiver has no target type")
            recv = fj_typecheck(ct, env, target)
            sig = ct.mtype(recv, method)
            if sig is None:
                raise FJTypeError("t-invk", f"{recv} has no method {method}")
            param_types, ret = sig
            if len(param_types) != len(args):
                raise FJTypeError("t-invk", f"wrong arity for {method}")
            for arg, ptype in zip(args, param_types):
                check_against(ct, env, arg, ptype)
            return ret
        case Cast(type_, target):
            if not (ct.is_class(type_) or ct.is_interface(type_)):
                raise FJTypeError("t-upcast", f"unknown type {type_}")
            check_against(ct, env, target, type_)
            return type_
    raise FJTypeError("t-expr", f"unsupported expression {show_fj(e)}")


def check_against(ct: ClassTable, env: TypeEnv, e: FJExpr, expected: str) -> None:
    """Subsumption point: minimal type below the expectation.

    Lambdas check against exactly the expected type, which must be a
    functional interface; subsumption never applies to them.
    """
    if isinstance(e, Lambda):
        if ct.umtype(expected) is None:
            raise FJTypeError(
                "t-lambda", f"target {expected} is not a functional interface")
        if not lambda_fits(ct, e, expected):
            raise FJTypeError("t-lambda", f"lambda does not fit {expected}")
        return
    actual = fj_typecheck(ct, env, e)
    if not ct.subtype(actual, expected):
        raise FJTypeError("t-sub", f"{actual} is not a subtype of {expected}")


def value_has_type(ct: ClassTable, v: FJValue, expected: str) -> bool:
    """Result-side typing: values may sit at subtypes of the expectation."""
    if isinstance(v, ObjVal):
        if not ct.subtype(v.cls, expected):
            return False
        fields = ct.fields(v.cls)
        if fields is None or len(fields) != len(v.fields):
            return False
        return all(value_has_type(ct, fv, ftype)
                   for fv, (ftype, _) in zip(v.fields, fields))
    if isinstance(v, LamVal):
        return any(
            ct.subtype(i.name, expected) and lambda_fits(ct, v, i.name)
            for i in ct.interfaces)
    return False


def _uses_assignment(e: FJExpr) -> bool:
    match e:
        case FieldAssign(_, _, _):
            return True
        case FieldAccess(t, _) | Cast(_, t) | Lambda(_, t):
            return _uses_assignment(t)
        case New(_, args):
            return any(_uses_assignment(a) for a in args)
        case Invoke(t, _, args):
            return _uses_assignment(t) or any(_uses_assignment(a) for a in args)
    return False


def _repeated(names) -> list:
    """Each name that occurs more than once, in order of first occurrence."""
    return [n for n, k in Counter(names).items() if k > 1]


def class_table_wf(ct: ClassTable) -> Tuple[str, ...]:
    """Well-formedness failures; empty means the table is good.

    Checks: each type declared once and each field of a class declared
    once, acyclic and fully declared hierarchy, fields inherited with no
    hiding, methods inherited with invariant overriding and no
    overloading (by classes and by interfaces, also through ``extends``),
    method parameters distinct and none named ``this``, interface
    obligations implemented, and every method body well-typed against
    its signature.  Bodies are checked with the imperative rules when any
    of them assigns a field.
    """
    imperative = any(_uses_assignment(m.body)
                     for c in ct.classes for m in c.methods)
    problems = [f"{n}: declared more than once"
                for n in _repeated(d.name for d in ct.classes + ct.interfaces)]
    names = set(ct.all_types())
    for c in ct.classes:
        parents = ([c.superclass] if c.superclass else []) + list(c.interfaces)
        for p in parents:
            if p not in names:
                problems.append(f"{c.name}: undeclared supertype {p}")
            elif c.name in ct.supertypes(p):
                problems.append(f"{c.name}: cyclic hierarchy through {p}")
        for ftype, fname in c.fields:
            if ftype not in names:
                problems.append(f"{c.name}.{fname}: undeclared type {ftype}")
        problems += [f"{c.name}.{f}: duplicate field"
                     for f in _repeated(fname for _, fname in c.fields)]
        seen_methods = set()
        for m in c.methods:
            if m.name in seen_methods:
                problems.append(f"{c.name}.{m.name}: method overloading")
            seen_methods.add(m.name)
            # ``this`` is every method's implicit first parameter
            problems += [f"{c.name}.{m.name}: duplicate parameter {p}"
                         for p in _repeated(["this"] + [pname for _, pname in m.params])]
            for ptype, _ in m.params:
                if ptype not in names:
                    problems.append(f"{c.name}.{m.name}: undeclared type {ptype}")
            if m.return_type not in names:
                problems.append(
                    f"{c.name}.{m.name}: undeclared type {m.return_type}")
    for i in ct.interfaces:
        for p in i.extends:
            if p not in names:
                problems.append(f"{i.name}: undeclared supertype {p}")
            elif i.name in ct.supertypes(p):
                problems.append(f"{i.name}: cyclic hierarchy through {p}")
        problems += [f"{i.name}.{m}: method overloading"
                     for m in _repeated(mname for mname, _, _ in i.methods)]
        for mname, ptypes, ret in i.methods:
            for t in ptypes + (ret,):
                if t not in names:
                    problems.append(f"{i.name}.{mname}: undeclared type {t}")
    if problems:
        return tuple(problems)

    for i in ct.interfaces:
        inherited = {}
        for p in i.extends:
            for mname, ptypes, ret in ct.interface_methods(p):
                if inherited.setdefault(mname, (ptypes, ret)) != (ptypes, ret):
                    problems.append(f"IM: {i.name}.{mname} inherits {p}.{mname}"
                                    " with a different signature")
        for mname, ptypes, ret in i.methods:
            if inherited.get(mname, (ptypes, ret)) != (ptypes, ret):
                problems.append(
                    f"IM: {i.name}.{mname} overrides with a different signature")
    for c in ct.classes:
        if c.superclass:
            inherited = {fname for _, fname in ct.fields(c.superclass)}
            for _, fname in c.fields:
                if fname in inherited:
                    problems.append(f"IF: {c.name} hides field {fname}")
            for m in c.methods:
                above = ct.mtype(c.superclass, m.name)
                mine = (tuple(t for t, _ in m.params), m.return_type)
                if above is not None and above != mine:
                    problems.append(
                        f"IM: {c.name}.{m.name} overrides with a different signature")
        for iface in c.interfaces:
            for mname, ptypes, ret in ct.interface_methods(iface):
                have = ct.mtype(c.name, mname)
                if have != (ptypes, ret):
                    problems.append(
                        f"IM: {c.name} does not implement {iface}.{mname}")
                elif ct.mbody(c.name, mname) is None:
                    problems.append(
                        f"MB: {c.name} has no body for {iface}.{mname}")
        for m in c.methods:
            env = {pname: ptype for ptype, pname in m.params}
            env["this"] = c.name
            try:
                if imperative:
                    actual = impfj_typecheck(ct, env, (), m.body)
                    if not ct.subtype(actual, m.return_type):
                        raise FJTypeError(
                            "t-sub", f"{actual} not below {m.return_type}")
                else:
                    check_against(ct, env, m.body, m.return_type)
            except FJTypeError as err:
                problems.append(f"MB: {c.name}.{m.name}: {err}")
    return tuple(problems)


def config_min_types(ct: ClassTable, config: EnvConfig) -> FrozenSet[str]:
    """Minimal types of a functional configuration over all typings of its
    environment values."""
    all_types = ct.all_types()
    var_names = list(config.env.keys())
    options = []
    for x in var_names:
        candidates = tuple(t for t in all_types
                           if value_has_type(ct, config.env[x], t))
        if not candidates:
            return frozenset()
        options.append(candidates)
    found = set()
    for combo in product(*options) if options else [()]:
        env = dict(zip(var_names, combo))
        try:
            found |= min_types(ct, env, config.expr)
        except FJTypeError:
            continue
    return frozenset(found)


def fj_indexed_predicate(ct: ClassTable) -> IndexedPredicate:
    """Typed-below-T configurations; indices are type names."""
    all_types = ct.all_types()

    def indices(config) -> frozenset:
        if not isinstance(config, EnvConfig):
            return frozenset()
        minimal = config_min_types(ct, config)
        return frozenset(t for t in all_types
                         if any(ct.subtype(m, t) for m in minimal))

    def holds(result, index) -> bool:
        return value_has_type(ct, result, index)

    return IndexedPredicate(indices, holds)


# imperative variant


def impfj_typecheck(ct: ClassTable, env: TypeEnv, sigma: tuple, e: FJExpr) -> str:
    """Minimal type of an imperative expression; ``sigma[oid]`` is oid's class."""
    match e:
        case Var(name):
            if name not in env:
                raise FJTypeError("t-var", f"unbound variable {name}")
            return env[name]
        case ObjIdRef(oid):
            if not 0 <= oid < len(sigma):
                raise FJTypeError("t-oid", f"unassigned object id {oid}")
            return sigma[oid]
        case FieldAccess(target, fname):
            recv = impfj_typecheck(ct, env, sigma, target)
            idx = ct.field_index(recv, fname)
            if idx is None:
                raise FJTypeError("t-fld", f"{recv} has no field {fname}")
            return ct.fields(recv)[idx][0]
        case New(cls, args):
            fields = ct.fields(cls)
            if fields is None:
                raise FJTypeError("t-new", f"unknown class {cls}")
            if len(fields) != len(args):
                raise FJTypeError("t-new", f"wrong constructor arity for {cls}")
            for arg, (ftype, _) in zip(args, fields):
                actual = impfj_typecheck(ct, env, sigma, arg)
                if not ct.subtype(actual, ftype):
                    raise FJTypeError("t-sub", f"{actual} not below {ftype}")
            return cls
        case Invoke(target, method, args):
            recv = impfj_typecheck(ct, env, sigma, target)
            sig = ct.mtype(recv, method)
            if sig is None:
                raise FJTypeError("t-invk", f"{recv} has no method {method}")
            param_types, ret = sig
            if len(param_types) != len(args):
                raise FJTypeError("t-invk", f"wrong arity for {method}")
            for arg, ptype in zip(args, param_types):
                actual = impfj_typecheck(ct, env, sigma, arg)
                if not ct.subtype(actual, ptype):
                    raise FJTypeError("t-sub", f"{actual} not below {ptype}")
            return ret
        case FieldAssign(target, fname, value):
            recv = impfj_typecheck(ct, env, sigma, target)
            idx = ct.field_index(recv, fname)
            if idx is None:
                raise FJTypeError("t-fld-up", f"{recv} has no field {fname}")
            ftype = ct.fields(recv)[idx][0]
            actual = impfj_typecheck(ct, env, sigma, value)
            if not ct.subtype(actual, ftype):
                raise FJTypeError("t-sub", f"{actual} not below {ftype}")
            return ftype
    raise FJTypeError("t-expr", f"unsupported expression {show_fj(e)}")


def memory_sigma(memory: Memory) -> Tuple[str, ...]:
    """The canonical type assignment of a memory: exact classes by id."""
    return tuple(st.cls for st in memory)


def memory_well_typed(ct: ClassTable, memory: Memory) -> bool:
    """Every object state matches its class and references allocated ids."""
    for st in memory:
        fields = ct.fields(st.cls)
        if fields is None or len(fields) != len(st.fields):
            return False
        for oid, (ftype, _) in zip(st.fields, fields):
            target = memory.get(oid)
            if target is None or not ct.subtype(target.cls, ftype):
                return False
    return True


def sigma_extends(base: Tuple[str, ...], bigger: Tuple[str, ...]) -> bool:
    return bigger[:len(base)] == base


def impfj_indexed_predicate(ct: ClassTable) -> IndexedPredicate:
    """Typed configurations; indices pair a type assignment with a class.

    A result satisfies an index when its memory's canonical assignment
    extends the index's (memory only grows) and its object's class is
    below the index class.
    """
    class_names = tuple(c.name for c in ct.classes)

    def indices(config) -> frozenset:
        if not isinstance(config, MemConfig):
            return frozenset()
        if not memory_well_typed(ct, config.memory):
            return frozenset()
        sigma = memory_sigma(config.memory)
        try:
            minimal = impfj_typecheck(ct, {}, sigma, config.expr)
        except FJTypeError:
            return frozenset()
        return frozenset((sigma, c) for c in class_names
                         if ct.subtype(minimal, c))

    def holds(result, index) -> bool:
        sigma, cls = index
        if not isinstance(result, MemResult):
            return False
        if not memory_well_typed(ct, result.memory):
            return False
        if not sigma_extends(sigma, memory_sigma(result.memory)):
            return False
        state = result.memory.get(result.oid)
        return state is not None and ct.subtype(state.cls, cls)

    return IndexedPredicate(indices, holds)
