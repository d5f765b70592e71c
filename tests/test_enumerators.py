"""The FJ and imperative-FJ corpus enumerators build each level without
duplicates and give exactly what the deduplicating enumerators gave."""
from itertools import product

from bigstep.fj import (
    IMP_LOOP_TABLE, IMP_TABLE, INTEROP_TABLE, enumerate_fj, enumerate_impfj)
from bigstep.fj.fixtures import IDENTITY_LAMBDA
from bigstep.fj.syntax import Cast, FieldAccess, FieldAssign, Invoke, Lambda, New


def _reference_fj(ct, depth):
    """Every term of each level, duplicates removed afterwards."""
    classes = tuple(c.name for c in ct.classes)
    field_names = {n for c in classes for _, n in (ct.fields(c) or ())}
    method_sigs = {(m.name, len(m.params)) for c in ct.classes for m in c.methods}
    method_sigs |= {(s[0], len(s[1])) for i in ct.interfaces
                    for s in ct.interface_methods(i.name)}

    def level(d):
        if d <= 1:
            return tuple(New(c, ()) for c in classes
                         if not ct.fields(c)) + (IDENTITY_LAMBDA,)
        below = level(d - 1)
        out = list(below)
        for c in classes:
            arity = len(ct.fields(c) or ())
            if arity == 0 or arity > 2:
                continue
            for combo in product(below, repeat=arity):
                out.append(New(c, combo))
        for e in below:
            for t in ct.all_types():
                out.append(Cast(t, e))
            if isinstance(e, Lambda):
                continue
            for fname in field_names:
                out.append(FieldAccess(e, fname))
            for mname, arity in method_sigs:
                if arity == 0:
                    out.append(Invoke(e, mname, ()))
                elif arity == 1:
                    for arg in below:
                        out.append(Invoke(e, mname, (arg,)))
        return tuple(dict.fromkeys(out))

    return level(depth)


def _reference_impfj(ct, depth):
    classes = tuple(c.name for c in ct.classes)
    method_sigs = {m for c in ct.classes for m in
                   ((md.name, len(md.params)) for md in c.methods)}
    field_names = {n for c in classes for _, n in (ct.fields(c) or ())}

    def level(d):
        if d <= 1:
            return tuple(New(c, ()) for c in classes if not ct.fields(c))
        below = level(d - 1)
        out = list(below)
        for c in classes:
            arity = len(ct.fields(c) or ())
            if arity == 0 or arity > 2:
                continue
            for combo in product(below, repeat=arity):
                out.append(New(c, combo))
        for e in below:
            for fname in field_names:
                out.append(FieldAccess(e, fname))
            for e2 in below:
                for fname in field_names:
                    out.append(FieldAssign(e, fname, e2))
            for mname, arity in method_sigs:
                if arity == 0:
                    out.append(Invoke(e, mname, ()))
                elif arity == 1:
                    for arg in below:
                        out.append(Invoke(e, mname, (arg,)))
        return tuple(dict.fromkeys(out))

    return level(depth)


def test_fj_enumeration_equals_the_deduplicated_one():
    for depth in range(1, 4):
        terms = enumerate_fj(INTEROP_TABLE, depth)
        assert terms == _reference_fj(INTEROP_TABLE, depth)
    assert len(terms) == 3118


def test_impfj_enumeration_equals_the_deduplicated_one():
    for depth in range(1, 5):
        terms = enumerate_impfj(IMP_TABLE, depth)
        assert terms == _reference_impfj(IMP_TABLE, depth)
    assert len(terms) == 152_776


def test_imp_loop_enumeration_equals_the_deduplicated_one():
    # the zero-arity ``loop`` of this table is invoked on every receiver
    for depth in range(1, 4):
        terms = enumerate_impfj(IMP_LOOP_TABLE, depth)
        assert terms == _reference_impfj(IMP_LOOP_TABLE, depth)
    assert len(terms) == 1850
