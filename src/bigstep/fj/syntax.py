"""Expressions, values, configurations and memory for the FJ calculi.

Two variants share the expression core: the functional one adds lambdas
and upcasts and evaluates in a variable environment (a ``FrozenMap`` from
names to values), the imperative one adds field assignment and object
identifiers and threads a memory of object states through premises.
Ids are allocated densely from 0, so a memory is the tuple of its object
states indexed by id, and allocation appends.
"""
from __future__ import annotations

from typing import Optional, Tuple, Union

from ..node import node
from ..util import FrozenMap


@node
class Var:
    name: str


@node
class FieldAccess:
    target: "FJExpr"
    field: str


@node
class New:
    cls: str
    args: Tuple["FJExpr", ...]


@node
class Invoke:
    target: "FJExpr"
    method: str
    args: Tuple["FJExpr", ...]


@node
class Lambda:
    params: Tuple[str, ...]
    body: "FJExpr"


@node
class Cast:
    type: str
    target: "FJExpr"


@node
class FieldAssign:
    target: "FJExpr"
    field: str
    value: "FJExpr"


@node
class ObjIdRef:
    oid: int


FJExpr = Union[Var, FieldAccess, New, Invoke, Lambda, Cast, FieldAssign, ObjIdRef]


@node
class ObjVal:
    cls: str
    fields: Tuple["FJValue", ...]


@node
class LamVal:
    params: Tuple[str, ...]
    body: FJExpr


FJValue = Union[ObjVal, LamVal]


@node
class EnvConfig:
    env: FrozenMap  # name -> FJValue
    expr: FJExpr


@node
class ObjState:
    cls: str
    fields: Tuple[int, ...]  # object identifiers


class Memory(tuple):
    """Immutable store of object states; an object's id is its index."""

    __slots__ = ()

    def allocate(self, state: ObjState) -> Tuple["Memory", int]:
        return Memory(self + (state,)), len(self)

    def get(self, oid: int) -> Optional[ObjState]:
        # a bare index would wrap a negative id
        return self[oid] if 0 <= oid < len(self) else None

    def update_field(self, oid: int, index: int, new_oid: int) -> "Memory":
        state = self[oid]
        fields = state.fields[:index] + (new_oid,) + state.fields[index + 1:]
        return Memory(self[:oid] + (ObjState(state.cls, fields),) + self[oid + 1:])

    @property
    def domain(self) -> frozenset:
        return frozenset(range(len(self)))

    def __repr__(self):
        inner = ", ".join(
            f"{oid}->{st.cls}{st.fields}" for oid, st in enumerate(self))
        return f"{{{inner}}}"


EMPTY_MEMORY = Memory()


@node
class MemConfig:
    memory: Memory
    expr: FJExpr


@node
class MemResult:
    memory: Memory
    oid: int


def subst_expr(e: FJExpr, mapping: dict) -> FJExpr:
    """Simultaneous substitution of expressions for variables.

    It runs once per method body invoked, so it dispatches on ``type(e)``
    rather than matching class patterns.
    """
    cls = type(e)
    if cls is Var:
        return mapping.get(e.name, e)
    if cls is FieldAccess:
        target, field = e
        return FieldAccess(subst_expr(target, mapping), field)
    if cls is New:
        return New(e.cls, tuple([subst_expr(a, mapping) for a in e.args]))
    if cls is Invoke:
        target, method, args = e
        return Invoke(subst_expr(target, mapping), method,
                      tuple([subst_expr(a, mapping) for a in args]))
    if cls is FieldAssign:
        target, field, value = e
        return FieldAssign(subst_expr(target, mapping), field,
                           subst_expr(value, mapping))
    if cls is ObjIdRef:
        return e
    if cls is Lambda:
        params, body = e
        trimmed = {k: v for k, v in mapping.items() if k not in params}
        return Lambda(params, subst_expr(body, trimmed))
    if cls is Cast:
        type_, target = e
        return Cast(type_, subst_expr(target, mapping))
    raise TypeError(e)


def show_fj(e) -> str:
    match e:
        case Var(name):
            return name
        case FieldAccess(target, field):
            return f"{_recv(target)}.{field}"
        case New(cls, args):
            return f"new {cls}({', '.join(show_fj(a) for a in args)})"
        case Invoke(target, method, args):
            return f"{_recv(target)}.{method}({', '.join(show_fj(a) for a in args)})"
        case Lambda(params, body):
            return f"\\{' '.join(params)}. {show_fj(body)}"
        case Cast(type_, target):
            # ``<T>e.f`` is a field access on a cast: parenthesize postfix targets
            if isinstance(target, (FieldAccess, Invoke)):
                return f"<{type_}>({show_fj(target)})"
            return f"<{type_}>{_recv(target)}"
        case FieldAssign(target, field, value):
            return f"{_recv(target)}.{field} = {show_fj(value)}"
        case ObjIdRef(oid):
            return f"#{oid}"
        case ObjVal(cls, fields):
            return f"obj {cls}({', '.join(show_fj(v) for v in fields)})"
        case LamVal(params, body):
            return f"\\{' '.join(params)}. {show_fj(body)}"
        case EnvConfig(env, expr):
            bind = ", ".join(f"{k}:{show_fj(v)}" for k, v in env.items())
            return f"<{{{bind}}}, {show_fj(expr)}>"
        case MemConfig(memory, expr):
            return f"<{memory!r}, {show_fj(expr)}>"
        case MemResult(memory, oid):
            return f"<{memory!r}, #{oid}>"
    raise TypeError(e)


def _recv(e) -> str:
    s = show_fj(e)
    if isinstance(e, (Var, New, Invoke, FieldAccess, ObjIdRef)):
        return s
    return f"({s})"
