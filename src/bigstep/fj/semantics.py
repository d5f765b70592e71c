"""Rule oracles for the two FJ variants, plus direct reference evaluators.

The functional variant evaluates in an environment; method invocation
shares its receiver premise between two rule families - selecting the
ordinary one when the receiver is an object and the lambda one when it is
a lambda value.  The imperative variant threads a memory: each premise
starts in the previous premise's output memory, and fresh identifiers
come from a deterministic counter so runs are reproducible.
"""
from __future__ import annotations

from typing import Sequence

from ..oracle import (
    Activation,
    Axiom,
    Config,
    Continuation,
    Demand,
    Finished,
    FirstPremise,
    LanguageSemantics,
    ResultVal,
    StartStep,
)
from ..util import FrozenMap
from .syntax import (
    Cast,
    EnvConfig,
    FieldAccess,
    FieldAssign,
    Invoke,
    LamVal,
    Lambda,
    MemConfig,
    MemResult,
    New,
    ObjIdRef,
    ObjState,
    ObjVal,
    Var,
    show_fj,
    subst_expr,
)
from .table import ClassTable


class _FJOracle(LanguageSemantics):
    """What the two FJ oracles share: the class table, premise bounds over
    every form (each oracle starts only its own) and the rendering."""

    def __init__(self, ct: ClassTable):
        self.ct = ct

    # Each query dispatches once on ``type(...)`` and builds its answers
    # positionally, as ``oracle`` advises.
    def premise_bound(self, config: Config) -> int:
        e = config.expr
        cls = type(e)
        if cls is Invoke:
            return len(e.args) + 2
        if cls is New:
            return len(e.args)
        if cls is FieldAssign:
            return 2
        return 1 if cls is FieldAccess or cls is Cast else 0

    def show_config(self, config):
        return show_fj(config)

    show_result = show_config


class FJSemantics(_FJOracle):
    """MiniFJ with lambdas: configurations are (environment, expression)."""

    # rules whose first premise evaluates the target
    _TARGET_FIRST = {FieldAccess: "field-access", Invoke: "invk", Cast: "upcast"}

    def start(self, config: Config) -> Sequence[StartStep]:
        env, e = config
        cls = type(e)
        family = self._TARGET_FIRST.get(cls)
        if family is not None:
            first = EnvConfig(env, e.target)
            return (FirstPremise(first, Activation(family, config, (), first)),)
        if cls is Var:
            v = env.get(e.name)
            return (Axiom(v, "var"),) if v is not None else ()
        if cls is New:
            args = e.args
            fields = self.ct.fields(e.cls)
            if fields is None or len(fields) != len(args):
                return ()
            if not args:
                return (Axiom(ObjVal(e.cls, ()), "new"),)
            first = EnvConfig(env, args[0])
            return (FirstPremise(first, Activation("new", config, (), first)),)
        if cls is Lambda:
            return (Axiom(LamVal(e.params, e.body), "lambda"),)
        return ()

    def advance(self, a: Activation, r: ResultVal) -> Sequence[Continuation]:
        config: EnvConfig = a.conclusion_config
        env, e = config.env, config.expr
        i = a.index
        family = a.rule_family
        if family == "new":
            if i < len(e.args):
                nxt = EnvConfig(env, e.args[i])
                return (Demand(nxt, a.extend(r, nxt)),)
            values = tuple(j.result for j in a.completed) + (r,)
            return (Finished(ObjVal(e.cls, values), "new"),)
        if family == "field-access":
            if isinstance(r, ObjVal):
                idx = self.ct.field_index(r.cls, e.field)
                if idx is not None and idx < len(r.fields):
                    return (Finished(r.fields[idx], "field-access"),)
            return ()
        if family == "upcast":
            return (Finished(r, "upcast"),)
        if family in ("invk", "lambda-invk"):
            n = len(e.args)
            if i == 1:  # receiver premise: select the rule family
                if isinstance(r, ObjVal):
                    found = self.ct.mbody(r.cls, e.method)
                    if found is None or len(found[0]) != n:
                        return ()
                    family = "invk"
                elif isinstance(r, LamVal) and len(r.params) == n:
                    family = "lambda-invk"
                else:
                    return ()
            if i <= n:  # demand argument i
                nxt = EnvConfig(env, e.args[i - 1])
            elif i == n + 1:  # demand the body
                values = tuple(j.result for j in a.completed) + (r,)
                nxt = self._invoke_body(family, values[0], values[1:], e.method)
            else:
                return (Finished(r, family),)
            return (Demand(nxt, a.extend(r, nxt, rule_family=family)),)
        raise ValueError(f"unknown rule family {family!r}")

    def _invoke_body(self, family: str, recv, args, method: str) -> EnvConfig:
        if family == "invk":
            params, body = self.ct.mbody(recv.cls, method)
            env = FrozenMap(tuple(zip(params, args)) + (("this", recv),))
            return EnvConfig(env, body)
        env = FrozenMap(tuple(zip(recv.params, args)))
        return EnvConfig(env, recv.body)


def fj_semantics(ct: ClassTable) -> FJSemantics:
    return FJSemantics(ct)


class ImpFJSemantics(_FJOracle):
    """Imperative FJ: configurations pair a memory with an expression.

    The receiver's class is read from the memory right after the receiver
    premise, as the invocation rule states it; field assignment resolves
    the target's class in the final memory.
    """

    # rules whose first premise evaluates the target
    _TARGET_FIRST = {FieldAccess: "fld", Invoke: "invk", FieldAssign: "fld-up"}

    def start(self, config: Config) -> Sequence[StartStep]:
        mem, e = config
        cls = type(e)
        family = self._TARGET_FIRST.get(cls)
        if family is not None:
            first = MemConfig(mem, e.target)
            return (FirstPremise(first, Activation(family, config, (), first)),)
        if cls is ObjIdRef:
            return (Axiom(MemResult(mem, e.oid), "obj"),)
        if cls is New:
            args = e.args
            fields = self.ct.fields(e.cls)
            if fields is None or len(fields) != len(args):
                return ()
            if not args:
                mem2, oid = mem.allocate(ObjState(e.cls, ()))
                return (Axiom(MemResult(mem2, oid), "new"),)
            first = MemConfig(mem, args[0])
            return (FirstPremise(first, Activation("new", config, (), first)),)
        return ()

    def advance(self, a: Activation, r: ResultVal) -> Sequence[Continuation]:
        config: MemConfig = a.conclusion_config
        e = config.expr
        i = a.index
        family = a.rule_family
        mem_after = r.memory
        if family == "new":
            if i < len(e.args):
                nxt = MemConfig(mem_after, e.args[i])
                return (Demand(nxt, a.extend(r, nxt)),)
            oids = tuple(j.result.oid for j in a.completed) + (r.oid,)
            mem2, oid = mem_after.allocate(ObjState(e.cls, oids))
            return (Finished(MemResult(mem2, oid), "new"),)
        if family == "fld":
            state = mem_after.get(r.oid)
            if state is None:
                return ()
            idx = self.ct.field_index(state.cls, e.field)
            if idx is None or idx >= len(state.fields):
                return ()
            return (Finished(MemResult(mem_after, state.fields[idx]), "fld"),)
        if family == "fld-up":
            if i == 1:
                nxt = MemConfig(mem_after, e.value)
                return (Demand(nxt, a.extend(r, nxt)),)
            target = a.completed[0].result
            state = mem_after.get(target.oid)
            if state is None:
                return ()
            idx = self.ct.field_index(state.cls, e.field)
            if idx is None or idx >= len(state.fields):
                return ()
            mem2 = mem_after.update_field(target.oid, idx, r.oid)
            return (Finished(MemResult(mem2, r.oid), "fld-up"),)
        if family == "invk":
            n = len(e.args)
            cls = a.bindings
            if i == 1:
                # class lookup in the memory produced by the receiver premise
                state = mem_after.get(r.oid)
                if state is None:
                    return ()
                found = self.ct.mbody(state.cls, e.method)
                if found is None or len(found[0]) != n:
                    return ()
                cls = state.cls
            if i <= n:  # demand argument i
                nxt = MemConfig(mem_after, e.args[i - 1])
            elif i == n + 1:  # demand the body
                oids = tuple(j.result.oid for j in a.completed) + (r.oid,)
                params, body = self.ct.mbody(cls, e.method)
                mapping = {p: ObjIdRef(o) for p, o in zip(params, oids[1:])}
                mapping["this"] = ObjIdRef(oids[0])
                nxt = MemConfig(mem_after, subst_expr(body, mapping))
            else:
                return (Finished(r, "invk"),)
            return (Demand(nxt, a.extend(r, nxt, bindings=cls)),)
        raise ValueError(f"unknown rule family {family!r}")


def impfj_semantics(ct: ClassTable) -> ImpFJSemantics:
    return ImpFJSemantics(ct)


# direct reference evaluators, independent of the oracle and stepper

class _Fuel:
    def __init__(self, n: int):
        self.n = n

    def tick(self) -> bool:
        self.n -= 1
        return self.n >= 0


def direct_eval_fj(ct: ClassTable, env: FrozenMap, e, fuel: int = 10_000):
    """("ok", value) / ("stuck",) / ("timeout",) by structural recursion."""
    return _direct_fj(ct, env, e, _Fuel(fuel))


def _direct_fj(ct, env, e, fuel):
    if not fuel.tick():
        return ("timeout",)
    match e:
        case Var(name):
            v = env.get(name)
            return ("ok", v) if v is not None else ("stuck",)
        case Lambda(params, body):
            return ("ok", LamVal(params, body))
        case New(cls, args):
            fields = ct.fields(cls)
            if fields is None or len(fields) != len(args):
                return ("stuck",)
            values = []
            for arg in args:
                out = _direct_fj(ct, env, arg, fuel)
                if out[0] != "ok":
                    return out
                values.append(out[1])
            return ("ok", ObjVal(cls, tuple(values)))
        case FieldAccess(target, fname):
            out = _direct_fj(ct, env, target, fuel)
            if out[0] != "ok":
                return out
            v = out[1]
            if not isinstance(v, ObjVal):
                return ("stuck",)
            idx = ct.field_index(v.cls, fname)
            if idx is None or idx >= len(v.fields):
                return ("stuck",)
            return ("ok", v.fields[idx])
        case Cast(_, target):
            return _direct_fj(ct, env, target, fuel)
        case Invoke(target, method, args):
            out = _direct_fj(ct, env, target, fuel)
            if out[0] != "ok":
                return out
            recv = out[1]
            values = []
            if isinstance(recv, ObjVal):
                found = ct.mbody(recv.cls, method)
                if found is None or len(found[0]) != len(args):
                    return ("stuck",)
            elif isinstance(recv, LamVal):
                if len(recv.params) != len(args):
                    return ("stuck",)
            else:
                return ("stuck",)
            for arg in args:
                out = _direct_fj(ct, env, arg, fuel)
                if out[0] != "ok":
                    return out
                values.append(out[1])
            if isinstance(recv, ObjVal):
                params, body = ct.mbody(recv.cls, method)
                cenv = FrozenMap(tuple(zip(params, values)) + (("this", recv),))
            else:
                params, body = recv.params, recv.body
                cenv = FrozenMap(tuple(zip(params, values)))
            return _direct_fj(ct, cenv, body, fuel)
    return ("stuck",)


def direct_eval_imp(ct: ClassTable, mem, e, fuel: int = 10_000):
    """("ok", MemResult) / ("stuck",) / ("timeout",) with threaded memory."""
    return _direct_imp(ct, mem, e, _Fuel(fuel))


def _direct_imp(ct, mem, e, fuel):
    if not fuel.tick():
        return ("timeout",)
    match e:
        case ObjIdRef(oid):
            return ("ok", MemResult(mem, oid))
        case New(cls, args):
            fields = ct.fields(cls)
            if fields is None or len(fields) != len(args):
                return ("stuck",)
            oids = []
            for arg in args:
                out = _direct_imp(ct, mem, arg, fuel)
                if out[0] != "ok":
                    return out
                mem, oid = out[1].memory, out[1].oid
                oids.append(oid)
            mem2, oid = mem.allocate(ObjState(cls, tuple(oids)))
            return ("ok", MemResult(mem2, oid))
        case FieldAccess(target, fname):
            out = _direct_imp(ct, mem, target, fuel)
            if out[0] != "ok":
                return out
            res = out[1]
            state = res.memory.get(res.oid)
            if state is None:
                return ("stuck",)
            idx = ct.field_index(state.cls, fname)
            if idx is None or idx >= len(state.fields):
                return ("stuck",)
            return ("ok", MemResult(res.memory, state.fields[idx]))
        case FieldAssign(target, fname, value):
            out = _direct_imp(ct, mem, target, fuel)
            if out[0] != "ok":
                return out
            tgt = out[1]
            out = _direct_imp(ct, tgt.memory, value, fuel)
            if out[0] != "ok":
                return out
            val = out[1]
            state = val.memory.get(tgt.oid)
            if state is None:
                return ("stuck",)
            idx = ct.field_index(state.cls, fname)
            if idx is None or idx >= len(state.fields):
                return ("stuck",)
            return ("ok", MemResult(val.memory.update_field(tgt.oid, idx, val.oid),
                                    val.oid))
        case Invoke(target, method, args):
            out = _direct_imp(ct, mem, target, fuel)
            if out[0] != "ok":
                return out
            recv = out[1]
            state = recv.memory.get(recv.oid)
            if state is None:
                return ("stuck",)
            found = ct.mbody(state.cls, method)
            if found is None or len(found[0]) != len(args):
                return ("stuck",)
            cur = recv.memory
            oids = []
            for arg in args:
                out = _direct_imp(ct, cur, arg, fuel)
                if out[0] != "ok":
                    return out
                cur, oid = out[1].memory, out[1].oid
                oids.append(oid)
            params, body = found
            mapping = {p: ObjIdRef(o) for p, o in zip(params, oids)}
            mapping["this"] = ObjIdRef(recv.oid)
            return _direct_imp(ct, cur, subst_expr(body, mapping), fuel)
    return ("stuck",)
