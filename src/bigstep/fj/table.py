"""Class tables: declarations plus the lookup functions over them.

The table backs five queries: field sequences (inherited first), method
types, method bodies, the subtype preorder generated by extends and
implements, and the unique method type of a functional interface.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .syntax import FJExpr


@dataclass(frozen=True)
class MethodDef:
    name: str
    params: Tuple[Tuple[str, str], ...]  # (type, name)
    return_type: str
    body: FJExpr


@dataclass(frozen=True)
class ClassDecl:
    name: str
    superclass: Optional[str] = None
    interfaces: Tuple[str, ...] = ()
    fields: Tuple[Tuple[str, str], ...] = ()  # declared only
    methods: Tuple[MethodDef, ...] = ()


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    extends: Tuple[str, ...] = ()
    methods: Tuple[Tuple[str, Tuple[str, ...], str], ...] = ()  # (name, param types, return)


@dataclass(frozen=True)
class ClassTable:
    classes: Tuple[ClassDecl, ...] = ()
    interfaces: Tuple[InterfaceDecl, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_class", {c.name: c for c in self.classes})
        object.__setattr__(self, "_iface", {i.name: i for i in self.interfaces})

    def is_class(self, name: str) -> bool:
        return name in self._class

    def is_interface(self, name: str) -> bool:
        return name in self._iface

    def all_types(self) -> Tuple[str, ...]:
        return tuple(self._class) + tuple(self._iface)

    def fields(self, cls: str) -> Optional[Tuple[Tuple[str, str], ...]]:
        decl = self._class.get(cls)
        if decl is None:
            return None
        inherited = self.fields(decl.superclass) if decl.superclass else ()
        if inherited is None:
            return None
        return inherited + decl.fields

    def field_index(self, cls: str, name: str) -> Optional[int]:
        fs = self.fields(cls)
        if fs is None:
            return None
        for i, (_, fname) in enumerate(fs):
            if fname == name:
                return i
        return None

    def mtype(self, type_name: str, method: str) -> Optional[Tuple[Tuple[str, ...], str]]:
        decl = self._class.get(type_name)
        if decl is not None:
            for m in decl.methods:
                if m.name == method:
                    return tuple(t for t, _ in m.params), m.return_type
            if decl.superclass:
                found = self.mtype(decl.superclass, method)
                if found is not None:
                    return found
            for iface in decl.interfaces:
                found = self.mtype(iface, method)
                if found is not None:
                    return found
            return None
        idecl = self._iface.get(type_name)
        if idecl is not None:
            for name, params, ret in idecl.methods:
                if name == method:
                    return params, ret
            for parent in idecl.extends:
                found = self.mtype(parent, method)
                if found is not None:
                    return found
        return None

    def mbody(self, cls: str, method: str) -> Optional[Tuple[Tuple[str, ...], FJExpr]]:
        decl = self._class.get(cls)
        if decl is None:
            return None
        for m in decl.methods:
            if m.name == method:
                return tuple(n for _, n in m.params), m.body
        if decl.superclass:
            return self.mbody(decl.superclass, method)
        return None

    def supertypes(self, name: str) -> frozenset:
        """Reflexive-transitive closure of extends and implements."""
        seen = set()
        todo = [name]
        while todo:
            t = todo.pop()
            if t in seen:
                continue
            seen.add(t)
            decl = self._class.get(t)
            if decl is not None:
                if decl.superclass:
                    todo.append(decl.superclass)
                todo.extend(decl.interfaces)
            idecl = self._iface.get(t)
            if idecl is not None:
                todo.extend(idecl.extends)
        return frozenset(seen)

    def subtype(self, sub: str, sup: str) -> bool:
        return sup in self.supertypes(sub)

    def interface_methods(self, name: str) -> tuple:
        """All method signatures of an interface, inherited included."""
        idecl = self._iface.get(name)
        if idecl is None:
            return ()
        out = dict()
        for parent in idecl.extends:
            for sig in self.interface_methods(parent):
                out[sig[0]] = sig
        for sig in idecl.methods:
            out[sig[0]] = sig
        return tuple(out.values())

    def umtype(self, name: str) -> Optional[Tuple[Tuple[str, ...], str]]:
        """The method type of a functional interface's unique method."""
        sigs = self.interface_methods(name)
        if len(sigs) != 1:
            return None
        _, params, ret = sigs[0]
        return params, ret
