"""Java-like surface syntax for class tables and expressions.

    table    ::= (class | interface)*
    class    ::= 'class' C ('extends' D)? ('implements' I (',' I)*)?
                 '{' field* method* '}'
    field    ::= T f ';'
    method   ::= T m '(' (T x (',' T x)*)? ')' '{' 'return' expr ';' '}'
    interface::= 'interface' I ('extends' J (',' J)*)? '{' sig* '}'
    sig      ::= T m '(' (T x (',' T x)*)? ')' ';'

    expr     ::= assign
    assign   ::= postfix ('.' f '=' assign)?      imperative only
    postfix  ::= primary ( '.' f | '.' m '(' args ')' )*
    primary  ::= 'new' C '(' args ')' | x | 'this' | '<' T '>' primary
               | '\\' x+ '.' expr | '(' expr ')' | '#' n

Lambdas and casts belong to the functional variant, assignment to the
imperative one; the parser accepts all of them and the typecheckers sort
out the rest.
"""
from __future__ import annotations

import re

from ..parsing import Cursor, ParseError
from .syntax import (
    Cast,
    FieldAccess,
    FieldAssign,
    FJExpr,
    Invoke,
    Lambda,
    New,
    ObjIdRef,
    Var,
)
from .table import ClassDecl, ClassTable, InterfaceDecl, MethodDef

FJParseError = ParseError  # exported by ``bigstep.fj`` under this name


class _P(Cursor):
    token = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[{}().,;<>=\\#])")

    # expressions

    def expr(self) -> FJExpr:
        e = self.postfix()
        if isinstance(e, FieldAccess) and self.accept("="):
            return FieldAssign(e.target, e.field, self.expr())
        return e

    def postfix(self) -> FJExpr:
        e = self.primary()
        while self.accept("."):
            name = self.name()
            if self.accept("("):
                e = Invoke(e, name, self.commas(self.expr, ")"))
            else:
                e = FieldAccess(e, name)
        return e

    def primary(self) -> FJExpr:
        if self.accept("new"):
            cls = self.name()
            self.expect("(")
            return New(cls, self.commas(self.expr, ")"))
        if self.accept("<"):
            type_ = self.name()
            self.expect(">")
            return Cast(type_, self.primary())
        if self.accept("\\"):
            params = [self.name()]
            while not self.accept("."):
                params.append(self.name())
            body = self.expr()
            if isinstance(body, Lambda):
                raise self.error("lambda body may not be a lambda")
            return Lambda(tuple(params), body)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("#"):
            n = self.next()
            if not n.isdigit():
                raise self.error("expected an object id")
            return ObjIdRef(int(n))
        return Var(self.name())

    # declarations

    def table(self) -> ClassTable:
        classes, interfaces = [], []
        while self.peek():
            if self.accept("class"):
                classes.append(self.class_decl())
            elif self.accept("interface"):
                interfaces.append(self.interface_decl())
            else:
                raise self.expected("a declaration")
        return ClassTable(tuple(classes), tuple(interfaces))

    def class_decl(self) -> ClassDecl:
        name = self.name()
        superclass = self.name() if self.accept("extends") else None
        interfaces = self.commas(self.name) if self.accept("implements") else ()
        self.expect("{")
        fields, methods = [], []
        while not self.accept("}"):
            type_, member = self.name(), self.name()
            if self.accept(";"):
                fields.append((type_, member))
            else:
                params = self.params()
                self.expect("{")
                self.expect("return")
                body = self.expr()
                self.expect(";")
                self.expect("}")
                methods.append(MethodDef(member, params, type_, body))
        return ClassDecl(name, superclass, interfaces, tuple(fields), tuple(methods))

    def params(self) -> tuple:
        """``'(' (T x (',' T x)*)? ')'`` as (type, name) pairs."""
        self.expect("(")
        return self.commas(lambda: (self.name(), self.name()), ")")

    def interface_decl(self) -> InterfaceDecl:
        name = self.name()
        extends = self.commas(self.name) if self.accept("extends") else ()
        self.expect("{")
        sigs = []
        while not self.accept("}"):
            ret, mname = self.name(), self.name()
            ptypes = tuple(t for t, _ in self.params())
            self.expect(";")
            sigs.append((mname, ptypes, ret))
        return InterfaceDecl(name, extends, tuple(sigs))


def parse_fj_expr(text: str) -> FJExpr:
    p = _P(text)
    e = p.expr()
    p.end()
    return e


def parse_class_table(text: str) -> ClassTable:
    return _P(text).table()
