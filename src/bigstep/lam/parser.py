"""Surface syntax for lambda terms and recursive types.

    expr   ::= app ('(+)' app)*            choice, left-associative
    app    ::= factor+                     juxtaposition, left-associative
    factor ::= 'succ' factor | atom
    atom   ::= nat | 'omega' | ident | '\\' x ':' type '.' expr | '(' expr ')'
    type   ::= tatom ('->' type)?          right-associative
    tatom  ::= 'nat' | ident | 'rec' t '.' type | '(' type ')'

Whitespace-insensitive.  ``omega`` names the self-application loop
``OMEGA``.  Errors carry the offending position.
"""
from __future__ import annotations

import re

from ..parsing import Cursor, ParseError
from .corpus import OMEGA
from .syntax import Abs, App, Choice, Expr, Nat, Succ, Var
from .types import NAT, LType, TArrow, TRec, TVar

__all__ = ["ParseError", "parse_expr", "parse_type"]


class _Parser(Cursor):
    token = re.compile(r"\s*(\(\+\)|->|[\\().:]|\d+|[^\W\d]\w*)")
    reserved = frozenset({"succ", "rec", "nat", "omega"})

    # types

    def type_(self) -> LType:
        left = self.tatom()
        if self.accept("->"):
            return TArrow(left, self.type_())
        return left

    def tatom(self) -> LType:
        if self.accept("nat"):
            return NAT
        if self.accept("rec"):
            var = self.name()
            self.expect(".")
            return TRec(var, self.type_())
        if self.accept("("):
            inner = self.type_()
            self.expect(")")
            return inner
        return TVar(self.name("a type"))

    # expressions

    def expr(self) -> Expr:
        left = self.app()
        while self.accept("(+)"):
            left = Choice(left, self.app())
        return left

    def app(self) -> Expr:
        # any other token fails in ``factor`` at the position where the
        # caller would have failed on it
        e = self.factor()
        while self.peek() not in ("", ")", "(+)"):
            e = App(e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.accept("succ"):
            return Succ(self.factor())
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.isdecimal():
            self.next()
            return Nat(int(t))
        if self.accept("omega"):
            return OMEGA
        if self.accept("\\"):
            param = self.name()
            self.expect(":")
            ann = self.type_()
            self.expect(".")
            return Abs(param, ann, self.expr())
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        return Var(self.name("an expression"))


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e = p.expr()
    p.end()
    return e


def parse_type(text: str) -> LType:
    p = _Parser(text)
    t = p.type_()
    p.end()
    return t
