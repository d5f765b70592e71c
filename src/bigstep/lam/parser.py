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

from dataclasses import dataclass

from .corpus import OMEGA
from .syntax import Abs, App, Choice, Expr, Nat, Succ, Var
from .types import NAT, LType, TArrow, TRec, TVar


class ParseError(Exception):
    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.column = col


@dataclass
class _Tok:
    kind: str  # 'num' | 'ident' | punctuation/keyword literal
    text: str
    pos: int


_KEYWORDS = {"succ", "rec", "nat", "omega"}


def _lex(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(+)", i):
            toks.append(_Tok("(+)", "(+)", i))
            i += 3
            continue
        if text.startswith("->", i):
            toks.append(_Tok("->", "->", i))
            i += 2
            continue
        if ch in "\\().:":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(_Tok(word if word in _KEYWORDS else "ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.pos, self.text)
        return self.next()

    # types

    def type_(self) -> LType:
        left = self.tatom()
        if self.peek().kind == "->":
            self.next()
            return TArrow(left, self.type_())
        return left

    def tatom(self) -> LType:
        t = self.peek()
        if t.kind == "nat":
            self.next()
            return NAT
        if t.kind == "rec":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            return TRec(var, self.type_())
        if t.kind == "ident":
            self.next()
            return TVar(t.text)
        if t.kind == "(":
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        raise ParseError(f"expected a type, found {t.text or 'end of input'!r}",
                         t.pos, self.text)

    # expressions

    def expr(self) -> Expr:
        left = self.app()
        while self.peek().kind == "(+)":
            self.next()
            left = Choice(left, self.app())
        return left

    _ATOM_STARTS = {"num", "omega", "ident", "\\", "("}

    def app(self) -> Expr:
        e = self.factor()
        while self.peek().kind in self._ATOM_STARTS or self.peek().kind == "succ":
            e = App(e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "succ":
            self.next()
            return Succ(self.factor())
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Nat(int(t.text))
        if t.kind == "omega":
            self.next()
            return OMEGA
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind == "\\":
            self.next()
            param = self.expect("ident").text
            self.expect(":")
            ann = self.type_()
            self.expect(".")
            return Abs(param, ann, self.expr())
        if t.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.pos, self.text)


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e = p.expr()
    p.expect("eof")
    return e


def parse_type(text: str) -> LType:
    p = _Parser(text)
    t = p.type_()
    p.expect("eof")
    return t
