"""Lexing, token cursor and positioned errors shared by the surface parsers.

A parser subclasses ``Cursor``, sets its ``token`` regex (one group: the
next token after optional whitespace) and any ``reserved`` words, and
keeps only its grammar.  The empty string is the end-of-input token.
"""
from __future__ import annotations

import re

_NAME = re.compile(r"[^\W\d]")


class ParseError(Exception):
    """Syntax error at character offset ``pos`` (1-based ``line``/``column``)."""

    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {self.line}, column {self.column}")


class Cursor:
    token: re.Pattern
    reserved: frozenset = frozenset()

    def __init__(self, text: str):
        self.text = text
        self.toks = []
        i = 0
        while m := self.token.match(text, i):
            self.toks.append((m.group(1), m.start(1)))
            i = m.end()
        i = len(text) - len(text[i:].lstrip())  # the first unlexed character
        if i < len(text):
            raise ParseError(f"unexpected character {text[i]!r}", i, text)
        self.toks.append(("", len(text)))
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0]

    def next(self) -> str:
        tok = self.peek()
        if tok:  # the end-of-input token is never consumed
            self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.peek() != tok:
            return False
        self.next()
        return True

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            raise self.expected(repr(tok))

    def name(self, what: str = "a name") -> str:
        """The next token if it is an identifier, else an error naming ``what``."""
        tok = self.peek()
        if not _NAME.match(tok) or tok in self.reserved:
            raise self.expected(what)
        return self.next()

    def commas(self, item, close: str | None = None) -> tuple:
        """``item (',' item)*``; with ``close``, possibly empty and then ``close``."""
        out = []
        if close is None or self.peek() != close:
            out.append(item())
            while self.accept(","):
                out.append(item())
        if close is not None:
            self.expect(close)
        return tuple(out)

    def end(self) -> None:
        if self.peek():
            raise self.error(f"unexpected trailing input {self.peek()!r}")

    def error(self, message: str) -> ParseError:
        """An error at the next token."""
        return ParseError(message, self.toks[self.i][1], self.text)

    def expected(self, what: str) -> ParseError:
        return self.error(f"expected {what}, found {self.peek() or 'end of input'!r}")
