"""Eventually periodic (rational) infinite sequences as finite objects.

A rational word is ``prefix . period^omega``: a finite prefix followed by a
finite period repeated forever.  An empty period denotes a finite word.
Normalisation makes structural equality coincide with equality of the
denoted infinite words.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple


def normalize_word(prefix: Tuple[Any, ...], period: Tuple[Any, ...]) -> tuple:
    """Canonical (prefix, period): primitive period, prefix rolled back."""
    prefix, period = tuple(prefix), tuple(period)
    if period:
        n = len(period)
        for d in range(1, n + 1):
            if n % d == 0 and period == period[:d] * (n // d):
                period = period[:d]
                break
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = (period[-1],) + period[:-1]
    return prefix, period


@dataclass(frozen=True)
class RationalList:
    """An eventually periodic list; finite when the period is empty.

    The hash is computed once, at construction.
    """

    prefix: Tuple[Any, ...]
    period: Tuple[Any, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set(*normalize_word(self.prefix, self.period))

    def _set(self, prefix: tuple, period: tuple) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_hash", hash((prefix, period)))

    def __hash__(self):
        return self._hash

    @property
    def is_empty(self) -> bool:
        return not self.prefix and not self.period

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def head(self) -> Any:
        items = self.prefix or self.period
        if not items:
            raise ValueError("head of empty list")
        return items[0]

    @property
    def tail(self) -> "RationalList":
        # the tail of a normal word is normal: drop the head of the prefix,
        # or rotate the (still primitive) period by one
        prefix, period = self.prefix, self.period
        if prefix:
            prefix = prefix[1:]
        elif period:
            period = period[1:] + period[:1]
        else:
            raise ValueError("tail of empty list")
        tail = object.__new__(RationalList)
        tail._set(prefix, period)
        return tail

    def take(self, n: int) -> Tuple[Any, ...]:
        out = []
        cur = self
        while n > 0 and not cur.is_empty:
            out.append(cur.head)
            cur = cur.tail
            n -= 1
        return tuple(out)

    def __repr__(self) -> str:
        items = ":".join(str(x) for x in self.prefix)
        if self.period:
            rep = "(" + ":".join(str(x) for x in self.period) + ")*"
            return f"{items}:{rep}" if items else rep
        return f"{items}:nil" if items else "nil"


def finite(*items: Any) -> RationalList:
    return RationalList(tuple(items))


def periodic(prefix: Tuple[Any, ...], period: Tuple[Any, ...]) -> RationalList:
    if not period:
        raise ValueError("periodic list needs a non-empty period")
    return RationalList(tuple(prefix), tuple(period))
