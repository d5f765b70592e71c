"""Eventually periodic (rational) infinite sequences as finite objects.

A rational word is ``prefix . period^omega``: a finite prefix followed by a
finite period repeated forever.  An empty period denotes a finite word.
Normalisation makes structural equality coincide with equality of the
denoted infinite words.

The suffixes of one list form a lasso: a chain through the prefix into a
cycle through the rotations of the period.  Each list keeps its tail once
built, and the tail of the last rotation is the first period-only suffix
of the walk, not a new list, so walking ``tail`` from a list meets at
most ``len(prefix) + len(period)`` objects however far it goes (one more,
the empty list, at the end of a finite one).  Equal suffixes reached from
one list are one object, so comparing them stops at the identity check;
lists built separately still compare and hash by value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


def normalize_word(prefix: Tuple[Any, ...], period: Tuple[Any, ...]) -> tuple:
    """Canonical (prefix, period): primitive period, prefix rolled back."""
    prefix, period = tuple(prefix), tuple(period)
    if period:
        n = len(period)
        for d in range(1, n + 1):
            if n % d == 0 and period == period[:d] * (n // d):
                period = period[:d]
                n = d
                break
        # the prefix item k from the end matches the period item k from the
        # end once the period has turned right k times
        k = 0
        while k < len(prefix) and prefix[-1 - k] == period[(-1 - k) % n]:
            k += 1
        if k:
            r = n - k % n
            prefix, period = prefix[:-k], period[r:] + period[:r]
    return prefix, period


@dataclass(frozen=True, slots=True)
class RationalList:
    """An eventually periodic list; finite when the period is empty.

    The hash is computed once, at construction.  The tail is built on the
    first ``tail`` call, of the list's own class, and kept; a list and the
    suffixes it reaches own at most ``len(prefix) + len(period)`` lists
    between them.  The fields are slots, which keeps the kept suffixes
    small.
    """

    prefix: Tuple[Any, ...]
    period: Tuple[Any, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _tail: Optional["RationalList"] = field(init=False, repr=False, compare=False)
    # on a period-only suffix: the first period-only suffix of its walk and
    # how many rotations lie between them; ``None`` on that first one
    _loop: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set(*normalize_word(self.prefix, self.period))

    def _set(self, prefix: tuple, period: tuple, loop: Optional[tuple] = None) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_hash", hash((prefix, period)))
        object.__setattr__(self, "_tail", None)
        object.__setattr__(self, "_loop", loop)

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
        tail = self._tail
        if tail is not None:
            return tail
        # the tail of a normal word is normal: drop the head of the prefix,
        # or rotate the (still primitive) period by one
        prefix, period = self.prefix, self.period
        loop = None
        if prefix:
            prefix = prefix[1:]
        elif not period:
            raise ValueError("tail of empty list")
        else:
            start, k = self._loop or (self, 0)
            if k + 1 == len(period):
                # the last rotation leads back to the first
                object.__setattr__(self, "_tail", start)
                return start
            period = period[1:] + period[:1]
            loop = (start, k + 1)
        tail = object.__new__(type(self))
        tail._set(prefix, period, loop)
        object.__setattr__(self, "_tail", tail)
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
