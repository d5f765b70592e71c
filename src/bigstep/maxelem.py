"""Maximal element of a (possibly infinite, rational) list of naturals.

The demonstration system for corules: two rules defining ``maxElem`` plus
one coaxiom constraining infinite derivations so the claimed maximum must
actually occur in the list.  Lists are eventually periodic, which keeps
goal-reachable universes finite.  The rule query streams its premise sets
without building a set of them, so closing a goal such as
``maxElem((10^6)^omega, 10^6)`` under premises stops at the cap after
drawing at most cap + 1 of its 10^6 + 1 rules.
"""
from __future__ import annotations

from typing import Iterator

from .inference import GeneralizedIS, InferenceSystem
from .node import node
from .rational import RationalList


@node
class MaxElem:
    lst: RationalList
    value: int

    def __repr__(self) -> str:
        return f"maxElem({self.lst!r}, {self.value})"


def _rule_candidates(j: MaxElem) -> Iterator[frozenset]:
    """The premise sets of the rules concluding ``j``, streamed.

    ``maxElem(x:nil, x)`` is an axiom; ``maxElem(x:xs, z)`` has the premise
    ``maxElem(xs, y)`` for each solution ``y`` of ``max(x, y) = z``: ``z``
    alone when ``x < z``, and each of ``0 .. z`` when ``x = z``.  Every
    premise shares ``xs``, the tail that the list built once and keeps, so
    the judgments of one universe hold one object per suffix and the
    probes that meet them stop at the identity check.
    """
    if not isinstance(j, MaxElem):
        return
    lst, z = j
    prefix, period = lst.prefix, lst.period
    items = prefix or period
    if not items:
        return
    head = items[0]
    if z < head:
        return
    if not period and len(prefix) == 1:
        if z == head:
            yield frozenset()  # singleton axiom
        return
    tail = lst.tail
    for y in range(z + 1) if z == head else (z,):
        yield frozenset({MaxElem(tail, y)})


_COAXIOM = (frozenset(),)


def _coaxiom_candidates(j: MaxElem) -> tuple:
    """The coaxiom ``maxElem(x:xs, x)``: the head is a maximum candidate."""
    if isinstance(j, MaxElem):
        lst, z = j
        items = lst.prefix or lst.period
        if items and items[0] == z:
            return _COAXIOM
    return ()


def maxelem_rules() -> InferenceSystem:
    return InferenceSystem(_rule_candidates)


def maxelem_corules() -> InferenceSystem:
    return InferenceSystem(_coaxiom_candidates)


def maxelem_gis() -> GeneralizedIS:
    return GeneralizedIS(maxelem_rules(), maxelem_corules())
