"""Maximal element of a (possibly infinite, rational) list of naturals.

The demonstration system for corules: two rules defining ``maxElem`` plus
one coaxiom constraining infinite derivations so the claimed maximum must
actually occur in the list.  Lists are eventually periodic, which keeps
goal-reachable universes finite.
"""
from __future__ import annotations

from typing import FrozenSet

from .inference import GeneralizedIS, InferenceSystem
from .node import node
from .rational import RationalList


@node
class MaxElem:
    lst: RationalList
    value: int

    def __repr__(self) -> str:
        return f"maxElem({self.lst!r}, {self.value})"


def _inverse_max(head: int, z: int) -> tuple:
    # solutions y of max(head, y) = z
    if z < head:
        return ()
    if z == head:
        return tuple(range(z + 1))
    return (z,)


def _rule_candidates(j: MaxElem) -> FrozenSet[frozenset]:
    if not isinstance(j, MaxElem) or j.lst.is_empty:
        return frozenset()
    out = set()
    head, tail = j.lst.head, j.lst.tail
    if tail.is_empty:
        if j.value == head:
            out.add(frozenset())  # singleton axiom
    else:
        for y in _inverse_max(head, j.value):
            out.add(frozenset({MaxElem(tail, y)}))
    return frozenset(out)


def _coaxiom_candidates(j: MaxElem) -> FrozenSet[frozenset]:
    if isinstance(j, MaxElem) and not j.lst.is_empty and j.lst.head == j.value:
        return frozenset({frozenset()})
    return frozenset()


def maxelem_rules() -> InferenceSystem:
    return InferenceSystem(_rule_candidates)


def maxelem_corules() -> InferenceSystem:
    return InferenceSystem(_coaxiom_candidates)


def maxelem_gis() -> GeneralizedIS:
    return GeneralizedIS(maxelem_rules(), maxelem_corules())
