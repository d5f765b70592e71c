"""Small immutable helpers: ``FrozenMap``, the variable environments of
functional FJ; ``Mark``, the engine's printable sentinels; and structural
deduplication."""
from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple


class FrozenMap:
    """Immutable, hashable mapping with value-based equality.

    Keys and values must be hashable.  Equality and hash depend on the
    contents only; ``items()`` lists the entries sorted by key ``repr``,
    for a stable display.
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, items: Iterable[Tuple[Any, Any]] = ()):
        d = dict(items)
        pairs = tuple(sorted(d.items(), key=lambda kv: repr(kv[0])))
        object.__setattr__(self, "_items", pairs)
        object.__setattr__(self, "_dict", d)
        object.__setattr__(self, "_hash", hash(frozenset(pairs)))

    def get(self, key: Any, default: Any = None) -> Any:
        return self._dict.get(key, default)

    def items(self) -> Tuple[Tuple[Any, Any], ...]:
        return self._items

    def keys(self):
        return self._dict.keys()

    def values(self):
        return self._dict.values()

    def __getitem__(self, key: Any) -> Any:
        return self._dict[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._dict

    def __iter__(self) -> Iterator[Any]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrozenMap) and self._dict == other._dict

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self._items)
        return f"FrozenMap({{{inner}}})"


EMPTY_MAP = FrozenMap()


class Mark:
    """A sentinel compared by identity and printed as its name."""

    __slots__ = ("_name", "rule")

    def __init__(self, name: str, rule: Optional[str] = None):
        self._name = name
        self.rule = rule or name  # prefix of the rules that conclude this mark

    def __repr__(self):
        return self._name


def dedup(items: Iterable[Any]) -> tuple:
    """Structural, order-preserving deduplication.

    Fewer than two items are returned as they are, without hashing them.
    """
    items = tuple(items)
    return items if len(items) < 2 else tuple(dict.fromkeys(items))
