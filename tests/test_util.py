"""Shared immutable containers."""
from bigstep.util import FrozenMap


class _SameRepr:
    def __repr__(self):
        return "k"


def test_frozen_map_equality_ignores_insertion_order():
    # distinct keys with one repr used to keep their insertion order
    a, b = _SameRepr(), _SameRepr()
    left, right = FrozenMap([(a, 1), (b, 2)]), FrozenMap([(b, 2), (a, 1)])
    assert left == right and hash(left) == hash(right)
    assert left != FrozenMap([(a, 2), (b, 1)])


def test_frozen_map_items_sorted_by_key_repr():
    m = FrozenMap([("b", 1), ("a", 2), ("c", 0)])
    assert m.items() == (("a", 2), ("b", 1), ("c", 0))
