"""Immutable nodes: terms, types, configurations and oracle answers.

``@node`` turns a class that declares its fields as annotations, with
optional trailing defaults as in a dataclass, into a tuple subclass:

* construction takes the same positional and keyword arguments;
* fields are read-only attributes backed by C-level getters, and
  ``__match_args__`` lists them, so class patterns keep working;
* equality is structural but type-strict: a node equals only a node of
  the same class, never a plain tuple or a node of another class with the
  same fields; terms too deep for the C compare are compared on an
  explicit stack;
* the hash is the tuple hash of the fields, computed in C;
* every node is truthy, even one without fields;
* ``repr`` is ``Name(field=value, ...)`` unless the class defines its own,
  and it does not recurse through nested nodes.

Methods and properties of the class body are kept.
"""
from __future__ import annotations

from collections import namedtuple


class Node(tuple):
    """The base of every ``@node`` class."""

    __slots__ = ()

    def __eq__(self, other):
        try:
            return type(self) is type(other) and tuple.__eq__(self, other)
        except RecursionError:
            return _deep_eq(self, other)

    def __ne__(self, other):
        try:
            return type(self) is not type(other) or tuple.__ne__(self, other)
        except RecursionError:
            return not _deep_eq(self, other)

    # defining ``__eq__`` drops the inherited hash
    __hash__ = tuple.__hash__

    def __bool__(self):
        return True

    def __repr__(self):
        # ``todo`` holds the text (a ``str``) and the values still to write,
        # the next one on top; a node that keeps this repr opens in place
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str:
                out.append(x)
            elif type(x).__repr__ is Node.__repr__:
                out.append(x._open)
                todo.append(")")
                labels = x._labels
                for i in range(len(x) - 1, -1, -1):
                    v = x[i]
                    todo += (repr(v) if type(v) is str else v, labels[i])
            else:
                out.append(repr(x))
        return "".join(out)


def _deep_eq(a, b) -> bool:
    """``a == b`` on an explicit stack, for terms too deep for the C compare.

    Nodes and tuples are taken apart here, a node matching only a node of
    its class and a tuple (such as a ``Memory``) any tuple but a node, in
    the C compare's order; every other pair is compared with ``==``.
    """
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if isinstance(x, tuple) and isinstance(y, tuple):
            if (type(x) is not type(y) and (isinstance(x, Node) or isinstance(y, Node))
                    or len(x) != len(y)):
                return False
            todo += zip(reversed(x), reversed(y))
        elif not x == y:
            return False
    return True


def node(cls: type) -> type:
    """The ``Node`` subclass with ``cls``'s name, fields and methods."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", ()))
    defaults = [ns.pop(f) for f in fields if f in ns]
    ns["__slots__"] = ()
    ns["_open"] = cls.__name__ + "("
    ns["_labels"] = tuple(f"{', ' if i else ''}{f}=" for i, f in enumerate(fields))
    return type(cls.__name__, (Node, namedtuple(cls.__name__, fields, defaults=defaults)),
                ns)


__all__ = ["Node", "node"]
