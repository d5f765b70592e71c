"""The result table of a semantics: the results of configurations over
its base rules, closed by a least fixpoint from a sequence of roots as in
Tamaki-Sato tabling, so that it finds the results that flow back through
a cycle, which a stepper run cuts.  ``build`` asks ``start`` of each
configuration met and ``advance`` of each activation with each result of
its pending premise, once each, in at most ``fuel`` queries.  Its
``Table(entries, dead_ends, rejoined, spent)`` maps each configuration met
to its results, ``{result: None}`` in discovery order, and the
``(conclusion, activation)`` pairs pending on it; ``dead_ends`` holds each
dead end once, attributed by ``pet.dead_end``; ``rejoined`` says whether a
demand met a configuration again; ``spent`` holds those with queries left."""
from collections import deque, namedtuple

from .oracle import COMPLETIONS, LanguageSemantics, checked_advance, checked_start
from .pet import START, dead_end

Table = namedtuple("Table", "entries dead_ends rejoined spent")


def build(sem: LanguageSemantics, roots, fuel: int, wanted: set | None = None):
    """The ``Table`` of ``roots`` over ``sem`` in at most ``fuel`` queries.  A
    set ``wanted`` of ``(conclusion, family, index, demanded config)`` loses
    each demand met, and the table stops once it is empty."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    entries = {root: ({}, []) for root in roots}
    # queries to ask: (config, START, None), or (conclusion, activation, result)
    todo = deque([(root, START, None) for root in entries])
    dead, rejoined = {}, False
    for _ in range(fuel):
        if not todo or wanted is not None and not wanted:
            break
        config, act, r = todo.popleft()
        answers = (checked_start(sem, config) if act is START
                   else checked_advance(sem, act, r))
        if not answers:
            dead[dead_end(config, act, r)] = None
        found, waiting = entries[config]
        for a in answers:
            if isinstance(a, COMPLETIONS):
                r = a.result
                if r not in found:
                    found[r] = None
                    todo.extend([(c, w, r) for c, w in waiting])
                continue
            p, w = a.config, a.activation
            entry = entries.get(p)
            if entry is None:
                entries[p] = ({}, [(config, w)])
                todo.append((p, START, None))
            else:
                rejoined = True
                entry[1].append((config, w))
                todo.extend([(config, w, res) for res in entry[0]])
            if wanted is not None:
                wanted.discard((config, w.rule_family, w.index, p))
    return Table(entries, dead, rejoined, {c for c, _, _ in todo} if todo else set())


def results_of(table: Table, config) -> dict:
    """The results of ``config``, a configuration of ``table``."""
    return table.entries[config][0]


def diverging(table: Table) -> set:
    """The configurations of ``table`` that reach a cycle of demands: the
    greatest fixpoint drops each with no demand edge into the survivors, so
    unless a demand rejoined one met before, nothing survives."""
    if not table.rejoined:
        return set()
    entries = table.entries
    live = dict.fromkeys(entries, 0)
    for _, waiting in entries.values():
        for c, _ in waiting:
            live[c] += 1
    drop = [c for c, n in live.items() if not n]
    while drop:
        for c, _ in entries[drop.pop()][1]:
            live[c] -= 1
            if not live[c]:
                drop.append(c)
    return {c for c, n in live.items() if n}


def unsettled(table: Table) -> set:
    """The configurations of ``table`` that reach ``spent`` by demands; with
    one root, the root is one exactly when ``spent`` is not empty."""
    reached, todo = set(table.spent), table.spent
    while todo:
        todo = {c for p in todo for c, _ in table.entries[p][1]} - reached
        reached |= todo
    return reached
