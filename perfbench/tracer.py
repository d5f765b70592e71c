"""Spans and per-layer counters, recorded from outside the engine.

The tracer never edits the engine.  It times calls into public functions
and wraps the objects the engine accepts or returns: the rule oracles,
the transformers returned by the extension factories, the indexed
predicate callbacks and the premise-candidate queries of inference
systems.  Engine functions that call each other through module globals
(``eval_*`` calling ``run_first``, audits calling ``run_exhaustive``,
``interp_corules`` calling ``interp_inductive``) are reached by
swapping those globals for the duration of a traced pass.

Every timed call pushes a frame; its self time is its duration minus the
durations of the calls made inside it.  Calls into public functions are
also kept as spans (name, start, end, parent, item).  The fine-grained
callbacks, called millions of times, are aggregated and not kept as
spans, so memory stays bounded.
"""
from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

from bigstep.oracle import LanguageSemantics


def tree_depth(tree) -> int:
    """Depth of a partial evaluation tree, without recursion."""
    best = 0
    todo = [(tree, 1)]
    while todo:
        node, d = todo.pop()
        best = max(best, d)
        todo.extend((ch, d + 1) for ch in node.children)
    return best


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.item = None
        self._stack = []  # frames: [name, child_time, span_id]

    def call(self, name, fn, *args, span=False, **kwargs):
        """Run ``fn`` as a timed frame named ``name``."""
        stack = self._stack
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append(None)  # reserve the id; filled in below
        parent = stack[-1] if stack else None
        frame = [name, 0.0, span_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if span:
                self.spans[span_id] = (span_id, name, t0, t1,
                                       parent[2] if parent else None, self.item)

    def parent_name(self):
        return self._stack[-1][0] if self._stack else None

    def overhead(self, t0: float) -> None:
        """Charge ``perf_counter() - t0`` to the tracer, not to the caller."""
        dur = perf_counter() - t0
        self.total["trace.overhead"] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def function(self, name, fn, span=True, on_result=None):
        """``fn`` timed as ``name``; ``on_result`` inspects each result."""
        def wrapped(*args, **kwargs):
            out = self.call(name, fn, *args, span=span, **kwargs)
            if on_result is not None:
                t0 = perf_counter()
                on_result(out)
                self.overhead(t0)
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "item": item}) + "\n")


PET_FRAMES = ("pet.run_first", "pet.run_history", "pet.run_exhaustive")


class TracedOracle(LanguageSemantics):
    """A rule oracle whose ``start``/``advance`` queries are timed.

    A query made directly by the stepper is one expansion: each
    transition of a partial evaluation tree asks the oracle it was given
    exactly one ``start`` or ``advance`` question.
    """

    def __init__(self, inner, tracer: Tracer, prefix: str):
        self.inner = inner
        self._tracer = tracer
        self._start = prefix + ".start"
        self._advance = prefix + ".advance"
        self._empty = prefix + ".empty"

    def _query(self, name, fn, *args):
        tracer = self._tracer
        if tracer.parent_name() in PET_FRAMES:
            tracer.counts["pet.expansions"] += 1
        out = tracer.call(name, fn, *args)
        if not out:
            tracer.counts[self._empty] += 1
        return out

    def start(self, config):
        return self._query(self._start, self.inner.start, config)

    def advance(self, activation, result):
        return self._query(self._advance, self.inner.advance, activation, result)

    def premise_bound(self, config):
        return self.inner.premise_bound(config)

    def show_config(self, config):
        return self.inner.show_config(config)

    def show_result(self, result):
        return self.inner.show_result(result)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@contextlib.contextmanager
def patched(pairs):
    """Temporarily set ``module.name = value`` for each (module, name, value)."""
    saved = [(m, n, getattr(m, n)) for m, n, _ in pairs]
    try:
        for m, n, v in pairs:
            setattr(m, n, v)
        yield
    finally:
        for m, n, v in saved:
            setattr(m, n, v)
