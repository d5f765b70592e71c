"""One workload in a fresh interpreter; prints one JSON line of results.

Started by ``run.py``, never by hand: it expects ``PYTHONPATH`` to name
the engine's ``src`` directory and ``PYTHONHASHSEED`` to be fixed.

    worker.py WORKLOAD SEED SECONDS MODE

MODE ``setup`` builds the inputs and stops, so that set-up time can be
sampled.  ``plain`` runs whole passes over the items until another pass
would overrun SECONDS (at least one).  ``traced`` runs one plain pass
and one traced pass and reports the per-layer metrics.
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from time import perf_counter

T_IMPORT = perf_counter()

import bigstep  # noqa: E402

from engine import Engine  # noqa: E402
from hostspeed import HostSpeed, kernel_s  # noqa: E402
from tracer import PET_FRAMES, Tracer  # noqa: E402
from workloads import DEEP_LADDERS, DEEP_STEPS, WORKLOADS  # noqa: E402

LANGS = ("lam", "fj", "impfj")


class PassStats:
    """Per-item durations over every pass; summaries use per-item medians.

    Each duration is scaled to the nominal host (see ``hostspeed``), and
    each item's median over the passes is steadier still.
    """

    def __init__(self):
        self.attempted = 0
        self.mismatched = 0
        self.raised = Counter()
        self.seconds = defaultdict(list)  # item index -> scaled duration per pass
        self.raw = defaultdict(list)  # item index -> raw duration per pass
        self.first_s = {}  # item index -> scaled run_first duration per pass
        self.bad = set()  # items that raised or mismatched in some pass

    def item_s(self, idx, raw=False) -> float:
        return statistics.median((self.raw if raw else self.seconds)[idx])

    def ok_items(self):
        return [i for i in self.seconds if i not in self.bad]


def run_pass(wl, eng, items, refs, stats: PassStats, host: HostSpeed | None,
             tracer=None) -> None:
    """One pass over the items; without ``host``, times are left unscaled."""
    sample = host.sample if host is not None else lambda: None
    maybe_sample = host.maybe_sample if host is not None else lambda: None
    timed = []  # (index, start, seconds, run_first seconds or None)
    sample()
    for idx, item in enumerate(items):
        stats.attempted += 1
        first_s = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.run(eng, item)
            else:
                tracer.item = idx
                out = tracer.call("item", wl.run, eng, item, span=True)
        except Exception as err:  # an item that raises is a failure, not an abort
            dur = perf_counter() - t0
            stats.raised[type(err).__name__] += 1
            stats.bad.add(idx)
        else:
            dur = perf_counter() - t0
            if not wl.check(item, refs[idx], out):
                stats.mismatched += 1
                stats.bad.add(idx)
            elif wl.steps(item) is not None:
                first_s = out[-1]
        timed.append((idx, t0, dur, first_s))
        maybe_sample()
    sample()
    for idx, t0, dur, first_s in timed:
        scale = host.scale(t0) if host is not None else 1.0
        stats.raw[idx].append(dur)
        stats.seconds[idx].append(dur * scale)
        if first_s is not None:
            stats.first_s.setdefault(idx, []).append(first_s * scale)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(wl, items, stats: PassStats, passes: int) -> dict:
    ok = stats.ok_items()
    ok_ms = sorted(stats.item_s(i) * 1e3 for i in ok)
    p99, above = percentile(ok_ms, 0.99) if ok_ms else (0.0, 0)
    stepped = [i for i in ok if i in stats.first_s]
    steps = sum(wl.steps(items[i]) for i in stepped)
    first_s = sum(statistics.median(stats.first_s[i]) for i in stepped)
    return {
        "items_per_pass": len(items),
        "passes": passes,
        "attempted": stats.attempted,
        "failed": stats.mismatched + sum(stats.raised.values()),
        "mismatched": stats.mismatched,
        "raised": dict(stats.raised),
        "items_per_s": len(ok) / sum(stats.item_s(i) for i in stats.seconds),
        "raw_items_per_s": len(ok) / sum(stats.item_s(i, raw=True) for i in stats.raw),
        "raw_item_p50_ms": (statistics.median(stats.item_s(i, raw=True) for i in ok) * 1e3
                            if ok else 0.0),
        "item_p50_ms": statistics.median(ok_ms) if ok_ms else 0.0,
        "item_p99_ms": p99,
        "item_samples": len(ok_ms),
        "item_p99_samples_above": above,
        "steps_per_s": steps / first_s if steps else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def us_per_step_names():
    return [f"pet.us_per_step.{shape}.d{n}" for shape in DEEP_STEPS
            for n in DEEP_LADDERS[shape] if n != 400]


def layer_metrics(tracer: Tracer, wl, items, plain: PassStats) -> dict:
    total, self_s, calls, counts = (tracer.total, tracer.self_time,
                                    tracer.calls, tracer.counts)
    pet_self = sum(self_s[n] for n in PET_FRAMES)
    expansions = counts["pet.expansions"]
    outcomes = counts["pet.outcomes"]
    judgments = counts["inference.universe.judgments"]
    m = {
        "pet.s": sum(total[n] for n in PET_FRAMES),
        "pet.self_s": pet_self,
        "pet.calls": sum(calls[n] for n in PET_FRAMES),
        "pet.expansions": expansions,
        "pet.us_per_expansion": pet_self / expansions * 1e6 if expansions else 0.0,
        "pet.outcomes": outcomes,
        "pet.expansions_per_outcome": expansions / outcomes if outcomes else 0.0,
        "pet.max_tree_depth": counts["pet.max_tree_depth"],
    }
    per_rung = defaultdict(lambda: [0, 0.0])  # (shape, n) -> [steps, seconds]
    for idx, first_s in plain.first_s.items():
        if idx not in plain.bad:
            rung = per_rung[items[idx][:2]]
            rung[0] += wl.steps(items[idx])
            rung[1] += statistics.median(first_s)
    for name in us_per_step_names():
        shape, rung = name.split(".")[2:]
        steps, seconds = per_rung.get((shape, int(rung[1:])), (0, 0.0))
        m[name] = seconds / steps * 1e6 if steps else 0.0
    for part in ("start", "advance"):
        m[f"extensions.{part}.calls"] = calls[f"extensions.{part}"]
        m[f"extensions.{part}.s"] = self_s[f"extensions.{part}"]
    m["extensions.eval.calls"] = calls["extensions.eval"]
    m["extensions.eval.s"] = self_s["extensions.eval"]
    m["extensions.cert_check.s"] = self_s["extensions.cert_check"]
    for lang in LANGS:
        for part in ("start", "advance"):
            m[f"oracle.{lang}.{part}.calls"] = calls[f"oracle.{lang}.{part}"]
            m[f"oracle.{lang}.{part}.s"] = self_s[f"oracle.{lang}.{part}"]
        m[f"oracle.{lang}.empty"] = counts[f"oracle.{lang}.empty"]
    for part in ("indices", "holds"):
        m[f"predicates.{part}.calls"] = calls[f"predicates.{part}"]
        m[f"predicates.{part}.s"] = self_s[f"predicates.{part}"]
    m["predicates.audit.s"] = self_s["predicates.audit"]
    m["predicates.violations"] = counts["predicates.violations"]
    m["inference.universe.s"] = self_s["inference.universe"]
    m["inference.universe.judgments"] = judgments
    m["inference.candidates.calls"] = calls["inference.candidates"]
    m["inference.candidates.s"] = self_s["inference.candidates"]
    m["inference.candidates_per_judgment"] = (
        calls["inference.candidates"] / judgments if judgments else 0.0)
    m["inference.fixpoint.self_s"] = self_s["inference.fixpoint"]
    m["parse.s"] = self_s["parse"]
    m["serialize.s"] = self_s["serialize"]
    return m


# self-time metrics that partition the traced pass, by layer
LAYER_SELF = {
    "pet": ("pet.self_s",),
    "extensions": ("extensions.start.s", "extensions.advance.s",
                   "extensions.eval.s", "extensions.cert_check.s"),
    "oracle": tuple(f"oracle.{lang}.{part}.s" for lang in LANGS
                    for part in ("start", "advance")),
    "predicates": ("predicates.indices.s", "predicates.holds.s", "predicates.audit.s"),
    "inference": ("inference.universe.s", "inference.candidates.s",
                  "inference.fixpoint.self_s"),
    "parse": ("parse.s",),
    "serialize": ("serialize.s",),
}


def main(argv) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    wl = WORKLOADS[name]
    src = os.environ["PYTHONPATH"].split(os.pathsep)[0]
    if not os.path.abspath(bigstep.__file__).startswith(os.path.abspath(src)):
        print(f"bigstep imported from {bigstep.__file__}, not {src}", file=sys.stderr)
        return 2
    t_corpus = perf_counter()
    plain_engine = Engine()
    items = wl.build(random.Random(seed))
    result = {"ready_at": time.monotonic(),
              "setup_import_s": t_corpus - T_IMPORT,
              "setup_corpus_s": perf_counter() - t_corpus}
    result["kernel_s"] = kernel_s(repeat=3)
    if mode == "setup":
        print(json.dumps(result))
        return 0

    refs = [wl.reference(item) for item in items]
    plain = PassStats()
    host = HostSpeed()
    start = perf_counter()
    passes = 0
    while True:
        t_pass = perf_counter()
        run_pass(wl, plain_engine, items, refs, plain, host)
        passes += 1
        now = perf_counter()
        if mode == "traced" or (now - start) + (now - t_pass) > seconds:
            break
    plain_wall = perf_counter() - start - sum(host.took)
    result.update(end_to_end(wl, items, plain, passes))
    result["host_kernel_s"] = host.median_s()

    if mode == "traced":
        tracer = Tracer()
        eng = Engine(tracer)
        traced = PassStats()
        t0 = perf_counter()
        with eng.active():
            run_pass(wl, eng, items, refs, traced, None, tracer)
        wall = perf_counter() - t0
        layers = layer_metrics(tracer, wl, items, plain)
        accounted = sum(layers[k] for keys in LAYER_SELF.values() for k in keys)
        layers.update({
            "trace.wall_s": wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_s": wall - plain_wall,
            "trace.layers_share": accounted / wall,
            "bench.self_s": wall - accounted,
        })
        result["layers"] = layers
        result["layer_self"] = {layer: sum(layers[k] for k in keys)
                                for layer, keys in LAYER_SELF.items()}
        result["traced_mismatched"] = traced.mismatched
        out_dir = os.path.join(os.getcwd(), ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        result["spans"] = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        result["span_count"] = len(tracer.spans)
        tracer.write_spans(result["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
