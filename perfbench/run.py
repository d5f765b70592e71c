"""The bigstep benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded interpreter (``worker.py``) with ``PYTHONHASHSEED``
fixed: one caller in a closed loop, each item started when the previous
one has finished.  Set-up time is the median over several fresh
interpreters.  The lines before the last describe the run for a reader;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
HASH_SEED = "0"
SETUP_SAMPLES = 9  # fresh interpreters timed to their first ready input
IMPORT_SAMPLES = 5
DEADLINE_S = 170  # the whole command, to stay inside its 180 s allowance

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
                        PYTHONPATH=str(ROOT / "src"))

    def python(self, args) -> tuple:
        """Run a fresh interpreter; (its last stdout line as JSON, start time)."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("out of time before starting a worker")
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{args[:2]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), t0

    def worker(self, workload, seed, seconds, mode) -> tuple:
        return self.python([str(HERE / "worker.py"), workload, str(seed),
                            str(seconds), mode])

    def import_cli_s(self) -> float:
        code = ("import time; t = time.perf_counter(); import bigstep.cli; "
                "print(time.perf_counter() - t)")
        return statistics.median(self.python(["-c", code])[0]
                                 for _ in range(IMPORT_SAMPLES))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    started = time.monotonic()
    spec = benchmark_spec() if (ROOT / "BENCHMARK.json").is_file() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bigstep" / "__init__.py").is_file():
        return fail(f"no engine source under {ROOT / 'src'}; run from a checkout")
    if spec is None or args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    runner = Runner(started)
    try:
        # set-up samples before and after the measured run, so that one
        # spell of a faster or slower host does not set them all
        setups = []  # (raw seconds, the same scaled to the nominal host)

        def add_setup(res, t0):
            raw = res["ready_at"] - t0
            setups.append((raw, raw * NOMINAL_S / res["kernel_s"]))

        def sample_setup():
            add_setup(*runner.worker(args.workload, args.seed, args.seconds, "setup"))

        for _ in range(SETUP_SAMPLES // 2):
            sample_setup()
        mode = "traced" if args.trace else "plain"
        res, t0 = runner.worker(args.workload, args.seed, args.seconds, mode)
        add_setup(res, t0)
        while len(setups) < SETUP_SAMPLES:
            sample_setup()
        import_s = runner.import_cli_s() if args.trace else None
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError) as err:
        return fail(str(err))

    setup_s = statistics.median(scaled for _, scaled in setups)
    raw_setup_s = statistics.median(raw for raw, _ in setups)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} PYTHONHASHSEED={HASH_SEED} "
          f"items/pass={res['items_per_pass']} passes={res['passes']}")
    print(f"  times are scaled to a host where the reference kernel takes "
          f"{NOMINAL_S * 1e3:g} ms; here it took {res['host_kernel_s'] * 1e3:.2f} ms "
          f"(median); raw values in brackets")
    rows = [("setup_s", setup_s, "s", f"[{raw_setup_s:.4f}] median of {len(setups)} "
             f"fresh interpreters; import {res['setup_import_s']:.4f} s, "
             f"inputs {res['setup_corpus_s']:.4f} s"),
            ("items_per_s", res["items_per_s"], "1/s",
             f"[{res['raw_items_per_s']:.4f}] completed items / busy time"),
            ("item_p50_ms", res["item_p50_ms"], "ms",
             f"[{res['raw_item_p50_ms']:.4f}] n={res['item_samples']} items, "
             f"each its median over {res['passes']} passes")]
    if args.workload in ("sweep", "audit"):
        rows.append(("item_p99_ms", res["item_p99_ms"], "ms",
                     f"n={res['item_samples']}, {res['item_p99_samples_above']} above"))
    if args.workload == "deep":
        rows.append(("steps_per_s", res["steps_per_s"], "1/s",
                     "analytic transitions of converging run_first calls / their time"))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB", "ru_maxrss of the worker"))
    raised = ", ".join(f"{k}={v}" for k, v in sorted(res["raised"].items()))
    rows.append(("fail_share", res["failed"] / res["attempted"], "share",
                 f"{res['failed']}/{res['attempted']}; mismatched={res['mismatched']}"
                 + (f"; raised {raised}" if raised else "")))
    for name, value, unit, note in rows:
        print(f"  {name:<14} {value:>14.6g} {unit:<6} {note}")

    if args.trace:
        layers = dict(res["layers"], **{"cli.import_s": import_s,
                                        "setup.corpus.s": res["setup_corpus_s"]})
        print(f"  cli.import_s   {import_s:>14.6g} s      beside setup_s, median of "
              f"{IMPORT_SAMPLES} fresh `import bigstep.cli`")
        print("  self time by layer (traced pass, s): " + ", ".join(
            f"{k}={v:.4f}" for k, v in res["layer_self"].items())
              + f", bench={layers['bench.self_s']:.4f} of {layers['trace.wall_s']:.4f}")
        print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s; "
              f"{res['span_count']} spans in {res['spans']}")
        wanted = spec["per_layer"]
    else:
        layers = dict(res, setup_s=setup_s)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = res["mismatched"] == 0 and res.get("traced_mismatched", 0) == 0
    print(json.dumps({"correct": correct,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
