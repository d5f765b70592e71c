"""Run-to-run spread of the benchmark, and repeatability of traced counts.

    python3 perfbench/spread.py spread --workload fixpoint --seeds 1-10
    python3 perfbench/spread.py counts --workload deep --seed 1

``spread`` runs the end-to-end benchmark once per seed and prints, for
each metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile distance as a share of the median next to the
metric's bound in BENCHMARK.json.  ``counts`` makes two traced runs with
the same seed and checks that every per-layer count is identical.
Runs are sequential, one at a time.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec()["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args) -> int:
    runs = [bench(args.workload, s, 0) for s in seeds(args.seeds)]
    bad = [r for r in runs if not r["correct"]]
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}, "
          f"{len(bad)} incorrect, failed {[r['failed'] for r in runs]}")
    summary = {}
    for m in spec()["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                              "values": values}
        print(f"  {m['name']:<12} median {med:12.6g} {m['unit']:<4} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:.4f} "
              f"(bound {m['bound']}, {share / m['bound']:.2f} of it)")
    if args.json:
        print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                          "metrics": summary}))
    return 1 if bad else 0


def cmd_counts(args) -> int:
    first, second = (bench(args.workload, args.seed, 1) for _ in range(2))
    counts = [m["name"] for m in spec()["per_layer"] if m["unit"] == "count"]
    differ = [n for n in counts
              if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    for n in counts:
        print(f"  {n:<34} {first['metrics'][n]['value']:>12} "
              f"{second['metrics'][n]['value']:>12}")
    print(f"{args.workload} seed {args.seed}: {len(counts) - len(differ)}/{len(counts)} "
          f"counts repeat exactly" + (f"; differ: {differ}" if differ else ""))
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--json", action="store_true", help="also print a JSON summary")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("counts")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_counts)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
