"""Per-step cost of the stepper as terms get deeper, and one exhaustive run.

    PYTHONPATH=src python3 tools/perstep.py

Prints the microseconds per transition of ``run_first`` on ``succ^n 0``
at n = 60, 300, 3,000 and 10,000; at n = 60 and 300 also the
milliseconds that ``value_doc`` takes to render the trace document of
``eval_trace`` (the render layer); and the seconds that
``run_exhaustive`` takes on nested choice ``e_9`` (``e_k = e_{k-1} (+)
succ e_{k-1}``, as in the benchmark's ``sweep``).  Each figure is the median of three runs
in this one process.  Terms are built without the parser, which parses
196 nested ``succ (`` and fails at 197.  A flat per-step cost is the target of
ROADMAP aim 1, so the first column should not grow with ``n``.
"""
import statistics
import time

from bigstep.extensions import FinTrace, eval_trace
from bigstep.lam import lambda_semantics
from bigstep.lam.syntax import Choice, Nat, Succ
from bigstep.pet import Converged, OutOfFuel, run_exhaustive, run_first
from bigstep.serialize import value_doc

ROUNDS = 3


def spine(n: int):
    e = Nat(0)
    for _ in range(n):
        e = Succ(e)
    return e


def nested_choice(k: int):
    e = Nat(0)
    for _ in range(k):
        e = Choice(e, Succ(e))
    return e


def median_seconds(run) -> float:
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    sem = lambda_semantics()
    for n in (60, 300, 3_000, 10_000):
        e, steps = spine(n), 2 * n + 1
        out = run_first(sem, e, steps)
        assert isinstance(out, Converged) and out.steps == steps, out
        secs = median_seconds(lambda: run_first(sem, e, steps))
        print(f"run_first       {f'succ^{n} 0':<13} {secs / steps * 1e6:8.2f} us/step")
        if n in (60, 300):
            trace = eval_trace(sem, e, steps)
            assert isinstance(trace, FinTrace) and len(trace.steps) == n + 1, trace
            secs = median_seconds(lambda: value_doc(sem, trace))
            print(f"value_doc trace {f'succ^{n} 0':<13} {secs * 1e3:8.3f} ms")
    e = nested_choice(9)
    outs = run_exhaustive(sem, e, 100)
    assert {o.result for o in outs} == {Nat(k) for k in range(10)}, outs
    assert not any(isinstance(o, OutOfFuel) for o in outs)
    secs = median_seconds(lambda: run_exhaustive(sem, e, 100))
    print(f"run_exhaustive  {'e_9':<13} {secs:8.3f} s")


if __name__ == "__main__":
    main()
