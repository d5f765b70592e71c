"""Per-step cost of the stepper as terms get deeper, exhaustive runs,
the two soundness audits on a corpus, and the corule fixpoints as the
universe grows.

    PYTHONPATH=src python3 tools/perstep.py

Prints the microseconds per transition of ``run_first``, ``eval_trace``
and ``eval_total`` on ``succ^n 0`` at n = 60, 300, 3,000 and 10,000,
the fastest of five runs beside the median; at n = 60 and 300 also the
milliseconds that ``value_doc`` takes to render the trace document of
``eval_trace`` (the render layer); the seconds that ``run_exhaustive``
takes on nested choice ``e_9`` (``e_k = e_{k-1} (+) succ e_{k-1}``, as
in the benchmark's ``sweep``); the microseconds per run that
``run_exhaustive`` takes over the 3,118 FJ configurations of
``enumerate_fj(INTEROP_TABLE, 3)`` at fuel 150, each a run with one end,
and over the 6,343 closed depth-3 lambda terms at fuel 120; the
milliseconds that keying and merging take (``_outcome_key`` into one dict
per run, the merge layer of ``run_exhaustive``) over the 26,892 ends of
the runs with two or more ends on those lambda terms at fuel 120, under
the base, wrong and trace oracles; the seconds
that ``soundness_must_audit`` and ``soundness_may_audit`` take on the
typed depth-3 lambda corpus (``typed_corpus(3)``, 974 members) at fuel
100, each of which must pass with no inconclusive member, and how many
members each leaves inconclusive at fuel 5 (none: the corpus shares one table of 5 queries
per member, while tables of 5 queries for each member alone would leave
729 and 593), beside the seconds that ``results.build`` alone takes on
that corpus at fuel 100 a member, pooled, as both audits build it, so
that the table's share of an audit shows apart from its checks; the milliseconds that ``typed_corpus(3)`` takes to type
the 6,343 closed depth-3 terms, and the microseconds per member that
the must and may audits take on each member of it alone at fuel 200, as
the benchmark's ``audit`` workload runs them, the fastest of five runs
beside the median; the microseconds per judgment that ``reachable_universe``
and then ``interp_corules`` on the universe it returns take on the
maxElem goal ``(0:1:...:n-1)*=n-1`` at n = 50, 100, 200 and 300, whose
universes hold 2,500, 10,000, 40,000 and 90,000 judgments: what ``bsm
corules`` pays, with a fresh goal and universe in each run, so that the
closure's rule tables are built in every run and ``interp_corules``
queries nothing; beside them, the microseconds per judgment that
``interp_corules`` takes on a plain frozenset copy of the universe, which
numbers it and queries both systems about every judgment; on the universe
that each rung built, the microseconds per judgment of the other
fixpoints that the benchmark's ``fixpoint`` workload runs:
``interp_coinductive`` and ``interp_inductive`` of the rules, and
``bounded_coinduction_check`` of the goal's value claimed of every suffix
of its list, which must pass, and which reads the bound that
``interp_corules`` kept on the universe, as in the workload; at 90,000
judgments, the ``tracemalloc`` peak of the closure plus
``interp_corules`` and the megabytes that the universe, with its tables,
retains; and the seconds that ``reachable_universe`` takes to pass the
cap of 1000 on ``(1000000)*=1000000``, as ``bsm corules`` does by
default.  On each rung the closure, ``interp_corules`` and the other
three fixpoints run five times each, and the fastest run is printed
beside the median; every other time is the median of three runs in this
one process.  One process on a shared host can drift by more than a
fifth between rounds, so to compare two trees, time one rung per
process, alternating the trees, and compare the fastest runs::

    cd tools; PYTHONPATH=<tree>/src python3 -c 'import perstep; perstep.fixpoint_rung(300)'

and ``perstep.ladder_rung(3_000)`` times one rung of the ``succ^n 0``
ladder, ``perstep.audit_members()`` the typing and the per-member
audits the same way, and ``perstep.oracle_queries()`` the oracle layer:
the nanoseconds per ``checked_start`` and per ``checked_advance`` over
the queries that exhaustive runs ask on the depth-3 lambda terms under
the base, wrong and trace oracles and on the FJ depth-3 corpus.

Terms are built without the parser, which parses 196 nested
``succ (`` and fails at 197.  ROADMAP aim 1 targets a flat per-step
cost, so the first column should not grow with ``n``, and fixpoints
linear in the universe, so the microseconds per judgment should not grow
either.
"""
import statistics
import time
import tracemalloc

from bigstep.extensions import (FinTrace, Ok, eval_total, eval_trace, trace_oracle,
                                wrong_oracle)
from bigstep.fj import INTEROP_TABLE, EnvConfig, enumerate_fj, fj_semantics
from bigstep.inference import (UniverseOverflow, bounded_coinduction_check,
                               interp_coinductive, interp_corules, interp_inductive,
                               reachable_universe)
from bigstep.lam import lambda_semantics
from bigstep.lam.corpus import enumerate_terms, lambda_type_predicate, typed_corpus
from bigstep.lam.syntax import Choice, Nat, Succ
from bigstep.maxelem import MaxElem, maxelem_gis
from bigstep.oracle import LanguageSemantics, checked_advance, checked_start
from bigstep.pet import (START, Converged, OutOfFuel, _explore, _Frame, _outcome_key,
                         run_exhaustive, run_first)
from bigstep.predicates import soundness_may_audit, soundness_must_audit
from bigstep.rational import periodic
from bigstep.results import build
from bigstep.serialize import value_doc
from bigstep.util import EMPTY_MAP

ROUNDS = 3
RUNG_RUNS = 5


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


def maxelem_goal(n: int) -> MaxElem:
    # built afresh for each run, so that each run builds the list's suffixes
    return MaxElem(periodic((), tuple(range(n))), n - 1)


def closure_and_corules(gis, n: int) -> tuple:
    """Seconds of ``reachable_universe`` and then of ``interp_corules`` on
    the universe it returns, and that universe."""
    goal = maxelem_goal(n)
    t0 = time.perf_counter()
    universe = reachable_universe(gis.combined(), {goal}, n * n)
    t1 = time.perf_counter()
    members = interp_corules(gis, universe)
    t2 = time.perf_counter()
    assert len(universe) == n * n and goal in members
    return t1 - t0, t2 - t1, universe


def suffix_claim(goal: MaxElem) -> frozenset:
    """The goal's value claimed of every suffix of its list."""
    claim, lst = set(), goal.lst
    while MaxElem(lst, goal.value) not in claim:
        claim.add(MaxElem(lst, goal.value))
        lst = lst.tail
    return frozenset(claim)


def overflow(sys, goal, cap: int) -> None:
    try:
        reachable_universe(sys, {goal}, cap)
    except UniverseOverflow:
        return
    raise AssertionError(f"{goal!r} closes within {cap}")


def multi_end_runs(sems, configs, fuel: int) -> list:
    """The ends of every run with two or more, one list per run."""
    runs = []
    for sem in sems:
        for c in configs:
            ends = [o for _, o in _explore(sem, [_Frame(c, START, ())], fuel)]
            if len(ends) > 1:
                runs.append(ends)
    return runs


def merge(runs) -> None:
    for ends in runs:
        outcomes = {}
        for o in ends:
            outcomes.setdefault(_outcome_key(o), o)


def seconds(run, runs: int) -> list:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return times


def median_seconds(run) -> float:
    return statistics.median(seconds(run, ROUNDS))


def fixpoint_rung(n: int) -> None:
    """Print the closure and the four fixpoints on ``(0:..:n-1)*=n-1``, in
    microseconds per judgment, the fastest of five runs and the median."""
    gis = maxelem_gis()
    times = []
    for _ in range(RUNG_RUNS):
        universe = None  # let the last run's universe go before the next
        *secs, universe = closure_and_corules(gis, n)
        times.append(secs)
    closure, corules = zip(*times)
    plain = frozenset(universe)
    queried = median_seconds(lambda: interp_corules(gis, plain))
    del plain
    claim = suffix_claim(maxelem_goal(n))
    assert len(claim) == n
    assert bounded_coinduction_check(gis, claim, universe).passed
    others = [seconds(run, RUNG_RUNS) for run in (
        lambda: interp_coinductive(gis.rules, universe),
        lambda: interp_inductive(gis.rules, universe),
        lambda: bounded_coinduction_check(gis, claim, universe))]
    per, goal = 1e6 / (n * n), f"(0:..:{n - 1})*={n - 1}"

    def us(times) -> str:
        return f"{min(times) * per:.2f} ({statistics.median(times) * per:.2f})"

    print(f"universe        {goal:<15} {n * n} judgments, us per judgment, fastest"
          f" (median) of {RUNG_RUNS}: closure {us(closure)}, interp_corules"
          f" {us(corules)}; on a frozenset interp_corules {queried * per:.1f}")
    print(f"fixpoints       {goal:<15} interp_coinductive {us(others[0])},"
          f" interp_inductive {us(others[1])}, bounded_coinduction_check"
          f" {us(others[2])} us per judgment")


def audit_members() -> None:
    """Print the milliseconds of ``typed_corpus(3)``, and the microseconds
    per member of the must and may audits of each of its members alone
    at fuel 200, the fastest of five runs and the median."""
    sem, pred = lambda_semantics(), lambda_type_predicate()
    enumerate_terms(3)  # cached after its first call; only the typing is timed
    typing = seconds(lambda: typed_corpus(3), RUNG_RUNS)
    corpus = typed_corpus(3)
    print(f"typed_corpus    {'depth 3':<15} {min(typing) * 1e3:.1f}"
          f" ({statistics.median(typing) * 1e3:.1f}) ms, {len(corpus)} members,"
          f" fastest (median) of {RUNG_RUNS}")
    for name, audit in (("must", soundness_must_audit), ("may", soundness_may_audit)):
        assert all(audit(sem, pred, [c], 200).passed for c in corpus)
        times = seconds(lambda: [audit(sem, pred, [c], 200) for c in corpus], RUNG_RUNS)
        per = 1e6 / len(corpus)
        print(f"{name + ' audit':<15} {'each member':<15} {min(times) * per:.1f}"
              f" ({statistics.median(times) * per:.1f}) us per member at fuel 200,"
              f" fastest (median) of {RUNG_RUNS}")


class _Recorder(LanguageSemantics):
    """Asks ``inner`` and keeps every query asked of it."""

    def __init__(self, inner):
        self.inner = inner
        self.starts, self.advances = [], []

    def start(self, config):
        self.starts.append(config)
        return self.inner.start(config)

    def advance(self, a, r):
        self.advances.append((a, r))
        return self.inner.advance(a, r)

    def premise_bound(self, config):
        return self.inner.premise_bound(config)


def oracle_queries() -> None:
    """Print the nanoseconds per ``checked_start`` and per
    ``checked_advance`` over the queries that exhaustive runs ask on the
    depth-3 lambda terms at fuel 120, under the base, wrong and trace
    oracles, and on the FJ depth-3 corpus at fuel 150; the fastest of
    five runs and the median."""
    def ns(times, n) -> str:
        return f"{min(times) * 1e9 / n:.0f} ({statistics.median(times) * 1e9 / n:.0f})"

    lam, fj = lambda_semantics(), fj_semantics(INTEROP_TABLE)
    fj_configs = [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)]
    for name, sem, fuel, configs in (
            ("lambda base", lam, 120, enumerate_terms(3)),
            ("lambda wrong", wrong_oracle(lam), 120, enumerate_terms(3)),
            ("lambda trace", trace_oracle(lam), 120, enumerate_terms(3)),
            ("FJ depth 3", fj, 150, fj_configs)):
        rec = _Recorder(sem)
        for c in configs:
            run_exhaustive(rec, c, fuel)
        starts, advances = rec.starts, rec.advances
        start = seconds(lambda: [checked_start(sem, c) for c in starts], RUNG_RUNS)
        advance = seconds(lambda: [checked_advance(sem, a, r) for a, r in advances],
                          RUNG_RUNS)
        print(f"oracle queries  {name:<15} ns per query, fastest (median) of {RUNG_RUNS}:"
              f" checked_start {ns(start, len(starts))} x {len(starts)},"
              f" checked_advance {ns(advance, len(advances))} x {len(advances)}")


def ladder_rung(n: int) -> None:
    """Print the microseconds per transition of ``run_first``,
    ``eval_trace`` and ``eval_total`` on ``succ^n 0``, the fastest of five
    runs and the median; at n = 60 and 300 also the milliseconds that
    ``value_doc`` takes to render the trace."""
    sem, e, steps = lambda_semantics(), spine(n), 2 * n + 1
    out = run_first(sem, e, steps)
    assert isinstance(out, Converged) and out.steps == steps, out
    trace = eval_trace(sem, e, steps)
    assert isinstance(trace, FinTrace) and len(trace.steps) == n + 1, trace
    assert eval_total(sem, e, steps) == Ok(Nat(n))
    per, cols = 1e6 / steps, []
    for f in (run_first, eval_trace, eval_total):
        t = seconds(lambda: f(sem, e, steps), RUNG_RUNS)
        cols.append(f"{f.__name__} {min(t) * per:.2f} ({statistics.median(t) * per:.2f})")
    print(f"per step        {f'succ^{n} 0':<15} {', '.join(cols)} us,"
          f" fastest (median) of {RUNG_RUNS}")
    if n in (60, 300):
        secs = median_seconds(lambda: value_doc(sem, trace))
        print(f"value_doc trace {f'succ^{n} 0':<15} {secs * 1e3:8.3f} ms")


def main() -> None:
    for n in (60, 300, 3_000, 10_000):
        ladder_rung(n)
    sem = lambda_semantics()
    e = nested_choice(9)
    outs = run_exhaustive(sem, e, 100)
    assert {o.result for o in outs} == {Nat(k) for k in range(10)}, outs
    assert not any(isinstance(o, OutOfFuel) for o in outs)
    secs = median_seconds(lambda: run_exhaustive(sem, e, 100))
    print(f"run_exhaustive  {'e_9':<15} {secs:8.3f} s")
    fj = fj_semantics(INTEROP_TABLE)
    corpora = (("FJ depth 3", fj, 150,
                [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)]),
               ("lambda depth 3", sem, 120, enumerate_terms(3)))
    for name, lang, fuel, configs in corpora:
        secs = median_seconds(lambda: [run_exhaustive(lang, c, fuel) for c in configs])
        print(f"run_exhaustive  {name:<15} {secs / len(configs) * 1e6:8.2f} us/run,"
              f" {len(configs)} runs")
    runs = multi_end_runs((sem, wrong_oracle(sem), trace_oracle(sem)), enumerate_terms(3), 120)
    ends = sum(map(len, runs))
    secs = median_seconds(lambda: merge(runs))
    print(f"merge keys      {'lambda depth 3':<15} {secs * 1e3:8.1f} ms,"
          f" {ends} ends of {len(runs)} runs")
    del runs
    corpus, pred = typed_corpus(3), lambda_type_predicate()
    for name, audit in (("must", soundness_must_audit), ("may", soundness_may_audit)):
        report = audit(sem, pred, corpus, 100)
        assert report.passed and not report.inconclusive, report
        secs = median_seconds(lambda: audit(sem, pred, corpus, 100))
        left = len(audit(sem, pred, corpus, 5).inconclusive)
        print(f"{name + ' audit':<15} {'typed depth 3':<15} {secs:8.3f} s,"
              f" {len(corpus)} members, {left} inconclusive at fuel 5")
    assert not build(sem, corpus, 100 * len(corpus)).spent
    secs = median_seconds(lambda: build(sem, corpus, 100 * len(corpus)))
    print(f"{'results.build':<15} {'typed depth 3':<15} {secs:8.3f} s,"
          f" {len(corpus)} roots at fuel 100 a member, pooled")
    audit_members()
    oracle_queries()
    for n in (50, 100, 200, 300):
        fixpoint_rung(n)
    gis = maxelem_gis()
    tracemalloc.start()
    universe = reachable_universe(gis.combined(), {maxelem_goal(300)}, 90_000)
    interp_corules(gis, universe)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"universe        {'(0:..:299)*=299':<15} peak {peak / 1e6:.1f} MB"
          f" for the closure and interp_corules, {retained / 1e6:.1f} MB retained"
          f" by the universe")
    goal = MaxElem(periodic((), (10**6,)), 10**6)
    secs = median_seconds(lambda: overflow(gis.combined(), goal, 1000))
    print(f"universe to cap {'(10^6)*=10^6':<15} {secs:8.3f} s")


if __name__ == "__main__":
    main()
