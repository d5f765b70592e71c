"""The four workloads: inputs from a seed, the work per item, the checks.

Each workload builds a fixed list of items from the seed (``build``),
computes a reference answer per item without the stepper, the
extensions, the auditors or the fixpoints under test (``reference``),
runs the engine on one item (``run``) and compares (``check``).  Only
``run`` is timed.
"""
from __future__ import annotations

import json
from time import perf_counter

from bigstep.extensions import INFINITY, FinTrace, InfTrace, Ok, trace_forget
from bigstep.fj import (
    EMPTY_MEMORY,
    IMP_TABLE,
    INTEROP_TABLE,
    EnvConfig,
    MemConfig,
    direct_eval_fj,
    direct_eval_imp,
    enumerate_fj,
    enumerate_impfj,
    fj_typed_corpus,
    impfj_typed_corpus,
)
from bigstep.lam import OMEGA, enumerate_terms, show_expr, typed_corpus
from bigstep.lam.corpus import FOOL_TERM
from bigstep.lam.semantics import direct_results
from bigstep.lam.syntax import Choice, Nat, Succ
from bigstep.maxelem import MaxElem
from bigstep.pet import Converged, Diverges, OutOfFuel, Stuck
from bigstep.rational import RationalList
from bigstep.util import EMPTY_MAP


# --- deep: one long first-successor computation per item -------------------

# (\x:nat. x)^n 0 takes 6n+1 transitions against 2n+1 for succ^n 0, so its
# ladder stops lower.  The 400 rung of every shape is past Python's
# recursion limit for the engine today; it stays in so that it shows.
DEEP_LADDERS = {
    "succ": (20, 40, 60, 400),
    "ident": (10, 20, 30, 400),
    "omega": (20, 40, 60, 400),
}
DEEP_STEPS = {"succ": lambda n: 2 * n + 1, "ident": lambda n: 6 * n + 1}
OMEGA_TEXT = show_expr(OMEGA)


def deep_text(shape: str, n: int) -> str:
    if shape == "succ":
        return "succ (" * n + "0" + ")" * n
    if shape == "ident":
        return "(\\x:nat. x) (" * n + "0" + ")" * n
    return "succ (" * n + f"({OMEGA_TEXT})" + ")" * n


class Deep:
    name = "deep"

    def build(self, rng):
        items = [(shape, n, deep_text(shape, n))
                 for shape, ladder in DEEP_LADDERS.items() for n in ladder]
        rng.shuffle(items)
        return items

    def reference(self, item):
        shape, n, _ = item
        if shape == "omega":
            return {"kind": "infinity", "prefix": n, "period": 3}
        value = n if shape == "succ" else 0
        trace = n + 1 if shape == "succ" else 3 * n + 1
        return {"kind": "ok", "value": value, "steps": DEEP_STEPS[shape](n),
                "trace": trace}

    @staticmethod
    def fuel(n: int) -> int:
        return 8 * n + 50

    def run(self, eng, item):
        _, n, text = item
        fuel = self.fuel(n)
        e = eng.parse_lambda(text)
        t0 = perf_counter()
        first = eng.run_first(eng.lam, e, fuel)
        first_s = perf_counter() - t0
        trace = eng.eval_trace(eng.lam, e, fuel)
        total = eng.eval_total(eng.lam, e, fuel)
        cert = None
        if isinstance(first, Diverges):
            cert = eng.cert_check(eng.lam, first.certificate, fuel)
        out = eng.serialize_eval(eng.lam, first, trace, total)
        return first, trace, total, cert, out, first_s

    def check(self, item, ref, out) -> bool:
        first, trace, total, cert, text, _ = out
        docs = [json.loads(line) for line in text.splitlines()]
        if [d["kind"] for d in docs] != [ref["kind"]] * 3:
            return False
        if ref["kind"] == "infinity":
            return (isinstance(first, Diverges) and cert is not None and cert.passed
                    and isinstance(trace, InfTrace)
                    and len(trace.prefix) == ref["prefix"]
                    and len(trace.period) == ref["period"]
                    and total is INFINITY
                    and len(docs[2]["certificate"]) == len(first.certificate.witness))
        value = Nat(ref["value"])
        return (isinstance(first, Converged) and first.result == value
                and first.steps == ref["steps"]
                and isinstance(trace, FinTrace) and trace.result == value
                and len(trace.steps) == ref["trace"]
                and total == Ok(value)
                and docs[0]["result"] == str(ref["value"])
                and len(docs[1]["trace"]["prefix"]) == ref["trace"])

    def steps(self, item):
        """Transitions of the item's converging first-successor run, if any."""
        shape, n, _ = item
        return DEEP_STEPS[shape](n) if shape in DEEP_STEPS else None


# --- sweep: every closed depth-3 term, all five exhaustive evaluations ------

SWEEP_TERM_FUEL = 120
SWEEP_CHOICE_FUEL = 400
SWEEP_CHOICE_TOP = 6


def nested_choice(k: int):
    """``e_k = e_{k-1} (+) succ e_{k-1}``; subterms are shared, not copied."""
    e = Nat(0)
    for _ in range(k):
        e = Choice(e, Succ(e))
    return e


def _ok_projection(values):
    return frozenset(v.value for v in values if isinstance(v, Ok))


class Sweep:
    name = "sweep"

    def build(self, rng):
        items = [("term", e, SWEEP_TERM_FUEL) for e in enumerate_terms(3)]
        items += [("choice", nested_choice(k), SWEEP_CHOICE_FUEL)
                  for k in range(1, SWEEP_CHOICE_TOP + 1)]
        rng.shuffle(items)
        return items

    def reference(self, item):
        return direct_results(item[1])

    def run(self, eng, item):
        _, e, fuel = item
        outs = eng.run_exhaustive(eng.lam, e, fuel)
        return (outs,
                eng.eval_wrong(eng.lam, e, fuel, exhaustive=True),
                eng.eval_div(eng.lam, e, fuel, exhaustive=True),
                eng.eval_trace(eng.lam, e, fuel, exhaustive=True),
                eng.eval_total(eng.lam, e, fuel, exhaustive=True))

    def check(self, item, ref, out) -> bool:
        outs, wrongs, divs, traces, totals = out
        if any(isinstance(o, OutOfFuel) for o in outs):
            return False
        base = frozenset(o.result for o in outs if isinstance(o, Converged))
        forgot = frozenset(trace_forget(t) for t in traces
                           if isinstance(t, (FinTrace, InfTrace)))
        return all(p == ref for p in (base, _ok_projection(wrongs),
                                      _ok_projection(divs), _ok_projection(forgot),
                                      _ok_projection(totals)))

    def steps(self, item):
        return None


# --- audit: soundness audits and object-calculus differential checks -------

AUDIT_LAMBDA_FUEL = 200
AUDIT_FJ_FUEL = 300
FJ_DIFF_FUEL = 150
IMP_DIFF_FUEL = 200
IMP_SAMPLE = 2000

# exact violations of the two unsound fixtures, as ``bsm soundness`` prints them
FIXTURE_VIOLATIONS = {
    "dropped-succ": [{"condition": "exists-progress", "config": "succ 2",
                      "rule": None, "premise": None}],
    "fool": [{"condition": "forall-progress", "config": "0 0",
              "rule": "app", "premise": 1}],
}


class Audit:
    name = "audit"

    def build(self, rng):
        corpora = {"lam": typed_corpus(3),
                   "fj": fj_typed_corpus(INTEROP_TABLE, 3),
                   "impfj": impfj_typed_corpus(IMP_TABLE, 3)}
        items = [(flavor, lang, c) for flavor in ("must", "may")
                 for lang, corpus in corpora.items() for c in corpus]
        items += [("fixture", name, None) for name in FIXTURE_VIOLATIONS]
        items += [("fj-diff", "fj", e) for e in enumerate_fj(INTEROP_TABLE, 3)]
        items += [("imp-diff", "impfj", e)
                  for e in rng.sample(enumerate_impfj(IMP_TABLE, 4), IMP_SAMPLE)]
        rng.shuffle(items)
        return items

    def reference(self, item):
        kind, lang, x = item
        if kind in ("must", "may"):
            return "passed"
        if kind == "fixture":
            return FIXTURE_VIOLATIONS[lang]
        if kind == "fj-diff":
            return direct_eval_fj(INTEROP_TABLE, EMPTY_MAP, x, fuel=2000)
        return direct_eval_imp(IMP_TABLE, EMPTY_MEMORY, x, fuel=4000)

    def _audited(self, eng, lang):
        if lang == "lam":
            return eng.lam, eng.lam_pred, AUDIT_LAMBDA_FUEL
        if lang == "fj":
            return eng.fj, eng.fj_pred, AUDIT_FJ_FUEL
        return eng.impfj, eng.imp_pred, AUDIT_FJ_FUEL

    def run(self, eng, item):
        kind, lang, x = item
        if kind in ("must", "may"):
            sem, pred, fuel = self._audited(eng, lang)
            audit = eng.must_audit if kind == "must" else eng.may_audit
            return audit(sem, pred, [x], fuel)
        if kind == "fixture":
            if lang == "dropped-succ":
                report = eng.must_audit(eng.lam_dropped, eng.lam_pred,
                                        [Succ(Nat(2))], AUDIT_LAMBDA_FUEL)
            else:
                report = eng.must_audit(eng.lam, eng.fool_pred, [FOOL_TERM],
                                        AUDIT_LAMBDA_FUEL)
            return eng.serialize_report(report)
        if kind == "fj-diff":
            return eng.run_exhaustive(eng.fj, EnvConfig(EMPTY_MAP, x), FJ_DIFF_FUEL)
        return eng.run_exhaustive(eng.impfj, MemConfig(EMPTY_MEMORY, x), IMP_DIFF_FUEL)

    def check(self, item, ref, out) -> bool:
        kind = item[0]
        if kind in ("must", "may"):
            return out.passed and not out.inconclusive
        if kind == "fixture":
            return json.loads(out)["violations"] == ref
        # the object calculi are deterministic: exactly one outcome
        if len(out) != 1:
            return False
        o = out[0]
        if ref[0] == "ok":
            return isinstance(o, Converged) and o.result == ref[1]
        if ref[0] == "stuck":
            return isinstance(o, Stuck)
        return not isinstance(o, (Converged, Stuck))

    def steps(self, item):
        return None


# --- fixpoint: maxElem goals under rules, coinduction and corules -----------

FIXPOINT_PERIODS = (6, 8, 10, 12, 14, 16, 18, 20)
FIXPOINT_LISTS = 4  # per period and per kind
FIXPOINT_CAP = 100_000


def _suffixes(lst: RationalList):
    """Every suffix of an eventually periodic list, built from its parts."""
    prefix, period = lst.prefix, lst.period
    out = [RationalList(prefix[i:], period) for i in range(len(prefix))]
    out += [RationalList(period[i:], period) for i in range(len(period))]
    return out


class Fixpoint:
    name = "fixpoint"

    def build(self, rng):
        items = []
        for p in FIXPOINT_PERIODS:
            m = p - 1
            for _ in range(FIXPOINT_LISTS):
                # the maximum leads and m-1 follows it, so that the size of
                # every universe depends on p alone; the rest is seeded
                rest = list(range(m - 1))
                rng.shuffle(rest)
                period = (m, m - 1, *rest)
                head = rng.choice([x for x in range(m - 1) if x != period[-1]])
                periodic = RationalList((head,), period)
                rest = list(range(m))
                rng.shuffle(rest)
                finite = RationalList((m, *rest))
                for lst in (periodic, finite):
                    for v in (m - 1, m, m + 1):
                        goal = MaxElem(lst, v)
                        # for the bounded coinduction check: v is the maximum
                        # of every suffix
                        claim = (frozenset(MaxElem(s, v) for s in _suffixes(lst))
                                 if lst.period else None)
                        items.append((goal, claim, m))
        rng.shuffle(items)
        return items

    def reference(self, item):
        goal, _, m = item
        v, periodic = goal.value, bool(goal.lst.period)
        return {"corules": v == m,
                "coinductive": v >= m if periodic else v == m,
                "inductive": not periodic and v == m,
                "bounded": (v == m) if periodic else None}

    def run(self, eng, item):
        goal, claim, _ = item
        goals = {goal} | (claim or frozenset())
        universe = eng.universe(eng.gis.combined(), goals, FIXPOINT_CAP)
        out = {"corules": goal in eng.interp_corules(eng.gis, universe),
               "coinductive": goal in eng.interp_coinductive(eng.gis.rules, universe),
               "inductive": goal in eng.interp_inductive(eng.gis.rules, universe),
               "bounded": None}
        if claim is not None:
            out["bounded"] = eng.bounded_check(eng.gis, claim, universe).passed
        return out

    def check(self, item, ref, out) -> bool:
        return out == ref

    def steps(self, item):
        return None


WORKLOADS = {w.name: w for w in (Deep(), Sweep(), Audit(), Fixpoint())}
