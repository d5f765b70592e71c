"""SHA-256 digests of the stepper's and the evaluators' outcomes.

Two source trees that print the same digests give byte-identical
``repr``s of every outcome computed here, so a change meant to keep the
engine's behaviour can be checked with one command on each side:

    PYTHONPATH=src python3 tools/outcome_digest.py

The corpus is every closed lambda term of depth <= 3 (6,343 terms) plus
``OMEGA``.  Under each of the three premise orders the script digests
``run_exhaustive`` and ``run_first`` (fuel 120) on the whole corpus, and
``evaluate`` in all four modes, exhaustive, on every seventh term.  It
also digests ``run_exhaustive`` on the object calculi: every FJ term of
depth <= 3 over ``INTEROP_TABLE`` in the empty environment (3,118 terms,
fuel 150) and every imperative-FJ term of depth <= 3 over ``IMP_TABLE``
in the empty memory (225 terms, fuel 200).  ``all`` combines these
engine digests.

Apart from them, ``docs`` digests the exit code and stdout of
``bsm eval`` (``cli.main``, in process, fuel 120) in all five modes, each
with and without ``--exhaustive``, on every seventh closed lambda term
plus ``OMEGA`` (9,080 runs).  It changes whenever the documents do, so
a change to the command line alone can be checked against its parent;
``doc_runs`` yields the runs one by one, to find the ones that differ.

``tags``, also kept out of ``all``, digests the JSON text of
``serialize.tree_doc`` of every outcome tree: of ``run_exhaustive``
under the wrong, divergence and trace extensions of each premise order
on every seventh closed lambda term plus ``OMEGA`` (fuel 120), and of
``run_exhaustive`` on the FJ and imperative-FJ corpora above.  Unlike
the ``repr``s it covers rule labels, partial activations and the
extensions' rendering of results.

``fixpoints``, also kept out of ``all``, digests the four fixpoint
functions of ``inference`` (``interp_inductive`` and
``interp_coinductive`` of the rules, ``interp_corules``, and
``bounded_coinduction_check``).  Their inputs are the maxElem goals of
the benchmark's fixpoint ladder, built here as the workload builds them
(periods 6 to 20, four seeded periodic and four finite lists each,
claimed maxima m-1, m and m+1), and 60 seeded random systems of 10 to
60 judgments with rules, corules and a random claim, whose premises may
lie outside the universe.  Each set result is digested as the sorted
``repr``s of its members.

``objdocs``, also kept out of ``all`` and ``docs`` so that both stay
comparable with earlier trees, digests ``bsm eval`` as ``docs`` does, on
the object calculi: ``--lang fj`` on every seventh FJ term of depth <= 3
over ``INTEROP_TABLE`` (fuel 150) and ``--lang impfj`` on every
imperative-FJ term of depth <= 3 over ``IMP_TABLE`` (fuel 200), 6,710
runs.  Each input is printed with ``show_fj``, and the script asserts
that it parses back to its term.  ``objdoc_runs`` yields the runs one by
one.

``steps``, also kept out of ``all``, digests the ``repr`` of
``step(sem, t)`` for every tree ``t`` of ``run_history`` (fuel 120) on
every seventh closed lambda term of depth <= 3 plus ``OMEGA``, under
each premise order.  Two source trees that print the same ``steps``
digest step every tree of those histories to the same successors,
including each diverging run's last tree, whose active path repeats a
configuration.

``values``, also kept out of ``all``, digests the value sets of
exhaustive ``eval_div`` and ``eval_total``, each as the sorted ``repr``s
of its members: on every closed lambda term of depth <= 3 plus
``OMEGA`` under each premise order (fuel 120), and on the FJ and
imperative-FJ corpora above.  Those values are read off a result table
rather than the stepper, so this digest shows that both give the same
sets there.

``certs``, also kept out of ``all``, digests the verdicts of
``divergence_certificate_check`` at fuel 20 on every ``Diverges``
certificate of ``run_exhaustive`` over three sets of configurations,
and on eight mutations of each (its first or last entry dropped, rotated
by one, reversed, doubled, and its first entry's premise index moved by
one either way or its rule family swapped).  The sets are ``OMEGA``,
``M M`` with ``M = \\x. 0 (+) succ (x x)`` and the first 400 of every
fifteenth closed lambda term ``t`` of depth <= 3, each as ``t OMEGA``
and as ``W W`` with ``W = \\x. t (x x)``, under each premise order
(fuel 120); the FJ corpus above, where no term diverges; and every
imperative-FJ term of depth <= 3 over ``IMP_LOOP_TABLE`` in the empty
memory (fuel 200).  That is 17,334 checks; ``cert_runs`` yields them
one by one, mutation 0 being the certificate itself.

``audits``, also kept out of ``all``, digests the soundness auditors of
``predicates``: the ``report_doc`` JSON and the ``repr`` of
``soundness_must_audit`` and ``soundness_may_audit`` on the typed lambda
corpus of depth <= 3 under each premise order (fuel 200), on the typed
FJ corpus over ``INTEROP_TABLE`` and the typed imperative-FJ corpus over
``IMP_TABLE`` (fuel 300) and on the ``dropped-succ`` and ``fool``
fixtures of ``bsm soundness`` (fuel 50), and, so that diverging and
timed-out members are covered too, on ``OMEGA`` and ``0 (+) OMEGA`` at
fuel 3, 5 and 50 and on ``M M`` at fuel 120, whose results flow back
through a cycle so that its table never closes; and the ``repr`` of
``audit_progress`` and ``audit_preservation`` on every seventh member of
each of those corpora.  A corpus audit reads one result table seeded
with every member, so its ``fuel`` is oracle queries per member, pooled
over the corpus; a single-configuration audit reads that
configuration's table.

The order of exhaustive outcomes can follow set iteration order, so the
script re-executes itself under ``PYTHONHASHSEED=0``.
"""
import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stdout

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

from bigstep import cli  # noqa: E402
from bigstep import extensions as ext  # noqa: E402
from bigstep.fj import (  # noqa: E402
    EMPTY_MEMORY, IMP_LOOP_TABLE, IMP_TABLE, INTEROP_TABLE, EnvConfig, MemConfig,
    enumerate_fj, enumerate_impfj, fj_indexed_predicate, fj_semantics,
    fj_typed_corpus, impfj_indexed_predicate, impfj_semantics,
    impfj_typed_corpus, parse_fj_expr, show_fj)
from bigstep.inference import (  # noqa: E402
    FiniteRule, GeneralizedIS, bounded_coinduction_check, interp_coinductive,
    interp_corules, interp_inductive, reachable_universe, system_from_rules)
from bigstep.lam import (  # noqa: E402
    OMEGA, enumerate_terms, fool_predicate, lambda_semantics,
    lambda_type_predicate, parse_expr, show_expr, typed_corpus)
from bigstep.lam.corpus import FOOL_TERM, SELF_APPLY  # noqa: E402
from bigstep.lam.semantics import STRATEGIES  # noqa: E402
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var  # noqa: E402
from bigstep.maxelem import MaxElem, maxelem_gis  # noqa: E402
from bigstep.pet import (  # noqa: E402
    Diverges, DivergenceCertificate, OutOfFuel, run_exhaustive, run_first,
    run_history, step)
from bigstep.predicates import (  # noqa: E402
    audit_preservation, audit_progress, soundness_may_audit, soundness_must_audit)
from bigstep.rational import RationalList  # noqa: E402
from bigstep.serialize import report_doc, tree_doc  # noqa: E402
from bigstep.util import EMPTY_MAP  # noqa: E402

FUEL = 120
FJ_FUEL = 150
IMPFJ_FUEL = 200
CERT_FUEL = 20
AUDIT_FUEL = 200
OBJ_AUDIT_FUEL = 300
FIXTURE_FUEL = 50
MODES = ("wrong", "div", "trace", "total")


def digest(reprs) -> str:
    h = hashlib.sha256()
    for r in reprs:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()


def _eval_runs(options, texts):
    """(argv, exit code and stdout) of ``bsm eval`` with ``options`` in
    every mode, with and without ``--exhaustive``, on each input text."""
    for text in texts:
        for mode in ("plain",) + MODES:
            for flags in ((), ("--exhaustive",)):
                argv = ["eval", *options, "--mode", mode, *flags, text]
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(argv)
                yield argv, f"{code}\n{out.getvalue()}"


def doc_runs():
    """(argv, exit code and stdout) of each ``bsm eval`` run in ``docs``."""
    terms = enumerate_terms(3)[::7] + (OMEGA,)
    return _eval_runs(["--fuel", str(FUEL)], map(show_expr, terms))


def objdoc_runs():
    """(argv, exit code and stdout) of each ``bsm eval`` run in ``objdocs``."""
    for lang, table, fuel, exprs in (
            ("fj", "interop", FJ_FUEL, enumerate_fj(INTEROP_TABLE, 3)[::7]),
            ("impfj", "imp", IMPFJ_FUEL, enumerate_impfj(IMP_TABLE, 3))):
        texts = [show_fj(e) for e in exprs]
        for e, text in zip(exprs, texts):
            assert parse_fj_expr(text) == e, text
        yield from _eval_runs(
            ["--lang", lang, "--table", table, "--fuel", str(fuel)], texts)


def object_corpora():
    """lang -> (base oracle, fuel, configurations) of the object calculi."""
    return {
        "fj": (fj_semantics(INTEROP_TABLE), FJ_FUEL,
               [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)]),
        "impfj": (impfj_semantics(IMP_TABLE), IMPFJ_FUEL,
                  [MemConfig(EMPTY_MEMORY, e)
                   for e in enumerate_impfj(IMP_TABLE, 3)]),
    }


def tag_docs():
    """JSON text of ``tree_doc`` of each outcome tree in ``tags``."""
    terms = enumerate_terms(3)[::7] + (OMEGA,)
    runs = []
    for strategy in STRATEGIES:
        base = lambda_semantics(strategy)
        for sem in (ext.wrong_oracle(base), ext.div_oracle(base),
                    ext.trace_oracle(base)):
            runs.append((sem, FUEL, terms))
    runs.extend(object_corpora().values())
    for sem, fuel, configs in runs:
        for c in configs:
            for o in run_exhaustive(sem, c, fuel):
                tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
                yield json.dumps(tree_doc(sem, tree))


def step_reprs():
    """``repr`` of ``step`` of each history tree in ``steps``."""
    terms = enumerate_terms(3)[::7] + (OMEGA,)
    for strategy in STRATEGIES:
        sem = lambda_semantics(strategy)
        for e in terms:
            history, _ = run_history(sem, e, FUEL)
            for t in history:
                yield repr(step(sem, t))


def value_reprs():
    """Sorted ``repr``s of each exhaustive value set in ``values``."""
    runs = [(lambda_semantics(strategy), FUEL, enumerate_terms(3) + (OMEGA,))
            for strategy in STRATEGIES]
    runs.extend(object_corpora().values())
    for sem, fuel, configs in runs:
        for c in configs:
            for evaluator in (ext.eval_div, ext.eval_total):
                yield repr(sorted(map(repr, evaluator(sem, c, fuel, exhaustive=True))))


def _mutations(witness):
    """The eight mutations of ``witness`` that ``certs`` checks."""
    (c, f, i), rest = witness[0], witness[1:]
    other = next((g for _, g, _ in witness if g != f), "no-such-rule")
    return (rest, witness[:-1], rest + witness[:1], witness[::-1], witness + witness,
            ((c, f, i + 1),) + rest, ((c, f, i - 1),) + rest, ((c, other, i),) + rest)


def cert_runs():
    """(label, verdict) of each certificate check in ``certs``."""
    m = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")
    terms = enumerate_terms(3)[::15][:400]
    loops = [Abs("x", SELF_APPLY, App(t, App(Var("x"), Var("x")))) for t in terms]
    lam = ([OMEGA, App(m, m)] + [App(t, OMEGA) for t in terms]
           + [App(w, w) for w in loops])
    runs = [(strategy, lambda_semantics(strategy), FUEL, lam)
            for strategy in STRATEGIES]
    fj_sem, fj_fuel, fj_configs = object_corpora()["fj"]
    runs.append(("fj", fj_sem, fj_fuel, fj_configs))
    runs.append(("impfj", impfj_semantics(IMP_LOOP_TABLE), IMPFJ_FUEL,
                 [MemConfig(EMPTY_MEMORY, e)
                  for e in enumerate_impfj(IMP_LOOP_TABLE, 3)]))
    for name, sem, fuel, configs in runs:
        for n, c in enumerate(configs):
            diverging = [o for o in run_exhaustive(sem, c, fuel)
                         if isinstance(o, Diverges)]
            for k, o in enumerate(diverging):
                cert = o.certificate
                witnesses = (cert.witness,) + _mutations(cert.witness)
                for j, w in enumerate(witnesses):
                    check = ext.divergence_certificate_check(
                        sem, DivergenceCertificate(w, cert.entry), CERT_FUEL)
                    yield f"{name} config {n} certificate {k} mutation {j}", check.passed


def audit_reprs():
    """Report JSON and ``repr`` of each corpus audit, and ``repr`` of each
    single-configuration audit, in ``audits``."""
    typed, corpus = lambda_type_predicate(), typed_corpus(3)
    runs = [(lambda_semantics(strategy), typed, corpus, AUDIT_FUEL, show_expr)
            for strategy in STRATEGIES]
    runs += [
        (fj_semantics(INTEROP_TABLE), fj_indexed_predicate(INTEROP_TABLE),
         fj_typed_corpus(INTEROP_TABLE, 3), OBJ_AUDIT_FUEL, show_fj),
        (impfj_semantics(IMP_TABLE), impfj_indexed_predicate(IMP_TABLE),
         impfj_typed_corpus(IMP_TABLE, 3), OBJ_AUDIT_FUEL, show_fj),
        (lambda_semantics(drop_succ=True), typed, [Succ(Nat(2))], FIXTURE_FUEL, show_expr),
        (lambda_semantics(), fool_predicate(), [FOOL_TERM], FIXTURE_FUEL, show_expr),
    ]
    runs += [(lambda_semantics(), typed, [OMEGA, Choice(Nat(0), OMEGA)], fuel, show_expr)
             for fuel in (3, 5, FIXTURE_FUEL)]
    m = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")
    runs.append((lambda_semantics(), typed, [App(m, m)], FUEL, show_expr))
    for sem, pred, corpus, fuel, show in runs:
        for audit in (soundness_must_audit, soundness_may_audit):
            report = audit(sem, pred, corpus, fuel)
            yield json.dumps(report_doc(report, show=show))
            yield repr(report)
        for c in corpus[::7]:
            for audit in (audit_progress, audit_preservation):
                yield repr(audit(sem, pred, c, fuel))


def maxelem_cases(rng):
    """(goal, claimed set) of each maxElem item of the fixpoint ladder."""
    for p in range(6, 21, 2):
        m = p - 1
        for _ in range(4):
            rest = list(range(m - 1))
            rng.shuffle(rest)
            period = (m, m - 1, *rest)
            head = rng.choice([x for x in range(m - 1) if x != period[-1]])
            rest = list(range(m))
            rng.shuffle(rest)
            for prefix, period in (((head,), period), ((m, *rest), ())):
                # every suffix, built from the parts of the word
                suffixes = ([RationalList(prefix[i:], period)
                             for i in range(len(prefix))]
                            + [RationalList(period[i:], period)
                               for i in range(len(period))])
                for v in (m - 1, m, m + 1):
                    yield MaxElem(RationalList(prefix, period), v), frozenset(
                        MaxElem(s, v) for s in suffixes)


def random_case(rng):
    """(rules and corules, universe, claim) over the judgments 0 .. n-1."""
    n = rng.randint(10, 60)

    def system(rules, premises):
        return system_from_rules(
            FiniteRule(rng.sample(range(n + 3), rng.randint(0, premises)),
                       rng.randrange(n + 3))
            for _ in range(rules))

    universe = frozenset(range(n))
    claim = frozenset(rng.sample(range(n), rng.randint(0, n)))
    return GeneralizedIS(system(2 * n, 3), system(n // 2, 1)), universe, claim


def fixpoint_results():
    """Sorted ``repr``s of each fixpoint function's result in ``fixpoints``."""
    rng = random.Random(1)
    gis = maxelem_gis()
    cases = [(gis, reachable_universe(gis.combined(), {goal} | claim, 100_000),
              claim) for goal, claim in maxelem_cases(rng)]
    cases += [random_case(rng) for _ in range(60)]
    for gis, universe, claim in cases:
        for result in (interp_inductive(gis.rules, universe),
                       interp_coinductive(gis.rules, universe),
                       interp_corules(gis, universe)):
            yield repr(sorted(map(repr, result)))
        yield repr(bounded_coinduction_check(gis, claim, universe))


def main() -> None:
    print(f"bigstep from {os.path.dirname(ext.__file__)}", file=sys.stderr)
    terms = enumerate_terms(3) + (OMEGA,)
    every = hashlib.sha256()
    for strategy in STRATEGIES:
        sem = lambda_semantics(strategy)
        parts = {
            "run_exhaustive": (repr(run_exhaustive(sem, e, FUEL)) for e in terms),
            "run_first": (repr(run_first(sem, e, FUEL)) for e in terms),
            "evaluate": (repr(ext.evaluate(sem, e, FUEL, mode, exhaustive=True))
                         for e in terms[::7] for mode in MODES),
        }
        for name, reprs in parts.items():
            d = digest(reprs)
            every.update(d.encode())
            print(f"{name:15} {strategy:9} {d}")
    for lang, (sem, fuel, configs) in object_corpora().items():
        d = digest(repr(run_exhaustive(sem, c, fuel)) for c in configs)
        every.update(d.encode())
        print(f"{'run_exhaustive':15} {lang:9} {d}")
    print(f"{'all':25} {every.hexdigest()}")
    d = digest(f"{argv}\n{text}" for argv, text in doc_runs())
    print(f"{'docs':25} {d}")
    print(f"{'tags':25} {digest(tag_docs())}")
    print(f"{'fixpoints':25} {digest(fixpoint_results())}")
    d = digest(f"{argv}\n{text}" for argv, text in objdoc_runs())
    print(f"{'objdocs':25} {d}")
    print(f"{'steps':25} {digest(step_reprs())}")
    print(f"{'values':25} {digest(value_reprs())}")
    d = digest(f"{label} {passed}" for label, passed in cert_runs())
    print(f"{'certs':25} {d}")
    print(f"{'audits':25} {digest(audit_reprs())}")


if __name__ == "__main__":
    main()
