"""Soundness auditors: preservation, progress, must/may, and their laws."""
from collections import Counter

import pytest

from bigstep import cli, pet, predicates, results
from bigstep.extensions import INFINITY, TIMEOUT, WRONG, Ok, eval_div, eval_total
from bigstep.fj import (IMP_TABLE, INTEROP_TABLE, fj_indexed_predicate, fj_semantics,
                        fj_typed_corpus, impfj_indexed_predicate, impfj_semantics,
                        impfj_typed_corpus)
from bigstep.lam import (
    OMEGA,
    fool_predicate,
    lambda_semantics,
    lambda_type_predicate,
    parse_expr,
    typed_corpus,
)
from bigstep.lam.corpus import FOOL_TERM
from bigstep.lam.semantics import STRATEGIES
from bigstep.lam.syntax import App, Choice, Nat, Succ
from bigstep.oracle import Activation, Axiom, Finished, FirstPremise, LanguageSemantics
from bigstep.pet import Converged, Diverges, OutOfFuel, PartialEvalTree, run_exhaustive
from bigstep.predicates import (
    AuditOutcome,
    AuditReport,
    Condition,
    IndexedPredicate,
    Violation,
    audit_preservation,
    audit_progress,
    check_progress_implies_may,
    soundness_may_audit,
    soundness_must_audit,
)

SEM = lambda_semantics()
PRED = lambda_type_predicate()


def test_preservation_goldens():
    assert audit_preservation(SEM, PRED, parse_expr("(\\x:nat. succ x) 2"), 50).passed
    assert audit_preservation(SEM, PRED, parse_expr("succ 0"), 50).passed
    # no converged outcome: vacuous pass
    assert audit_preservation(SEM, PRED, OMEGA, 60).passed


def test_progress_pass_on_welltyped():
    for src in ("(\\x:nat. succ x) 2", "1 (+) 2", "succ (succ 0)"):
        assert audit_progress(SEM, PRED, parse_expr(src), 60).passed


def test_progress_exists_violation_when_succ_dropped():
    dropped = lambda_semantics(drop_succ=True)
    out = audit_progress(dropped, PRED, Succ(Nat(2)), 50)
    assert not out.passed
    assert out.violation.condition is Condition.EXISTS_PROGRESS
    assert out.violation.config == Succ(Nat(2))


def test_progress_forall_violation_with_fool_rule():
    fool = fool_predicate()
    out = audit_progress(SEM, fool, FOOL_TERM, 50)
    assert not out.passed
    v = out.violation
    assert v.condition is Condition.FORALL_PROGRESS
    assert v.rule_family == "app" and v.premise_index == 1
    assert v.detail == Nat(0)


def test_must_audit_clean_on_simply_typed_corpus():
    report = soundness_must_audit(SEM, PRED, typed_corpus(3), 200)
    assert report.passed
    assert not report.inconclusive
    assert report.stats["configs"] > 900


def test_must_audit_flags_dropped_succ():
    dropped = lambda_semantics(drop_succ=True)
    report = soundness_must_audit(dropped, PRED, [Succ(Nat(2))], 50)
    assert [v.condition for v in report.violations] == [Condition.EXISTS_PROGRESS]


def test_must_audit_flags_fool_rule():
    report = soundness_must_audit(SEM, fool_predicate(), [FOOL_TERM], 50)
    conditions = [v.condition for v in report.violations]
    assert conditions == [Condition.FORALL_PROGRESS]
    assert report.violations[0].premise_index == 1


def test_must_audit_rejects_untyped_corpus_member():
    with pytest.raises(ValueError):
        soundness_must_audit(SEM, PRED, [parse_expr("0 0")], 20)


def test_may_audit_goldens():
    # a branch that diverges and one that converges: may passes
    report = soundness_may_audit(SEM, PRED, [Choice(OMEGA, Nat(0))], 100)
    assert report.passed
    report = soundness_may_audit(SEM, PRED, [OMEGA], 100)
    assert report.passed  # certified divergence counts
    report = soundness_may_audit(SEM, fool_predicate(), [FOOL_TERM], 100)
    assert not report.passed
    assert report.violations[0].condition is Condition.MAY_PROGRESS


def test_progress_implies_may():
    corpus = typed_corpus(2)
    progress = {e: audit_progress(SEM, PRED, e, 100) for e in corpus}
    may = soundness_may_audit(SEM, PRED, corpus, 100)
    assert check_progress_implies_may(progress, may)

    # fool corpus: progress already fails, implication vacuous
    fool = fool_predicate()
    progress_fool = {FOOL_TERM: audit_progress(SEM, fool, FOOL_TERM, 50)}
    may_fool = soundness_may_audit(SEM, fool, [FOOL_TERM], 50)
    assert check_progress_implies_may(progress_fool, may_fool)

    # a fabricated progress pass with a may failure must be caught
    fake = {FOOL_TERM: AuditOutcome(True)}
    assert not check_progress_implies_may(fake, may_fool)


def test_violations_replay():
    dropped = lambda_semantics(drop_succ=True)
    report = soundness_must_audit(dropped, PRED, [Succ(Nat(2))], 50)
    for v in report.violations:
        again = audit_progress(dropped, PRED, v.config, 50)
        assert not again.passed
        assert again.violation.condition == v.condition


def test_violations_monotone_in_fuel():
    dropped = lambda_semantics(drop_succ=True)
    low = soundness_must_audit(dropped, PRED, [Succ(Nat(2))], 10)
    high = soundness_must_audit(dropped, PRED, [Succ(Nat(2))], 500)
    assert len(low.violations) == len(high.violations) == 1

    fool = fool_predicate()
    assert not soundness_must_audit(SEM, fool, [FOOL_TERM], 10).passed
    assert not soundness_must_audit(SEM, fool, [FOOL_TERM], 1000).passed


def test_strong_preservation_on_converged_members():
    # every index of a converged member admits its results
    for e in typed_corpus(2):
        out = audit_preservation(SEM, PRED, e, 100)
        assert out.passed and not out.inconclusive


def test_report_merge():
    r1 = soundness_must_audit(SEM, PRED, typed_corpus(1), 20)
    r2 = soundness_must_audit(SEM, PRED, typed_corpus(1), 20)
    merged = r1.merge(r2)
    assert merged.stats["configs"] == 2 * r1.stats["configs"]
    assert merged.passed


@pytest.mark.parametrize("audit", [audit_preservation, audit_progress])
def test_single_configuration_audits_reject_nonpositive_fuel(audit):
    for fuel in (0, -1):
        with pytest.raises(ValueError):
            audit(SEM, PRED, parse_expr("succ 0"), fuel)


def _reference_preservation_violation(pred, config, outcomes):
    """The preservation check on the stepper, as it was: every node of
    every converged tree through ``positions()``, and the root's indices
    once per tree."""
    for o in outcomes:
        if not isinstance(o, Converged):
            continue
        for pos, node in o.tree.positions():
            if not pred.satisfies(node.config):
                return Violation(Condition.PRESERVATION, config,
                                 detail=("node-config", pos, node.config))
        for index in pred.indices_of_config(config):
            if not pred.holds_result(o.result, index):
                return Violation(Condition.PRESERVATION, config,
                                 detail=("root-result", index, o.result))
    return None


def _reference_preservation(sem, pred, config, fuel):
    """``(passed, inconclusive)`` of the preservation audit on the
    stepper's exhaustive outcomes."""
    outcomes = run_exhaustive(sem, config, fuel)
    violation = _reference_preservation_violation(pred, config, outcomes)
    return violation is None, violation is None and \
        any(isinstance(o, OutOfFuel) for o in outcomes)


def _plain_preservation(pred, entries, members):
    """The table's preservation check as a plain loop: each member is typed
    again for each of its results."""
    violations = []
    for c, (found, _) in entries.items():
        if found and not pred.satisfies(c):
            violations.append(Violation(Condition.PRESERVATION, c,
                                        detail=("node-config", c)))
    for config in members:
        for r in entries[config][0]:
            for index in pred.indices_of_config(config):
                if not pred.holds_result(r, index):
                    violations.append(Violation(Condition.PRESERVATION, config,
                                                detail=("root-result", index, r)))
    return violations


def _picky(pred):
    """``pred`` that also rejects the configuration ``0`` and the result
    ``2``, so that preservation fails both inside trees and at roots."""
    return IndexedPredicate(
        lambda c: frozenset() if c == Nat(0) else pred.indices_of_config(c),
        lambda r, i: r != Nat(2) and pred.holds_result(r, i))


def audit_sets():
    """(oracle, predicate, corpus, fuel) of every audit compared below."""
    picky = _picky(PRED)
    return [
        (SEM, PRED, typed_corpus(3), 200),
        (SEM, picky, [e for e in typed_corpus(3) if picky.satisfies(e)], 200),
        (fj_semantics(INTEROP_TABLE), fj_indexed_predicate(INTEROP_TABLE),
         fj_typed_corpus(INTEROP_TABLE, 3), 150),
        (impfj_semantics(IMP_TABLE), impfj_indexed_predicate(IMP_TABLE),
         impfj_typed_corpus(IMP_TABLE, 3), 200),
        (lambda_semantics(drop_succ=True), PRED, [Succ(Nat(2))], 50),
        (SEM, fool_predicate(), [FOOL_TERM], 50),
    ]


def test_preservation_reports_equal_the_reference(monkeypatch):
    for sem, pred, corpus, fuel in audit_sets():
        single = [audit_preservation(sem, pred, c, fuel) for c in corpus]
        assert [(o.passed, o.inconclusive) for o in single] == \
            [_reference_preservation(sem, pred, c, fuel) for c in corpus]
        report = soundness_must_audit(sem, pred, corpus, fuel)
        # the corpus table reports each violating entry once, and every
        # violation of each member's own table
        found = [v for v in report.violations if not _dead_end_violation(v)]
        own = [_plain_preservation(pred, results.build(sem, [c], fuel).entries, [c])
               for c in corpus]
        assert len(found) == len(set(found)) and set(found) == {v for vs in own for v in vs}
        assert [o.violation for o in single] == [next(iter(vs), None) for vs in own]
        with monkeypatch.context() as m:
            m.setattr(predicates, "_preservation", _plain_preservation)
            assert report == soundness_must_audit(sem, pred, corpus, fuel)
    picky_report = soundness_must_audit(*audit_sets()[1])
    details = {v.detail[0] for v in picky_report.violations}
    assert details == {"node-config", "root-result"}


def test_preservation_asks_each_configuration_once(monkeypatch):
    monkeypatch.setattr(PartialEvalTree, "positions",
                        lambda self: pytest.fail("preservation walked positions()"))
    repeated = 0
    for sem, pred, corpus, fuel in audit_sets():
        for config in corpus:
            asked = Counter()

            def indices(c):
                asked[c] += 1
                return pred.indices_of_config(c)

            counted = IndexedPredicate(indices, pred.holds_result)
            audit_preservation(sem, counted, config, fuel)
            assert max(asked.values(), default=0) <= 1, config
            repeated += len(results.build(sem, [config], fuel)[0][config][0]) > 1
    assert repeated > 0  # members with several results, each checked at the root


def _counted(pred):
    """``pred`` whose ``indices_of_config`` counts its calls per configuration."""
    asked = Counter()

    def indices(c):
        asked[c] += 1
        return pred.indices_of_config(c)

    return IndexedPredicate(indices, pred.holds_result), asked


@pytest.mark.parametrize("sem, pred, corpus, fuel, calls", [
    (SEM, PRED, typed_corpus(3), 200, 975),
    (fj_semantics(INTEROP_TABLE), fj_indexed_predicate(INTEROP_TABLE),
     fj_typed_corpus(INTEROP_TABLE, 3), 300, 32),
    (impfj_semantics(IMP_TABLE), impfj_indexed_predicate(IMP_TABLE),
     impfj_typed_corpus(IMP_TABLE, 3), 300, 19),
], ids=["lambda", "fj", "impfj"])
def test_must_audit_types_each_configuration_once(sem, pred, corpus, fuel, calls):
    counted, asked = _counted(pred)
    assert soundness_must_audit(sem, counted, corpus, fuel).passed
    assert sum(asked.values()) == len(asked) == calls


def test_progress_audit_types_a_stuck_node_once():
    counted, asked = _counted(fool_predicate())
    assert not audit_progress(SEM, counted, FOOL_TERM, 50).passed
    assert asked == {parse_expr("0 0"): 1}


SOUNDNESS_ARGVS = [
    [*lang, *fixture, "--flavor", flavor]
    for lang, fixtures in ((["--lang", "lambda"], ([], ["--fixture", "dropped-succ"],
                                                    ["--fixture", "fool"])),
                           (["--lang", "fj"], ([],)), (["--lang", "impfj"], ([],)))
    for fixture in fixtures for flavor in ("must", "may")]


@pytest.mark.parametrize("argv", SOUNDNESS_ARGVS)
def test_soundness_command_prints_what_the_reference_prints(argv, capsys, monkeypatch):
    def run():
        code = cli.main(["soundness", *argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    new = run()
    checked = Counter()

    def plain(pred, entries, members):
        checked.update(members)
        return _plain_preservation(pred, entries, members)

    monkeypatch.setattr(predicates, "_preservation", plain)
    assert new == run()
    assert bool(checked) == ("must" in argv)  # only the must audit checks preservation


class FlowBack(LanguageSemantics):
    """``loop => 0``, and ``loop => r + 1`` from ``loop => r`` for ``r = 0``
    only: the result 1 flows back through the cycle and no rule takes it."""

    def start(self, config):
        return (Axiom(0, rule="zero"),
                FirstPremise("loop", Activation("up", "loop", (), "loop")))

    def advance(self, a, r):
        return (Finished(r + 1),) if r == 0 else ()

    def premise_bound(self, config):
        return 1


EVERYTHING = IndexedPredicate(lambda c: frozenset({"any"}), lambda r, i: True)


def test_audits_see_results_that_flow_back_through_a_cycle():
    # the stepper cuts the branch where ``loop`` recurs, so it sees only
    # ``loop => 0`` and a divergence, never ``up`` advanced with 1
    sem = FlowBack()
    assert {type(o) for o in run_exhaustive(sem, "loop", 50)} == {Converged, Diverges}
    assert eval_total(sem, "loop", 50, exhaustive=True) == \
        {Ok(0), Ok(1), INFINITY, WRONG}
    dead_end = Violation(Condition.FORALL_PROGRESS, "loop", "up", 1, detail=1)
    report = soundness_must_audit(sem, EVERYTHING, ["loop"], 50)
    assert report.violations == [dead_end] and not report.inconclusive
    assert audit_progress(sem, EVERYTHING, "loop", 50) == AuditOutcome(False, dead_end)
    assert soundness_may_audit(sem, EVERYTHING, ["loop"], 50).passed


def test_preservation_sees_results_that_flow_back_through_a_cycle():
    # the stepper never sees ``loop => 1``, so its preservation check passed
    only_zero = IndexedPredicate(lambda c: frozenset({"any"}), lambda r, i: r != 1)
    assert _reference_preservation(FlowBack(), only_zero, "loop", 50) == (True, False)
    assert audit_preservation(FlowBack(), only_zero, "loop", 50) == AuditOutcome(
        False, Violation(Condition.PRESERVATION, "loop", detail=("root-result", "any", 1)))


def test_audits_run_no_stepper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an audit ran the stepper")

    monkeypatch.setattr(pet, "_explore", refuse)
    monkeypatch.setattr(predicates, "run_exhaustive", refuse)
    m = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")
    for sem, pred, corpus, fuel in audit_sets()[2:] + [
            (FlowBack(), EVERYTHING, ["loop"], 50), (SEM, PRED, [App(m, m)], 120)]:
        soundness_must_audit(sem, pred, corpus, fuel)
        soundness_may_audit(sem, pred, corpus, fuel)
        for config in corpus:
            audit_progress(sem, pred, config, fuel)
            audit_preservation(sem, pred, config, fuel)


def _dead_end_violation(v):
    return v.condition is not Condition.PRESERVATION or \
        v.detail == "stuck node escapes the predicate"


def test_audits_agree_with_the_table_evaluators():
    # a dead end in a must report iff ``wrong`` is a total result, and the
    # may verdict is the classification of exhaustive ``eval_div``
    fuel = 300
    sets = [(lambda_semantics(s), PRED, (*typed_corpus(3), OMEGA)) for s in STRATEGIES]
    sets += [(sem, pred, corpus) for sem, pred, corpus, _ in audit_sets()[2:]]
    for sem, pred, corpus in sets:
        for config in corpus:
            must = soundness_must_audit(sem, pred, [config], fuel)
            assert any(map(_dead_end_violation, must.violations)) == \
                (WRONG in eval_total(sem, config, fuel, exhaustive=True)), config
            may = soundness_may_audit(sem, pred, [config], fuel)
            values = eval_div(sem, config, fuel, exhaustive=True)
            if INFINITY in values or any(isinstance(v, Ok) for v in values):
                assert may.passed and not may.inconclusive, config
            elif TIMEOUT in values:
                assert may.passed and may.inconclusive == [config], config
            else:
                assert not may.passed, config


def test_audits_of_results_that_flow_back_without_end():
    # every natural is a result of M M, so its table never closes: the
    # must audit is inconclusive where the stepper passed it, and 0 is
    # enough for the may audit
    m = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")
    mm = App(m, m)
    must = soundness_must_audit(SEM, PRED, [mm], 120)
    assert must.passed and must.inconclusive == [mm]
    may = soundness_may_audit(SEM, PRED, [mm], 120)
    assert may.passed and not may.inconclusive


@pytest.mark.parametrize("audit", [soundness_must_audit, soundness_may_audit])
def test_corpus_table_settles_every_typed_member_at_fuel_5(audit):
    # one table of 5 queries per member left 729 must and 593 may members
    # of this corpus inconclusive; the pooled table closes on all of them
    report = audit(SEM, PRED, typed_corpus(3), 5)
    assert report.passed and not report.inconclusive


def test_must_audit_settles_omega_beside_a_choice_that_reaches_it():
    report = soundness_must_audit(SEM, PRED, [OMEGA, Choice(Nat(0), OMEGA)], 5)
    assert report.passed and not report.inconclusive
    assert report.stats == Counter(configs=2, converged=1)


@pytest.mark.parametrize("audit", [soundness_must_audit, soundness_may_audit])
def test_empty_corpus_gives_an_empty_passing_report(audit, monkeypatch):
    # the pooled budget is 0 queries, so no table may be built
    monkeypatch.setattr(predicates, "build", lambda *args: pytest.fail("built a table"))
    report = audit(SEM, PRED, [], 50)
    assert report.passed and report == AuditReport() and list(report.stats) == []


def _counter_stats(audit, sem, pred, corpus, fuel):
    """The stats of a corpus audit by ``Counter`` arithmetic: ``configs``
    counted member by member, then the must audit's three sums added as
    one ``Counter``, or the may audit's verdicts counted member by member."""
    _, t, unsettled = predicates._corpus_table(sem, pred, corpus, fuel)
    stats = Counter()
    for _ in corpus:
        stats["configs"] += 1
    if audit is soundness_must_audit:
        stats += Counter(converged=sum(len(t.entries[c][0]) for c in corpus),
                         stuck=len(t.dead_ends),
                         timeout=sum(c in unsettled for c in corpus))
        return stats
    diverging = results.diverging(t)
    for c in corpus:
        verdict = ("progressing" if t.entries[c][0] or c in diverging
                   else "timeout" if c in unsettled else "all-stuck")
        stats[verdict] += 1
    return stats


STATS_CASES = [
    (SEM, PRED, [parse_expr("succ 1"), parse_expr("1 (+) 2")], 50),
    (SEM, PRED, [OMEGA], 50),
    (lambda_semantics(drop_succ=True), PRED, [Succ(Nat(2))], 50),
    (SEM, fool_predicate(), [FOOL_TERM], 50),
    (SEM, PRED, [parse_expr("succ (succ (succ (succ 0)))"), OMEGA, Nat(1)], 2),
    (lambda_semantics(drop_succ=True), PRED,
     [parse_expr("succ (succ 2)"), Nat(0), parse_expr("(\\x:nat. x) (succ 0)")], 1),
    (SEM, PRED, typed_corpus(3)[::25], 3),
    (SEM, PRED, [], 50),
]


def test_audit_stats_equal_the_counter_arithmetic_with_no_zero_count():
    # converged, stuck (``dropped-succ`` and ``fool``) and out-of-fuel
    # members; the key order is the order of the report's JSON document
    keys = set()
    for sem, pred, corpus, fuel in STATS_CASES:
        for audit in (soundness_must_audit, soundness_may_audit):
            stats = audit(sem, pred, corpus, fuel).stats
            expected = _counter_stats(audit, sem, pred, corpus, fuel)
            assert list(stats.items()) == list(expected.items()), (audit, corpus)
            assert 0 not in stats.values()
            keys |= set(stats)
    assert keys == {"configs", "converged", "stuck", "timeout", "progressing", "all-stuck"}
