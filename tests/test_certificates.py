"""Divergence certificates checked against a result table.

``divergence_certificate_check`` reads a certificate off the result table
``results.build`` returns.  Before the table it replayed every premise with
``run_exhaustive``; that replay is kept here as the reference.
"""
import pytest

from bigstep import extensions as ext
from bigstep import pet
from bigstep.extensions import CertificateCheck, divergence_certificate_check
from bigstep.fj import (EMPTY_MEMORY, IMP_LOOP_TABLE, INTEROP_TABLE, EnvConfig,
                        MemConfig, enumerate_fj, enumerate_impfj, fj_semantics,
                        impfj_semantics)
from bigstep.lam import OMEGA, enumerate_terms, lambda_semantics, parse_expr
from bigstep.lam.corpus import SELF_APPLY
from bigstep.lam.semantics import STRATEGIES
from bigstep.lam.syntax import Abs, App, Var
from bigstep.oracle import Demand, FirstPremise, LanguageSemantics
from bigstep.pet import (Converged, Diverges, DivergenceCertificate, run_exhaustive,
                         run_first)
from bigstep.util import EMPTY_MAP

M = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")


def _replay(sem, cert, fuel):
    """The certificate check as a replay of ``run_exhaustive`` on every
    premise before the marked one, ``fuel`` transitions per branch."""
    witness = cert.witness
    if not witness:
        return CertificateCheck(False, "empty witness")
    for k, (cfg, family, idx) in enumerate(witness):
        if idx < 1:
            return CertificateCheck(False, f"entry {k}: bad premise index")
        nxt_cfg = witness[(k + 1) % len(witness)][0]
        cands = [s.activation for s in sem.start(cfg)
                 if isinstance(s, FirstPremise)]
        if not cands:
            return CertificateCheck(False, f"entry {k}: no start rule")
        for p in range(1, idx):
            advanced = []
            for a in cands:
                for o in run_exhaustive(sem, a.pending, fuel):
                    if not isinstance(o, Converged):
                        continue
                    for c in sem.advance(a, o.result):
                        if isinstance(c, Demand):
                            advanced.append(c.activation)
            cands = list(dict.fromkeys(advanced))
            if not cands:
                return CertificateCheck(
                    False, f"entry {k}: premise {p} does not converge usefully")
        if not any(a.rule_family == family and a.pending == nxt_cfg for a in cands):
            return CertificateCheck(
                False, f"entry {k}: premise {idx} does not demand the next entry")
    return CertificateCheck(True)


def _mutations(witness):
    """Eight witnesses near ``witness``: its first or last entry dropped,
    rotated by one, reversed, doubled, and its first entry's premise
    index moved by one either way or its rule family swapped."""
    (c, f, i), rest = witness[0], witness[1:]
    other = next((g for _, g, _ in witness if g != f), "no-such-rule")
    return (rest, witness[:-1], rest + witness[:1], witness[::-1], witness + witness,
            ((c, f, i + 1),) + rest, ((c, f, i - 1),) + rest, ((c, other, i),) + rest)


def _loop_through(t):
    """``W W`` with ``W = \\x. t (x x)``: a cycle through ``t (W W)``."""
    w = Abs("x", SELF_APPLY, App(t, App(Var("x"), Var("x"))))
    return App(w, w)


def certificate_sets():
    """(oracle, fuel, configurations) whose ``Diverges`` certificates are
    checked: ``OMEGA``, ``M M`` and 400 depth-3 lambda terms, each applied
    to ``OMEGA`` and looped through, under every premise order; every FJ
    term of depth <= 3 over ``INTEROP_TABLE``, none of which diverges;
    every imperative-FJ term of depth <= 3 over ``IMP_LOOP_TABLE``."""
    terms = enumerate_terms(3)[::15][:400]
    lam = ([OMEGA, App(M, M)] + [App(t, OMEGA) for t in terms]
           + [_loop_through(t) for t in terms])
    sets = [(lambda_semantics(s), 120, lam) for s in STRATEGIES]
    sets.append((fj_semantics(INTEROP_TABLE), 150,
                 [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)]))
    sets.append((impfj_semantics(IMP_LOOP_TABLE), 200,
                 [MemConfig(EMPTY_MEMORY, e)
                  for e in enumerate_impfj(IMP_LOOP_TABLE, 3)]))
    return sets


def certificates():
    """(oracle, certificate) of every certificate above and its mutations."""
    out = []
    for sem, fuel, configs in certificate_sets():
        for c in configs:
            for o in run_exhaustive(sem, c, fuel):
                if isinstance(o, Diverges):
                    cert = o.certificate
                    out.append((sem, cert))
                    out += [(sem, DivergenceCertificate(w, cert.entry))
                            for w in _mutations(cert.witness)]
    return out


@pytest.fixture(scope="module")
def certs():
    return certificates()


def test_certificate_sets_cover_passes_and_failures(certs):
    verdicts = [divergence_certificate_check(sem, c, 120).passed for sem, c in certs]
    assert (len(certs), sum(verdicts)) == (17_334, 7_701)


def test_table_check_equals_the_replay_at_fuel_120(certs):
    for sem, cert in certs:
        assert divergence_certificate_check(sem, cert, 120).passed == \
            _replay(sem, cert, 120).passed, cert.witness


def test_table_check_differs_from_the_replay_only_where_its_budget_runs_out(certs):
    # 20 queries in all may not reach the demands that the replay finds
    # with 20 transitions per branch; every such certificate passes once
    # the table closes
    differ = 0
    for sem, cert in certs:
        check = divergence_certificate_check(sem, cert, 20)
        if check.passed == _replay(sem, cert, 20).passed:
            continue
        differ += 1
        assert not check.passed and "budget of 20 queries ran out" in check.reason
        assert divergence_certificate_check(sem, cert, 120).passed
    assert differ > 0


def test_mm_certificate_needs_eight_queries():
    # under app-late, the M M certificate's earlier premises converge in
    # one transition each, so the replay passes at fuel 1; the table meets
    # every entry's demand after 8 queries
    sem = lambda_semantics("app-late")
    [cert] = [o.certificate for o in run_exhaustive(sem, App(M, M), 120)
              if isinstance(o, Diverges)]
    assert len(cert.witness) == 3
    assert _replay(sem, cert, 1).passed
    assert divergence_certificate_check(sem, cert, 8).passed
    for fuel in (6, 7):
        check = divergence_certificate_check(sem, cert, fuel)
        assert not check.passed
        assert f"the budget of {fuel} queries ran out" in check.reason


class CountingOracle(LanguageSemantics):
    """``base`` with a count of its ``start`` and ``advance`` queries."""

    def __init__(self, base):
        self.base, self.queries = base, 0

    def start(self, config):
        self.queries += 1
        return self.base.start(config)

    def advance(self, a, r):
        self.queries += 1
        return self.base.advance(a, r)

    def premise_bound(self, config):
        return self.base.premise_bound(config)


def test_mm_check_stops_once_every_demand_is_met():
    # the table of M M under app-late has infinitely many results and
    # never closes; the check stops after the 8 queries that meet every
    # entry's demand, whatever its budget
    sem = lambda_semantics("app-late")
    [cert] = [o.certificate for o in run_exhaustive(sem, App(M, M), 120)
              if isinstance(o, Diverges)]
    for fuel in (8, 120, 1000):
        counted = CountingOracle(sem)
        assert divergence_certificate_check(counted, cert, fuel).passed
        assert counted.queries == 8, fuel
    check = divergence_certificate_check(sem, cert, 7)
    assert not check.passed and "the budget of 7 queries ran out" in check.reason


def test_reason_tells_a_closed_table_from_a_spent_budget():
    sem = lambda_semantics()
    offset = DivergenceCertificate(((OMEGA, "app", 2),), OMEGA)
    check = divergence_certificate_check(sem, offset, 20)
    assert not check.passed
    assert check.reason == ("entry 0: premise 2 did not demand the next entry"
                            " before the table closed")
    check = divergence_certificate_check(sem, DivergenceCertificate(
        ((OMEGA, "app", 3),), OMEGA), 2)
    assert not check.passed
    assert check.reason == ("entry 0: premise 3 did not demand the next entry"
                            " before the budget of 2 queries ran out")


def test_certificate_check_runs_no_stepper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the stepper ran")

    out = run_first(lambda_semantics(), OMEGA, 50)
    for module, name in ((pet, "_explore"), (ext, "run_exhaustive"), (ext, "run_first")):
        monkeypatch.setattr(module, name, refuse)
    assert divergence_certificate_check(lambda_semantics(), out.certificate, 50).passed
