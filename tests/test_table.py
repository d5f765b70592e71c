"""Exhaustive ``eval_div`` and ``eval_total`` read off a result table over
the base rules: they agree with the stepper's outcomes wherever the
stepper neither runs out of fuel nor cuts a cycle that converges."""
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bigstep import extensions as ext
from bigstep import pet, results
from bigstep.extensions import (INFINITY, NO_JUDGMENT, TIMEOUT, WRONG, CertificateCheck,
                                 Ok, divergence_certificate_check)
from bigstep.fj import (EMPTY_MEMORY, IMP_TABLE, INTEROP_TABLE, EnvConfig, MemConfig,
                        enumerate_fj, enumerate_impfj, fj_semantics, impfj_semantics)
from bigstep.lam import OMEGA, enumerate_terms, lambda_semantics, parse_expr
from bigstep.lam.semantics import STRATEGIES
from bigstep.lam.syntax import App, Choice, Nat, Succ
from bigstep.oracle import (Activation, Axiom, Demand, FirstPremise, Finished,
                            LanguageSemantics, OracleContractError)
from bigstep.pet import (Converged, DivergenceCertificate, Diverges, OutOfFuel, Stuck,
                         StuckKind, run_exhaustive)
from bigstep.util import EMPTY_MAP

from test_oracle_contract import BrokenAdvance, UnboundedPremises
from test_properties import closed_terms

EVALUATORS = (("div", ext.eval_div), ("total", ext.eval_total))


def _stepper_values(sem, config, fuel, mode):
    return frozenset(v for _, v in ext.evaluate(sem, config, fuel, mode,
                                                exhaustive=True))


def _assert_table_equals_stepper(sem, configs, fuel):
    for c in configs:
        for mode, evaluator in EVALUATORS:
            assert evaluator(sem, c, fuel, exhaustive=True) == \
                _stepper_values(sem, c, fuel, mode), (mode, c)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_table_equals_stepper_on_lambda_depth3(strategy):
    sem = lambda_semantics(strategy)
    _assert_table_equals_stepper(sem, enumerate_terms(3) + (OMEGA,), 120)


def test_table_equals_stepper_on_fj_depth3():
    sem = fj_semantics(INTEROP_TABLE)
    _assert_table_equals_stepper(
        sem, [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)], 150)


def test_table_equals_stepper_on_impfj_depth3():
    sem = impfj_semantics(IMP_TABLE)
    _assert_table_equals_stepper(
        sem, [MemConfig(EMPTY_MEMORY, e) for e in enumerate_impfj(IMP_TABLE, 3)], 200)


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([4, 5]).flatmap(closed_terms))
def test_table_equals_stepper_on_deeper_random_terms(e):
    fuel = 100
    for strategy in STRATEGIES:
        sem = lambda_semantics(strategy)
        assume(not any(isinstance(o, OutOfFuel) for o in run_exhaustive(sem, e, fuel)))
        _assert_table_equals_stepper(sem, [e], fuel)


def test_table_values_on_loops_and_dead_ends():
    sem = lambda_semantics()
    stuck = parse_expr("0 0")
    cases = [
        (OMEGA, {INFINITY}),
        (Choice(OMEGA, Nat(0)), {INFINITY, Ok(Nat(0))}),
        (App(OMEGA, stuck), {INFINITY}),
        (App(Nat(0), OMEGA), {"dead"}),
        (stuck, {"dead"}),
        (Choice(stuck, Choice(OMEGA, Nat(1))), {"dead", INFINITY, Ok(Nat(1))}),
    ]
    for e, expected in cases:
        for mark, (_, evaluator) in zip((NO_JUDGMENT, WRONG), EVALUATORS):
            want = frozenset(mark if v == "dead" else v for v in expected)
            assert evaluator(sem, e, 100, exhaustive=True) == want, e


def test_results_that_flow_back_through_a_cycle():
    # M M with M = \x. 0 (+) succ (x x): the stepper cuts the branch where
    # M M recurs under itself, but every natural is a result of M M, so
    # the table finds 0, 1, 2, ... until its query budget is spent
    sem = lambda_semantics()
    m = parse_expr("\\x:rec t. t -> nat. 0 (+) succ (x x)")
    mm = App(m, m)
    assert _stepper_values(sem, mm, 120, "div") == {Ok(Nat(0)), INFINITY}
    for _, evaluator in EVALUATORS:
        values = evaluator(sem, mm, 120, exhaustive=True)
        assert {Ok(Nat(0)), Ok(Nat(1)), INFINITY, TIMEOUT} <= values
        assert NO_JUDGMENT not in values and WRONG not in values


@pytest.mark.parametrize("oracle, reason", [(BrokenAdvance, "malformed"),
                                            (UnboundedPremises, "premise bound")])
@pytest.mark.parametrize("evaluator", [ext.eval_div, ext.eval_total])
def test_table_checks_the_oracle_contract(oracle, reason, evaluator):
    # the table asks the base oracle, so the malformed ``completed`` of
    # ``BrokenAdvance`` is caught where it is answered
    with pytest.raises(OracleContractError, match=reason):
        evaluator(oracle(), "root", 10, exhaustive=True)


@pytest.mark.parametrize("evaluator", [ext.eval_div, ext.eval_total])
def test_table_rejects_zero_fuel(evaluator):
    with pytest.raises(ValueError):
        evaluator(lambda_semantics(), Nat(0), 0, exhaustive=True)


def test_fuel_bounds_the_queries_in_all():
    # succ^5 0 takes 11 transitions, one oracle query each
    sem = lambda_semantics()
    e = Nat(0)
    for _ in range(5):
        e = Succ(e)
    assert ext.eval_div(sem, e, 11, exhaustive=True) == {Ok(Nat(5))}
    assert ext.eval_div(sem, e, 10, exhaustive=True) == {TIMEOUT}


def test_nested_choice_e12_is_fast():
    e = Nat(0)
    for _ in range(12):
        e = Choice(e, Succ(e))
    t0 = time.perf_counter()
    values = ext.eval_div(lambda_semantics(), e, 400, exhaustive=True)
    assert time.perf_counter() - t0 < 1.0
    assert values == {Ok(Nat(k)) for k in range(13)}


def test_two_budgets_on_nested_choice_e6():
    # ``fuel`` bounds the table's oracle queries in all, but the
    # transitions of each branch of a stepper run: 30 queries cannot
    # close the table of e_6, while each of its 64 branches ends within
    # 30 transitions (e_k = e_{k-1} (+) succ e_{k-1}, as in the
    # benchmark's ``nested_choice``)
    sem = lambda_semantics()
    e = Nat(0)
    for _ in range(6):
        e = Choice(e, Succ(e))
    assert ext.eval_div(sem, e, 30, exhaustive=True) == {TIMEOUT}
    ends = list(pet._explore(sem, [pet._Frame(e, pet.START, ())], 30))
    assert len(ends) == 64
    assert not any(isinstance(o, OutOfFuel) for _, o in ends)
    outs = run_exhaustive(sem, e, 30)
    assert {o.result for o in outs} == {Nat(k) for k in range(7)}


class IntRules(LanguageSemantics):
    """Integer configurations, each with a list of rules ``(family,
    premises, base)``.  A rule without premises is an axiom concluding
    ``base``; any other demands its premises in order and concludes
    ``base`` plus the sum of their results, modulo 3."""

    def __init__(self, rules):
        self.rules = rules

    def start(self, config):
        out = []
        for k, (family, premises, base) in enumerate(self.rules.get(config, ())):
            if not premises:
                out.append(Axiom(base, rule=family))
            else:
                out.append(FirstPremise(premises[0], Activation(
                    family, config, (), premises[0], k)))
        return tuple(out)

    def advance(self, a, r):
        family, premises, base = self.rules[a.conclusion_config][a.bindings]
        if a.index < len(premises):
            nxt = premises[a.index]
            return (Demand(nxt, a.extend(r, nxt)),)
        return (Finished((base + r + sum(j.result for j in a.completed)) % 3),)

    def premise_bound(self, config):
        return max((len(p) for _, p, _ in self.rules.get(config, ())), default=0)


@st.composite
def int_rules(draw):
    """Up to six configurations; a premise may name any of them, so some
    demands close cycles, and a configuration may have no rule."""
    n = draw(st.integers(1, 6))
    rule = st.tuples(st.sampled_from("ab"), st.lists(st.integers(0, n - 1), max_size=3),
                     st.integers(0, 2))
    return {c: draw(st.lists(rule, max_size=3)) for c in range(n)}


class PickyIntRules(IntRules):
    """``IntRules`` in which premise ``i`` of rule ``k`` of a configuration
    accepts only the results in ``accepts[config][k][i]``: ``advance``
    answers nothing for any other, so a run can get stuck past its start."""

    def __init__(self, rules, accepts):
        super().__init__(rules)
        self.accepts = accepts

    def advance(self, a, r):
        if r not in self.accepts[a.conclusion_config][a.bindings][a.index - 1]:
            return ()
        return super().advance(a, r)


@st.composite
def picky_int_rules(draw):
    rules = draw(int_rules())
    subset = st.frozensets(st.integers(0, 2))
    return PickyIntRules(rules, {c: [[draw(subset) for _ in premises] for _, premises, _ in rs]
                                 for c, rs in rules.items()})


def test_stepper_ends_are_read_off_the_table_when_premises_reject():
    # every converged result is in the closed table, every stuck end is
    # one of its dead ends, and every divergence certificate checks; the
    # count of each kind keeps any clause from passing vacuously, and a
    # premise result that no rule accepts leaves a no-continuation end
    fuel, met = 1000, Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(picky_int_rules())
    def check(sem):
        t = results.build(sem, [0], fuel)
        assert not t.spent
        for o in run_exhaustive(sem, 0, 40):
            met[o.kind if isinstance(o, Stuck) else type(o)] += 1
            if isinstance(o, Converged):
                assert o.result in t.entries[0][0]
            elif isinstance(o, Stuck):
                assert o.info in t.dead_ends
            elif isinstance(o, Diverges):
                assert divergence_certificate_check(sem, o.certificate, fuel).passed

    check()
    assert met[Converged] and met[Diverges], met
    assert met[StuckKind.NO_RULE] and met[StuckKind.NO_CONTINUATION], met


def _callers_loop(table, root, rejoined):
    """``INFINITY`` read off ``table`` as before the pending lists were
    read: a ``callers`` index built from each configuration's demands."""
    demanded = {c: [] for c in table}
    for p, (_, waiting) in table.items():
        for c, _ in waiting:
            demanded[c].append(p)
    live, callers = {root: 0}, {}
    for c, ps in (demanded.items() if rejoined else ()):
        live[c] = len(ps)
        for p in ps:
            callers.setdefault(p, []).append(c)
    drop = [c for c, n in live.items() if not n]
    while drop:
        for c in callers.get(drop.pop(), ()):
            live[c] -= 1
            if not live[c]:
                drop.append(c)
    return bool(live[root])


def _scan_check(sem, cert, fuel):
    """The certificate check as before the early stop: the whole table,
    then a scan of the pending list of each entry's next configuration."""
    witness = cert.witness
    if not witness:
        return CertificateCheck(False, "empty witness")
    table, _, _, spent = results.build(sem, [witness[0][0]], fuel)
    for k, (cfg, family, idx) in enumerate(witness):
        nxt_cfg = witness[(k + 1) % len(witness)][0]
        waiting = table[nxt_cfg][1] if nxt_cfg in table else ()
        if not any(c == cfg and a.rule_family == family and a.index == idx
                   for c, a in waiting):
            why = f"the budget of {fuel} queries ran out" if spent else "the table closed"
            return CertificateCheck(False, f"entry {k}: premise {idx} did not"
                                           f" demand the next entry before {why}")
    return CertificateCheck(True)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(int_rules(), st.integers(1, 60),
       st.lists(st.tuples(st.integers(0, 5), st.sampled_from("ab"), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_pending_lists_give_the_callers_loop_and_the_scan(rules, fuel, drawn):
    sem = IntRules(rules)
    table, _, rejoined, _ = results.build(sem, [0], fuel)
    assert (INFINITY in ext.eval_div(sem, 0, fuel, exhaustive=True)) == \
        _callers_loop(table, 0, rejoined)
    certs = [o.certificate for o in run_exhaustive(sem, 0, 30) if isinstance(o, Diverges)]
    witnesses = [c.witness for c in certs] + [tuple(drawn)]
    witnesses += [w[1:] + w[:1] for w in witnesses] + [w[::-1] for w in witnesses]
    for w in witnesses:
        cert = DivergenceCertificate(w, w[0][0] if w else 0)
        assert divergence_certificate_check(sem, cert, fuel) == _scan_check(sem, cert, fuel)


def _inline_unsettled(t):
    """The unsettled closure as the corpus audits wrote it inline."""
    unsettled, todo = set(t.spent), t.spent
    while todo:
        todo = {c for p in todo for c, _ in t.entries[p][1]} - unsettled
        unsettled |= todo
    return unsettled


def _inline_diverges(table):
    """The divergence set as the evaluators computed it beside the
    extensions, before the table had a module of its own."""
    if not table.rejoined:
        return set()
    entries = table.entries
    live = dict.fromkeys(entries, 0)
    for _, waiting in entries.values():
        for c, _ in waiting:
            live[c] += 1
    drop = [c for c, n in live.items() if not n]
    while drop:
        for c, _ in entries[drop.pop()][1]:
            live[c] -= 1
            if not live[c]:
                drop.append(c)
    return {c for c, n in live.items() if n}


def test_readers_equal_the_inline_code_they_replace():
    # over tables of one to three roots, at budgets that often run out:
    # each reader equals the code it replaced, and a one-root table's
    # root is unsettled exactly when its budget left queries; the counts
    # keep each clause from passing vacuously
    met = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(int_rules().map(IntRules), picky_int_rules()), st.integers(1, 40),
           st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    def check(sem, fuel, roots):
        t = results.build(sem, roots, fuel)
        left, cycling = results.unsettled(t), results.diverging(t)
        assert left == _inline_unsettled(t)
        assert cycling == _inline_diverges(t)
        for c, (found, _) in t.entries.items():
            assert results.results_of(t, c) is found
        one = results.build(sem, roots[:1], fuel)
        assert (roots[0] in results.unsettled(one)) == bool(one.spent)
        met["spent" if one.spent else "closed"] += 1
        met["unsettled beyond spent"] += len(left) > len(t.spent)
        met["diverging"] += bool(cycling)

    check()
    assert all(met[k] for k in ("spent", "closed", "unsettled beyond spent", "diverging")), met
