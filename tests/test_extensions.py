"""Extended semantics: wrong, divergence, traces, total, and their laws."""
import pytest

from bigstep import extensions as ext
from bigstep.extensions import (
    INFINITY,
    NO_JUDGMENT,
    STUCK_TRACE,
    WRONG,
    FinTrace,
    InfTrace,
    Ok,
    divergence_certificate_check,
    trace_forget,
)
from bigstep.lam import OMEGA, OMEGA_BODY, enumerate_terms, lambda_semantics, parse_expr
from bigstep.lam.semantics import WRONG_MARK, direct_traces, direct_wrong_results
from bigstep.lam.syntax import App, Choice, Nat, Succ, Var
from bigstep.oracle import Activation, Axiom, Finished, FirstPremise, LanguageSemantics
from bigstep.pet import (Converged, Diverges, DivergenceCertificate, run_exhaustive,
                         run_first)
from bigstep.serialize import tree_doc

SEM = lambda_semantics()
IDENTITY_APP = parse_expr("(\\x:nat. x) 3")


def test_wrong_goldens():
    assert ext.eval_wrong(SEM, parse_expr("0 0"), 20) is WRONG
    assert ext.eval_wrong(SEM, Succ(parse_expr("\\x:nat. x")), 20) is WRONG
    assert ext.eval_wrong(SEM, Var("y"), 20) is WRONG
    assert ext.eval_wrong(SEM, IDENTITY_APP, 20) == Ok(Nat(3))


def test_wrong_never_for_omega():
    out = ext.eval_wrong(SEM, OMEGA, 100)
    assert isinstance(out, Diverges)
    assert divergence_certificate_check(SEM, out.certificate, 60).passed
    exhaustive = ext.eval_wrong(SEM, OMEGA, 100, exhaustive=True)
    assert WRONG not in exhaustive


def test_div_goldens():
    assert ext.eval_div(SEM, OMEGA, 100) is INFINITY
    assert ext.eval_div(SEM, OMEGA, 100, exhaustive=True) == frozenset({INFINITY})
    assert ext.eval_div(SEM, IDENTITY_APP, 20) == Ok(Nat(3))
    assert ext.eval_div(SEM, parse_expr("0 0"), 20) is NO_JUDGMENT


def test_trace_goldens():
    fn, n = IDENTITY_APP.fn, IDENTITY_APP.arg
    assert ext.eval_trace(SEM, IDENTITY_APP, 20) == FinTrace(
        (IDENTITY_APP, fn, n, n), n)
    assert ext.eval_trace(SEM, Nat(2), 20) == FinTrace((Nat(2),), Nat(2))
    omega_trace = ext.eval_trace(SEM, OMEGA, 100)
    assert omega_trace == InfTrace((), (OMEGA, OMEGA_BODY, OMEGA_BODY))
    assert ext.eval_trace(SEM, Var("x"), 20) is STUCK_TRACE


def test_trace_forget():
    fn, n = IDENTITY_APP.fn, IDENTITY_APP.arg
    assert trace_forget(FinTrace((IDENTITY_APP, fn, n, n), n)) == Ok(n)
    assert trace_forget(InfTrace((), (OMEGA,))) is INFINITY
    assert trace_forget(FinTrace((Nat(1),), Nat(1))) == Ok(Nat(1))


def test_total_goldens():
    assert ext.eval_total(SEM, parse_expr("0 0"), 20) is WRONG
    assert ext.eval_total(SEM, OMEGA, 100) is INFINITY
    both = ext.eval_total(SEM, Choice(OMEGA, Nat(0)), 100, exhaustive=True)
    assert both == frozenset({INFINITY, Ok(Nat(0))})


def test_fuel_validation():
    for fn in (ext.eval_wrong, ext.eval_div, ext.eval_trace, ext.eval_total):
        with pytest.raises(ValueError):
            fn(SEM, Nat(1), 0)


def test_certificate_check_rejects_bad_witnesses():
    empty = DivergenceCertificate((), OMEGA)
    assert not divergence_certificate_check(SEM, empty, 20).passed
    # first premise of the application under 'app' never converges to an
    # abstraction accepted at index 3 when the entry is a number
    bogus = DivergenceCertificate(((parse_expr("0 0"), "app", 3),), parse_expr("0 0"))
    assert not divergence_certificate_check(SEM, bogus, 20).passed
    offset = DivergenceCertificate(((OMEGA, "app", 2),), OMEGA)
    assert not divergence_certificate_check(SEM, offset, 20).passed


def _ok_projection(values):
    return frozenset(v.value for v in values if isinstance(v, Ok))


def _base_results(e, fuel=120):
    outs = run_exhaustive(SEM, e, fuel)
    return frozenset(o.result for o in outs if isinstance(o, Converged))


def test_conservativity_depth2_quick():
    for e in enumerate_terms(2):
        base = _base_results(e)
        assert _ok_projection(ext.eval_wrong(SEM, e, 120, exhaustive=True)) == base
        assert _ok_projection(ext.eval_div(SEM, e, 120, exhaustive=True)) == base
        traces = ext.eval_trace(SEM, e, 120, exhaustive=True)
        assert _ok_projection(
            trace_forget(t) for t in traces
            if isinstance(t, (FinTrace, InfTrace))) == base
        assert _ok_projection(ext.eval_total(SEM, e, 120, exhaustive=True)) == base


def _forget_outcome(t):
    if isinstance(t, (FinTrace, InfTrace)):
        return trace_forget(t)
    if t is STUCK_TRACE:
        return NO_JUDGMENT
    return t


def test_abstraction_square_depth2_quick():
    for e in enumerate_terms(2):
        traces = ext.eval_trace(SEM, e, 120, exhaustive=True)
        divs = ext.eval_div(SEM, e, 120, exhaustive=True)
        assert frozenset(_forget_outcome(t) for t in traces) == divs


def test_wrong_iff_base_stuck_and_infinity_iff_base_diverges():
    # the extensions classify exactly the computations the stepper sees
    from bigstep.pet import Stuck

    samples = list(enumerate_terms(2)) + [
        OMEGA, Choice(OMEGA, Nat(0)), App(OMEGA, parse_expr("0 0")),
        App(Nat(0), OMEGA)]
    for e in samples:
        outs = run_exhaustive(SEM, e, 150)
        base_stuck = any(isinstance(o, Stuck) for o in outs)
        base_diverges = any(isinstance(o, Diverges) for o in outs)
        wrongs = ext.eval_wrong(SEM, e, 150, exhaustive=True)
        divs = ext.eval_div(SEM, e, 150, exhaustive=True)
        assert (WRONG in wrongs) == base_stuck
        assert (INFINITY in divs) == base_diverges
        assert (NO_JUDGMENT in divs) == base_stuck


def test_total_agreement_with_component_extensions():
    # the combined semantics classifies exactly as its two components do
    samples = list(enumerate_terms(2)) + [OMEGA, Choice(OMEGA, Nat(0))]
    for e in samples:
        totals = ext.eval_total(SEM, e, 120, exhaustive=True)
        wrongs = ext.eval_wrong(SEM, e, 120, exhaustive=True)
        divs = ext.eval_div(SEM, e, 120, exhaustive=True)
        assert (WRONG in totals) == (WRONG in wrongs)
        assert (INFINITY in totals) == (INFINITY in divs)
        assert _ok_projection(totals) == _base_results(e)


def test_operational_wrong_matches_direct_derivation_search():
    # cross-check against a direct derivation search over the extended rules
    for e in enumerate_terms(2):
        direct = direct_wrong_results(e, depth=40)
        expected = frozenset(
            WRONG if v == WRONG_MARK else Ok(v) for v in direct)
        got = ext.eval_wrong(SEM, e, 120, exhaustive=True)
        assert got == expected, e


def test_operational_traces_match_direct_derivation_search():
    for e in enumerate_terms(2):
        direct = direct_traces(e, depth=40)
        expected = frozenset(FinTrace(steps, v) for steps, v in direct)
        got = frozenset(
            t for t in ext.eval_trace(SEM, e, 120, exhaustive=True)
            if isinstance(t, FinTrace))
        assert got == expected, e


def test_wrong_matches_direct_search_per_strategy():
    for strategy in ("app-r", "app-late"):
        sem = lambda_semantics(strategy)
        for e in enumerate_terms(2):
            direct = direct_wrong_results(e, depth=40, strategy=strategy)
            expected = frozenset(
                WRONG if v == WRONG_MARK else Ok(v) for v in direct)
            assert ext.eval_wrong(sem, e, 120, exhaustive=True) == expected, e


def test_strategy_changes_stuck_versus_divergent():
    # diverging function, stuck argument: order of exploration decides
    omega_app = App(OMEGA, parse_expr("0 0"))
    assert ext.eval_total(SEM, omega_app, 100) is INFINITY
    sem_r = lambda_semantics("app-r")
    assert ext.eval_total(sem_r, omega_app, 100) is WRONG
    # constant function, diverging argument: early versus late error
    const_app = App(Nat(0), OMEGA)
    assert ext.eval_total(SEM, const_app, 100) is WRONG
    sem_late = lambda_semantics("app-late")
    assert ext.eval_total(sem_late, const_app, 100) is INFINITY


def test_trace_erasure_yields_base_tree():
    # erasing traces from a finite trace evaluation tree gives the base tree
    from bigstep.extensions import trace_oracle
    from bigstep.pet import run_first

    tsem = trace_oracle(SEM)
    for e in (IDENTITY_APP, parse_expr("succ (succ 1)"), Nat(2)):
        traced = run_first(tsem, e, 60)
        base = run_first(SEM, e, 60)

        def erase(node):
            return (node.config, node.res.result,
                    tuple(erase(c) for c in node.children))

        def plain(node):
            return (node.config, node.res,
                    tuple(plain(c) for c in node.children))

        assert erase(traced.tree) == plain(base.tree)


def test_div_oracle_coaxiom_predicate():
    from bigstep.extensions import is_div_coaxiom
    from bigstep.oracle import BsJudgment

    assert is_div_coaxiom(BsJudgment(OMEGA, INFINITY))
    assert not is_div_coaxiom(BsJudgment(OMEGA, Ok(Nat(1))))


def test_div_propagation_short_circuits():
    from bigstep.extensions import div_oracle
    from bigstep.oracle import Activation, Axiom, Finished, FirstPremise, LanguageSemantics

    dsem = div_oracle(SEM)
    starts = [s for s in dsem.start(IDENTITY_APP) if isinstance(s, FirstPremise)]
    conts = dsem.advance(starts[0].activation, INFINITY)
    assert conts == (Finished(INFINITY, rule="div-prop"),)


def test_wrong_propagation_short_circuits():
    from bigstep.extensions import wrong_oracle
    from bigstep.oracle import Activation, Axiom, Finished, FirstPremise, LanguageSemantics

    wsem = wrong_oracle(SEM)
    starts = [s for s in wsem.start(IDENTITY_APP) if isinstance(s, FirstPremise)]
    conts = wsem.advance(starts[0].activation, WRONG)
    assert conts == (Finished(WRONG, rule="wrong-prop"),)


def test_exhaustive_trace_keeps_every_diverging_branch():
    # both infinite traces end in the cycle of omega; one passes through
    # ``0 (+) omega`` first, so their prefixes differ
    values = ext.eval_trace(SEM, parse_expr("(0 (+) omega) (+) omega"), 100,
                            exhaustive=True)
    assert sum(isinstance(v, FinTrace) for v in values) == 1
    assert sorted(len(v.prefix) for v in values if isinstance(v, InfTrace)) == [1, 2]


def test_plain_mode_is_the_base_semantics():
    # the identity extension: a converged run's value is its raw result,
    # a stuck or diverging run's value is the outcome itself
    for text in ("(\\x:nat. x) 3", "0 0", "1 (+) 2", "0 (+) omega"):
        e = parse_expr(text)
        pairs = ext.evaluate(SEM, e, 60, "plain", exhaustive=True)
        assert tuple(o for o, _ in pairs) == run_exhaustive(SEM, e, 60)
        for o, v in pairs:
            assert v == (o.result if isinstance(o, Converged) else o)
    [(_, value)] = ext.evaluate(SEM, IDENTITY_APP, 60, "plain")
    assert value == Nat(3)


def _leaf(config, result, rule):
    return {"config": config, "result": result, "rule": rule, "children": []}


@pytest.mark.parametrize("text, doc", [
    ("y", _leaf("y", "wrong", "wrong-config")),
    ("0 0", {"config": "0 0", "result": "wrong", "rule": "wrong-result",
             "children": [_leaf("0", "0", "val")]}),
    ("succ (0 0)", {"config": "succ (0 0)", "result": "wrong", "rule": "wrong-prop",
                    "children": [{"config": "0 0", "result": "wrong",
                                  "rule": "wrong-result",
                                  "children": [_leaf("0", "0", "val")]}]}),
])
def test_wrong_rules_by_name(text, doc):
    wsem = ext.wrong_oracle(SEM)
    assert tree_doc(wsem, run_first(wsem, parse_expr(text), 20).tree) == doc


def _rules(doc):
    """Rule labels of a tree document, in preorder."""
    return [doc["rule"]] + [r for c in doc["children"] for r in _rules(c)]


@pytest.mark.parametrize("lift", [
    ext.wrong_oracle, ext.div_oracle, ext.trace_oracle,
], ids=["wrong", "div", "trace"])
def test_extensions_keep_the_base_rule_names(lift):
    lifted = lift(SEM)
    outcomes = run_exhaustive(lifted, parse_expr("succ ((\\x:nat. x) (1 (+) 2))"), 40)
    assert len(outcomes) == 2  # one per choice
    for o in outcomes:
        assert _rules(tree_doc(lifted, o.tree)) == [
            "succ", "app", "val", "choice", "val", "val"]


def test_div_trace_prefixes_the_conclusion_and_completed_premises():
    tsem = ext.trace_oracle(SEM)
    fn = parse_expr("\\x:nat. x")
    e = App(fn, OMEGA)
    [first] = [s for s in tsem.start(e) if isinstance(s, FirstPremise)]
    [demand] = tsem.advance(first.activation, FinTrace((fn,), fn))
    period = (OMEGA, OMEGA_BODY, OMEGA_BODY)
    assert tsem.advance(demand.activation, InfTrace((), period)) == (
        Finished(InfTrace((e, fn), period), rule="div-trace"),)


def test_show_result_of_each_extension():
    wsem, dsem, tsem = (ext.wrong_oracle(SEM), ext.div_oracle(SEM),
                        ext.trace_oracle(SEM))
    assert wsem.show_result(WRONG) == "wrong"
    assert wsem.show_result(Nat(3)) == "3"
    assert dsem.show_result(INFINITY) == "infinity"
    assert dsem.show_result(Nat(3)) == "3"
    fn, n = IDENTITY_APP.fn, IDENTITY_APP.arg
    assert tsem.show_result(FinTrace((IDENTITY_APP, fn, n, n), n)) == \
        "<(\\x:nat. x) 3 ; \\x:nat. x ; 3 ; 3, 3>"
    assert tsem.show_result(InfTrace((IDENTITY_APP,), (fn, n))) == \
        "(\\x:nat. x) 3 ; (\\x:nat. x ; 3)^w"


def test_infinite_trace_with_empty_prefix_renders_only_its_period():
    tsem = ext.trace_oracle(SEM)
    fn, n = IDENTITY_APP.fn, IDENTITY_APP.arg
    assert tsem.show_result(InfTrace((), (fn, n))) == "(\\x:nat. x ; 3)^w"


class RuleNamed(LanguageSemantics):
    """``a`` has one rule, of family ``fam``, with the premise ``v``, an
    axiom; it finishes under ``rule``: the empty name, or ``None``, which
    leaves the name to the family."""

    def __init__(self, rule):
        self.rule = rule

    def start(self, config):
        if config == "v":
            return (Axiom(1, "v"),)
        return (FirstPremise("v", Activation("fam", config, (), "v")),)

    def advance(self, a, r):
        return (Finished(r, self.rule),)

    def premise_bound(self, config):
        return 1


@pytest.mark.parametrize("rule, tag", [("", ""), (None, "fam")])
@pytest.mark.parametrize("mode", ["plain", "wrong", "div", "trace"])
def test_lifted_runs_keep_the_base_rule_name(mode, rule, tag):
    # an empty rule name is a name: no extension renames it to the family
    (outcome, _), = ext.evaluate(RuleNamed(rule), "a", 10, mode)
    assert outcome.tree.tag == tag


def _answers(*answers):
    """``answers`` as a generator, which is truthy even when empty."""
    yield from answers


class EmptyGenerators(LanguageSemantics):
    """``b`` has one rule, whose premise ``v`` is an axiom that no rule
    continues; ``a`` has none.  Every answer is a generator."""

    def start(self, config):
        if config == "v":
            return _answers(Axiom(1, "v"))
        if config == "b":
            return _answers(FirstPremise("v", Activation("fam", "b", (), "v")))
        return _answers()

    def advance(self, a, r):
        return _answers()

    def premise_bound(self, config):
        return 1


@pytest.mark.parametrize("config, rule", [("a", "wrong-config"), ("b", "wrong-result")],
                         ids=["start", "advance"])
@pytest.mark.parametrize("mode", ["wrong", "total"])
def test_an_empty_generator_is_a_dead_end(mode, config, rule):
    (outcome, value), = ext.evaluate(EmptyGenerators(), config, 10, mode)
    assert value is WRONG
    assert outcome.tree.tag == rule


class Recorded(LanguageSemantics):
    """The lambda oracle answering as ``shape``, keeping every query."""

    def __init__(self, shape):
        self.shape = shape
        self.starts, self.advances = [], []

    def start(self, config):
        self.starts.append(config)
        return self.shape(SEM.start(config))

    def advance(self, a, r):
        self.advances.append((a, r))
        return self.shape(SEM.advance(a, r))

    def premise_bound(self, config):
        return SEM.premise_bound(config)


@pytest.mark.parametrize("lift", [ext.wrong_oracle, ext.div_oracle], ids=["wrong", "div"])
@pytest.mark.parametrize("shape", [tuple, list], ids=["tuples", "lists"])
def test_lifted_oracles_pass_base_answers_through(lift, shape):
    # every query that the base runs on every seventh depth-3 term ask with
    # an answer is answered as the base answers it (node equality is
    # type-strict, so a rebuilt answer would differ)
    base = Recorded(shape)
    for e in enumerate_terms(3)[::7]:
        run_exhaustive(base, e, 120)
    lifted, starts, advances = lift(Recorded(shape)), 0, 0
    for c in base.starts:
        if SEM.start(c):
            assert lifted.start(c) == SEM.start(c), c
            starts += 1
    for a, r in base.advances:
        if SEM.advance(a, r):
            assert lifted.advance(a, r) == SEM.advance(a, r), (a, r)
            advances += 1
    assert starts > 1000 and advances > 1000
