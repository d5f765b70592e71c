"""Runtime enforcement of the oracle activation contract."""
import pytest

from bigstep.extensions import (INFINITY, WRONG, Ok, eval_div, eval_total, evaluate,
                                trace_oracle)
from bigstep.lam import enumerate_terms, lambda_semantics
from bigstep.oracle import (
    Activation,
    Axiom,
    BsJudgment,
    Demand,
    Finished,
    FirstPremise,
    LanguageSemantics,
    OracleContractError,
    checked_advance,
    checked_start,
)
from bigstep.pet import run_exhaustive, run_first


class BrokenAdvance(LanguageSemantics):
    """Returns a Demand whose activation forgets the finished premise."""

    def start(self, config):
        if config == "leaf":
            return (Axiom("v", rule="leaf"),)
        first = "leaf"
        return (FirstPremise(first, Activation("pair", config, (), first)),)

    def advance(self, a, r):
        # wrong: completed list not extended by the finished judgment
        return (Demand("leaf", Activation("pair", a.conclusion_config, (), "leaf")),)

    def premise_bound(self, config):
        return 2


class UnboundedPremises(BrokenAdvance):
    def advance(self, a, r):
        nxt = "leaf"
        return (Demand(nxt, a.extend(r, nxt)),)

    def premise_bound(self, config):
        return 1 if config != "leaf" else 0


def test_malformed_activation_rejected():
    with pytest.raises(OracleContractError):
        run_first(BrokenAdvance(), "root", 10)


def test_premise_bound_enforced():
    with pytest.raises(OracleContractError):
        run_first(UnboundedPremises(), "root", 10)


def test_exclusivity_on_deterministic_fragments():
    # choice-free terms: exactly one classified outcome, never several
    sem = lambda_semantics()
    choice_free = [e for e in enumerate_terms(2) if "Choice" not in repr(e)]
    for e in choice_free:
        outcomes = eval_total(sem, e, 150, exhaustive=True)
        assert len(outcomes) == 1
        (only,) = outcomes
        assert isinstance(only, Ok) or only in (WRONG, INFINITY)


def test_exclusivity_for_fj_programs():
    from bigstep.fj import INTEROP_TABLE, enumerate_fj, EnvConfig, fj_semantics
    from bigstep.util import EMPTY_MAP

    sem = fj_semantics(INTEROP_TABLE)
    for e in enumerate_fj(INTEROP_TABLE, 2):
        outcomes = eval_total(sem, EnvConfig(EMPTY_MAP, e), 150, exhaustive=True)
        assert len(outcomes) == 1


def test_extend_keeps_bindings_only_by_default():
    a = Activation("pair", "root", (), "leaf", bindings="env")
    assert a.extend("v", "leaf").bindings == "env"
    assert a.extend("v", "leaf", bindings=None).bindings is None
    # no string value is reserved to mean "keep"
    assert a.extend("v", "leaf", bindings="___keep___").bindings == "___keep___"


class ForeignConclusion(LanguageSemantics):
    """``start("a")`` answers a rule that concludes ``"b"``, and finishes it
    with its conclusion."""

    def start(self, config):
        if config == "v":
            return (Axiom(1, rule="v"),)
        return (FirstPremise("v", Activation("r", "b", (), "v")),)

    def advance(self, a, r):
        return (Finished(a.conclusion_config),)

    def premise_bound(self, config):
        return 1


# every path that asks an oracle: the stepper, first and exhaustive, the
# result table of exhaustive ``eval_div``, and a lifted oracle
RUNS = {
    "run_first": lambda sem: run_first(sem, "a", 10),
    "run_exhaustive": lambda sem: run_exhaustive(sem, "a", 10),
    "table": lambda sem: eval_div(sem, "a", 10, exhaustive=True),
    "lifted": lambda sem: evaluate(sem, "a", 10, "wrong"),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_start_activation_must_conclude_the_queried_config(run):
    with pytest.raises(OracleContractError, match="start activation malformed for 'a'"):
        run(ForeignConclusion())


class TwoPremises(LanguageSemantics):
    """``a`` has one rule, with premises ``v`` and ``v``; ``v`` is an axiom."""

    def start(self, config):
        if config == "v":
            return (Axiom(1, rule="v"),)
        return (FirstPremise("v", self.first(config)),)

    def first(self, config):
        return Activation("r", config, (), "v")

    def advance(self, a, r):
        if a.index == 2:
            return (Finished(r + 1),)
        return (Demand("v", a.extend(r, "v")),)

    def premise_bound(self, config):
        return 2


class StartWithCompleted(TwoPremises):
    def first(self, config):
        return Activation("r", config, (BsJudgment("v", 1),), "v")


class StartPendingElsewhere(TwoPremises):
    def first(self, config):
        return Activation("r", config, (), "w")


class AdvanceForeignConclusion(TwoPremises):
    def advance(self, a, r):
        return (Demand("v", Activation(
            "r", "b", a.completed + (BsJudgment(a.pending, r),), "v")),)


class AdvancePendingElsewhere(TwoPremises):
    def advance(self, a, r):
        return (Demand("v", a.extend(r, "w")),)


def test_two_premise_oracle_keeps_the_contract():
    assert run_first(TwoPremises(), "a", 10).result == 2
    assert eval_div(TwoPremises(), "a", 10, exhaustive=True) == {Ok(2)}


@pytest.mark.parametrize("oracle, message", [
    (StartWithCompleted, "start activation malformed for 'a'"),
    (StartPendingElsewhere, "start activation malformed for 'a'"),
    (AdvanceForeignConclusion, "advance activation malformed for 'a'"),
    (AdvancePendingElsewhere, "advance activation malformed for 'a'"),
])
@pytest.mark.parametrize("run", [RUNS["run_first"], RUNS["table"]],
                         ids=["run_first", "table"])
def test_each_contract_clause_is_enforced(oracle, message, run):
    with pytest.raises(OracleContractError, match=message):
        run(oracle())


@pytest.mark.parametrize("oracle", [StartWithCompleted, StartPendingElsewhere])
@pytest.mark.parametrize("mode", ["wrong", "div", "trace"])
def test_extensions_check_the_base_start_activation(oracle, mode):
    # the wrong mode's oracle passes the base answer to the checked
    # queries, and the other modes step the base oracle
    with pytest.raises(OracleContractError, match="start activation malformed for 'a'"):
        evaluate(oracle(), "a", 10, mode)


@pytest.mark.parametrize("mode", ["wrong", "div", "trace"])
def test_extensions_check_the_base_advance_activation(mode):
    # the wrong mode's oracle passes the base answer to the checked
    # queries, and the other modes step the base oracle
    with pytest.raises(OracleContractError,
                       match="advance activation malformed for 'root'"):
        evaluate(BrokenAdvance(), "root", 10, mode)


@pytest.mark.parametrize("oracle, config, message", [
    (StartWithCompleted, "a", "start activation malformed for 'a'"),
    (BrokenAdvance, "root", "advance activation malformed for 'root'"),
])
def test_the_trace_oracle_checks_each_base_answer_it_rebuilds(oracle, config, message):
    # the rebuilt activation starts with no completed premise and extends
    # the traced ones, so only the base answer shows a completed premise
    # at the start or a forgotten one
    with pytest.raises(OracleContractError, match=message):
        run_first(trace_oracle(oracle()), config, 10)


# answers given twice over, as a list, a generator or a tuple, and once,
# as the 1-tuple that the checked queries take without deduplicating
SHAPES = {
    "list": (list, 2),
    "generator": (lambda xs: (x for x in xs), 2),
    "duplicate": (tuple, 2),
    "single": (tuple, 1),
}


def shaped(base, shape, copies):
    """``base()`` answering each query ``copies`` times over, as ``shape``."""

    class Shaped(base):
        asked = 0

        def start(self, config):
            self.asked += 1
            return shape(super().start(config) * copies)

        def advance(self, a, r):
            self.asked += 1
            return shape(super().advance(a, r) * copies)

    return Shaped()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_checked_queries_deduplicate_every_shape_of_answer(run, shape):
    # a duplicate left in would be taken as a second branch, or wake the
    # table's waiting activations twice, and so ask more queries
    once, sem = shaped(TwoPremises, tuple, 1), shaped(TwoPremises, *SHAPES[shape])
    assert repr(run(sem)) == repr(run(once))
    assert sem.asked == once.asked


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_checked_queries_check_every_shape_of_answer(run, shape):
    with pytest.raises(OracleContractError, match="start activation malformed for 'a'"):
        run(shaped(ForeignConclusion, *SHAPES[shape]))
    with pytest.raises(OracleContractError, match="advance activation malformed for 'a'"):
        run(shaped(AdvancePendingElsewhere, *SHAPES[shape]))


@pytest.mark.parametrize("shape", SHAPES)
def test_checked_queries_answer_distinct_tuples(shape):
    sem = shaped(TwoPremises, *SHAPES[shape])
    (step,) = checked_start(sem, "a")
    assert step == FirstPremise("v", Activation("r", "a", (), "v"))
    assert checked_advance(sem, step.activation, 1) == (
        Demand("v", step.activation.extend(1, "v")),)
