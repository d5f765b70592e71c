"""Runtime enforcement of the oracle activation contract."""
import pytest

from bigstep.extensions import INFINITY, WRONG, Ok, eval_total
from bigstep.lam import enumerate_terms, lambda_semantics
from bigstep.oracle import (
    Activation,
    Axiom,
    Demand,
    FirstPremise,
    LanguageSemantics,
    OracleContractError,
)
from bigstep.pet import run_first


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
