"""The rule-oracle interface every object language implements.

A big-step semantics is a triple of configurations, results and rules
with ordered premises satisfying the bounded-premises condition.  Rule
sets are infinite in general, so they are represented intensionally by
two queries:

* ``start(c)`` - the ways to begin evaluating configuration ``c``: a
  zero-premise rule yields its result immediately (``Axiom``), any other
  rule demands its first premise (``FirstPremise``).
* ``advance(a, r)`` - given a partially applied rule ``a`` whose pending
  premise just produced ``r``, the ways to continue: finish with the
  conclusion result (``Finished``) or demand the next premise
  (``Demand``).  Each continuation corresponds to a rule equal to the
  queried one up to the current premise index.

An empty answer is meaningful: no way to start or to continue is exactly
how stuck computations arise.

Every transition of the stepper and every entry of a result table asks
one query, so a query should dispatch once on ``type(config)`` and build
each answer positionally, as the lambda and FJ oracles do: in CPython
3.11 on a 2-core x86-64 host, a ``match`` arm with positional
sub-patterns costs about 0.34 µs against 0.05 µs for a ``type(c) is C``
test and a tuple unpack, and ``Axiom(c, rule="val")`` 0.42 µs against
0.30 µs for ``Axiom(c, "val")``.

``checked_start`` and ``checked_advance`` ask the two queries and check
every answer against the contract; the stepper and the result table of
``extensions`` ask through them.  Only the trace extension rebuilds the
base activations it lifts, so it checks each base answer it rebuilds with
``check_first_premise`` or ``check_demand``, as the checked queries do.  An
activation keeps the conclusion its ``start`` was asked for, so
``checked_advance`` reads it off.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Sequence, Tuple, Union

from .node import node
from .util import dedup

Config = Any  # opaque, hashable, structurally comparable
ResultVal = Any

_KEEP = object()  # default of ``Activation.extend``: keep the old bindings


@node
class BsJudgment:
    config: Config
    result: ResultVal


@node
class Activation:
    """A rule partially applied to its first premises.

    ``completed`` holds the premises established so far, ``pending`` the
    configuration of the premise currently demanded.  Two activations with
    equal conclusion, completed prefix and pending configuration realise
    rule equality up-to the current index.
    """

    rule_family: str
    conclusion_config: Config
    completed: Tuple[BsJudgment, ...]
    pending: Config
    bindings: Any = None  # language-private, hashable

    @property
    def index(self) -> int:
        """1-based index of the pending premise."""
        return len(self.completed) + 1

    def extend(
        self,
        result: ResultVal,
        next_config: Config,
        *,
        rule_family: str | None = None,
        bindings: Any = _KEEP,
    ) -> "Activation":
        """Record ``pending => result`` and demand ``next_config``."""
        return Activation(
            rule_family if rule_family is not None else self.rule_family,
            self.conclusion_config,
            self.completed + (BsJudgment(self.pending, result),),
            next_config,
            self.bindings if bindings is _KEEP else bindings,
        )


@node
class Axiom:
    result: ResultVal
    rule: str = "axiom"


@node
class FirstPremise:
    config: Config
    activation: Activation


StartStep = Union[Axiom, FirstPremise]


@node
class Finished:
    result: ResultVal
    rule: str | None = None


@node
class Demand:
    config: Config
    activation: Activation


Continuation = Union[Finished, Demand]

# the answers that conclude the queried configuration
COMPLETIONS = (Axiom, Finished)


class OracleContractError(Exception):
    """An oracle answer violated the activation or premise-bound contract."""


class LanguageSemantics(ABC):
    """A big-step semantics exposed as a rule oracle.

    Implementations must behave as pure functions of their arguments
    (class tables and similar are read-only after construction), so
    branches can be explored concurrently and replays are faithful.
    """

    @abstractmethod
    def start(self, config: Config) -> Sequence[StartStep]:
        """All ways to begin evaluating ``config``; empty iff no rule concludes it."""

    @abstractmethod
    def advance(self, activation: Activation, result: ResultVal) -> Sequence[Continuation]:
        """All ways to continue after the pending premise produced ``result``."""

    @abstractmethod
    def premise_bound(self, config: Config) -> int:
        """Upper bound on premise counts of rules concluding ``config``."""

    def show_config(self, config: Config) -> str:
        return str(config)

    def show_configs(self, configs: Sequence[Config]) -> List[str]:
        """``show_config`` of each of ``configs``, for one document."""
        return [self.show_config(c) for c in configs]

    def show_result(self, result: ResultVal) -> str:
        return str(result)


def checked_start(sem: LanguageSemantics, config: Config) -> Tuple[StartStep, ...]:
    """The distinct answers of ``sem.start(config)``, checked.

    Every ``FirstPremise`` must pass ``check_first_premise``.
    """
    answers = sem.start(config)
    # most answers are a tuple of at most one item, which has no duplicate
    if type(answers) is not tuple or len(answers) > 1:
        answers = dedup(answers)
    for s in answers:
        if not isinstance(s, Axiom):
            check_first_premise(config, s)
    return answers


def check_first_premise(config: Config, step: FirstPremise) -> None:
    """Raise unless the activation of ``step``, a ``start(config)`` answer,
    concludes ``config``, has no completed premise and pends on the
    demanded configuration."""
    act = step.activation
    # a tuple compare matches items by identity first, without ``__ne__``
    if act.completed or (act.conclusion_config, act.pending) != (config, step.config):
        raise OracleContractError(f"start activation malformed for {config!r}")


def checked_advance(sem: LanguageSemantics, act: Activation,
                    result: ResultVal) -> Tuple[Continuation, ...]:
    """The distinct answers of ``sem.advance(act, result)``, checked.

    Every ``Demand`` must pass ``check_demand``, and the demanded premise
    must not exceed the premise bound of its conclusion.
    """
    config = act.conclusion_config
    answers = sem.advance(act, result)
    if type(answers) is not tuple or len(answers) > 1:
        answers = dedup(answers)
    for c in answers:
        if isinstance(c, Demand):
            check_demand(act, result, c)
            if c.activation.index > sem.premise_bound(config):
                raise OracleContractError(f"premise bound exceeded for {config!r}")
    return answers


def check_demand(act: Activation, result: ResultVal, step: Demand) -> None:
    """Raise unless the activation of ``step``, an ``advance(act, result)``
    answer, extends ``act`` by ``act.pending => result``, keeps its
    conclusion and pends on the demanded configuration."""
    nxt, config = step.activation, act.conclusion_config
    expected = (act.completed + (BsJudgment(act.pending, result),), config, step.config)
    if (nxt.completed, nxt.conclusion_config, nxt.pending) != expected:
        raise OracleContractError(f"advance activation malformed for {config!r}")


__all__ = [
    "COMPLETIONS",
    "Activation",
    "Axiom",
    "BsJudgment",
    "Config",
    "Continuation",
    "Demand",
    "Finished",
    "FirstPremise",
    "LanguageSemantics",
    "OracleContractError",
    "ResultVal",
    "StartStep",
    "check_demand",
    "check_first_premise",
    "checked_advance",
    "checked_start",
]
