"""The depth-first explorer against copies of the loops it replaced.

The references below are the tuple-path runs as they were before the
explorer: persistent tuple paths, ``_expand`` and ``_successors`` with a
linear cycle scan, and ``_fold``.  ``run_first`` and ``run_history`` are
checked against the first-successor loop, ``run_exhaustive`` against the
breadth-first loop that merges outcomes by type and skeleton, and
``step`` against the folded successors.  Regression tests cover the
cycle index."""
from itertools import islice

import pytest

from bigstep.extensions import divergence_certificate_check
from bigstep.fj import (EMPTY_MEMORY, IMP_TABLE, INTEROP_TABLE, EnvConfig,
                        MemConfig, enumerate_fj, enumerate_impfj, fj_semantics,
                        impfj_semantics)
from bigstep.lam import OMEGA, enumerate_terms, lambda_semantics, parse_expr
from bigstep.lam.corpus import SELF_APPLY
from bigstep.lam.semantics import STRATEGIES
from bigstep.lam.syntax import Abs, App, Nat, Succ, Var
from bigstep.lam.types import NAT
from bigstep.oracle import (Activation, Axiom, BsJudgment, Finished, FirstPremise,
                            LanguageSemantics, OracleContractError)
from bigstep.pet import (
    START,
    UNKNOWN,
    Converged,
    DivergenceCertificate,
    Diverges,
    OutOfFuel,
    PartialEvalTree,
    Stuck,
    StuckInfo,
    StuckKind,
    active_path,
    initial_tree,
    run_exhaustive,
    run_first,
    run_history,
    step,
)
from bigstep.util import EMPTY_MAP, dedup
from test_pet import _Collide, _CollidingChain

FUEL = 120


# --- the tuple-path first-successor loop, as it was before the stack ------

class _Frame:
    __slots__ = ("config", "tag", "children", "chash")

    def __init__(self, config, tag, children, chash):
        self.config = config
        self.tag = tag
        self.children = children
        self.chash = chash


def _fresh(config):
    return _Frame(config, START, (), hash(config))


def _fold(path):
    tree = None
    for f in reversed(path):
        children = f.children if tree is None else f.children + (tree,)
        tree = PartialEvalTree(f.config, UNKNOWN, f.tag, children)
    return tree


def _expand(sem, path):
    top = path[-1]
    config = top.config
    if top.tag is START:
        answers = dedup(sem.start(config))
        if not answers:
            return (), StuckInfo(StuckKind.NO_RULE, config)
        for s in answers:
            if not isinstance(s, Axiom) and (s.activation.completed
                                             or s.activation.pending != s.config):
                raise OracleContractError(
                    f"start activation malformed for {config!r}")
    else:
        act = top.tag
        result = top.children[-1].res
        answers = dedup(sem.advance(act, result))
        if not answers:
            return (), StuckInfo(StuckKind.NO_CONTINUATION, config,
                                 act.rule_family, len(top.children), result)
        expected = act.completed + (BsJudgment(act.pending, result),)
        for c in answers:
            if isinstance(c, Finished):
                continue
            nxt = c.activation
            if (nxt.completed != expected
                    or nxt.conclusion_config != act.conclusion_config
                    or nxt.pending != c.config):
                raise OracleContractError(
                    f"advance activation malformed for {config!r}")
            if len(top.children) + 1 > sem.premise_bound(config):
                raise OracleContractError(
                    f"premise bound exceeded for {config!r}")
    return _successors(path, answers), None


def _successors(path, answers):
    top = path[-1]
    below = path[:-1]
    for a in answers:
        if isinstance(a, (Axiom, Finished)):
            rule = a.rule if a.rule is not None else top.tag.rule_family
            done = PartialEvalTree(top.config, a.result, rule, top.children)
            if below:
                f = below[-1]
                yield below[:-1] + (_Frame(f.config, f.tag, f.children + (done,),
                                           f.chash),), None
            else:
                yield done, None
            continue
        fresh = _fresh(a.config)
        succ = below + (_Frame(top.config, a.activation, top.children, top.chash),
                        fresh)
        cert = None
        for i in range(len(path) - 1, -1, -1):
            f = path[i]
            if f.chash == fresh.chash and f.config == fresh.config:
                cert = DivergenceCertificate(tuple(
                    (g.config, g.tag.rule_family, len(g.children) + 1)
                    for g in succ[i:-1]), fresh.config)
                break
        yield succ, cert


def _reference_first(sem, config, fuel, on_tree=None):
    frontier = [(_fresh(config),)]
    steps = 0
    while frontier and steps < fuel:
        nxt = []
        for path in frontier:
            succs, stuck = _expand(sem, path)
            if stuck is not None:
                return Stuck(_fold(path), stuck.kind, steps, stuck)
            for s, cert in islice(succs, 1):
                done = isinstance(s, PartialEvalTree)
                tree = s if done else _fold(s)
                if on_tree is not None:
                    on_tree(tree)
                if done:
                    return Converged(s.res, s, steps + 1)
                if cert is not None:
                    return Diverges(cert, tree)
                nxt.append(s)
        frontier = nxt
        steps += 1
    return OutOfFuel(_fold(frontier[0]))


def _reference_history(sem, config, fuel):
    history = [initial_tree(config)]
    return history, _reference_first(sem, config, fuel, history.append)


def _skeleton(t):
    res = "?" if t.res is UNKNOWN else ("!", t.res)
    return (t.config, res, tuple(_skeleton(c) for c in t.children))


def _reference_exhaustive(sem, config, fuel):
    outcomes = {}

    def emit(o):
        tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
        outcomes.setdefault((type(o), _skeleton(tree)), o)

    frontier = [(_fresh(config),)]
    steps = 0
    while frontier and steps < fuel:
        nxt = []
        for path in frontier:
            succs, stuck = _expand(sem, path)
            if stuck is not None:
                emit(Stuck(_fold(path), stuck.kind, steps, stuck))
                continue
            for s, cert in succs:
                if isinstance(s, PartialEvalTree):
                    emit(Converged(s.res, s, steps + 1))
                elif cert is not None:
                    emit(Diverges(cert, _fold(s)))
                else:
                    nxt.append(s)
        frontier = nxt
        steps += 1
    for path in frontier:
        emit(OutOfFuel(_fold(path)))
    return tuple(outcomes.values())


def _unfold(t):
    path = active_path(t)
    top = len(path) - 1
    return tuple(_Frame(e.config, e.node.tag,
                        e.node.children if i == top else e.node.children[:-1],
                        hash(e.config))
                 for i, e in enumerate(path))


def _reference_step(sem, t):
    if t.is_complete:
        return ()
    succs, _ = _expand(sem, _unfold(t))
    return tuple(s if isinstance(s, PartialEvalTree) else _fold(s) for s, _ in succs)


# --- differential tests -----------------------------------------------------

def _assert_same_outcome(new, old):
    assert repr(new) == repr(old)
    assert getattr(new, "steps", None) == getattr(old, "steps", None)
    assert getattr(new, "certificate", None) == getattr(old, "certificate", None)


def _check_corpus(sem, configs, fuel):
    for c in configs:
        _assert_same_outcome(run_first(sem, c, fuel),
                             _reference_first(sem, c, fuel))
        history, outcome = run_history(sem, c, fuel)
        ref_history, ref_outcome = _reference_history(sem, c, fuel)
        _assert_same_outcome(outcome, ref_outcome)
        assert len(history) == len(ref_history)
        for t, ref in zip(history, ref_history):
            assert t == ref and repr(t) == repr(ref)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_first_runs_equal_the_tuple_path_loop_on_lambda_terms(strategy):
    _check_corpus(lambda_semantics(strategy), enumerate_terms(3) + (OMEGA,), FUEL)


def test_first_runs_equal_the_tuple_path_loop_on_fj_terms():
    _check_corpus(fj_semantics(INTEROP_TABLE),
                  [EnvConfig(EMPTY_MAP, e) for e in enumerate_fj(INTEROP_TABLE, 3)],
                  150)


def test_first_runs_equal_the_tuple_path_loop_on_impfj_terms():
    _check_corpus(impfj_semantics(IMP_TABLE),
                  [MemConfig(EMPTY_MEMORY, e) for e in enumerate_impfj(IMP_TABLE, 3)],
                  200)


def _check_exhaustive(sem, configs, fuel):
    for c in configs:
        new = run_exhaustive(sem, c, fuel)
        ref = _reference_exhaustive(sem, c, fuel)
        assert len(new) == len(ref)
        for n, r in zip(new, ref):
            _assert_same_outcome(n, r)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exhaustive_runs_equal_the_breadth_first_loop_on_lambda_terms(strategy):
    _check_exhaustive(lambda_semantics(strategy), enumerate_terms(3) + (OMEGA,),
                      FUEL)


def test_exhaustive_runs_equal_the_breadth_first_loop_on_fj_terms():
    _check_exhaustive(fj_semantics(INTEROP_TABLE),
                      [EnvConfig(EMPTY_MAP, e)
                       for e in enumerate_fj(INTEROP_TABLE, 3)], 150)


def test_exhaustive_runs_equal_the_breadth_first_loop_on_impfj_terms():
    _check_exhaustive(impfj_semantics(IMP_TABLE),
                      [MemConfig(EMPTY_MEMORY, e)
                       for e in enumerate_impfj(IMP_TABLE, 3)], 200)


@pytest.mark.parametrize("n", [30, -1])
def test_exhaustive_runs_equal_the_breadth_first_loop_on_colliding_hashes(n):
    # every configuration hashes to 0, so one shadow chain holds the path
    _check_exhaustive(_CollidingChain(), [_Collide(n)], 100)


class _StopOrLoop(LanguageSemantics):
    """``n`` is an axiom or demands itself, and ``n > 0`` may also demand
    ``n - 1``; a finished premise adds one to its result."""

    def start(self, config):
        answers = (Axiom(0), FirstPremise(config, Activation("loop", config, (), config)))
        if config > 0:
            down = config - 1
            answers += (FirstPremise(down, Activation("down", config, (), down)),)
        return answers

    def advance(self, activation, result):
        return (Finished(result + 1),)

    def premise_bound(self, config):
        return 1


def test_exhaustive_runs_find_cycles_through_a_frame_whose_completion_was_undone():
    # every frame first completes as an axiom; the walk undoes that
    # completion and then demands the frame's own configuration, which
    # must close a cycle at once
    _check_exhaustive(_StopOrLoop(), range(5), 30)
    outs = run_exhaustive(_StopOrLoop(), 2, 30)
    assert [o.result if isinstance(o, Converged) else o.certificate.witness
            for o in outs] == [0, ((2, "loop", 1),), ((1, "loop", 1),), 1,
                               ((0, "loop", 1),), 2]


def _assert_same_successors(sem, t):
    new, ref = step(sem, t), _reference_step(sem, t)
    assert new == ref and repr(new) == repr(ref)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_step_equals_the_folded_reference_successors(strategy):
    sem = lambda_semantics(strategy)
    cycles = 0
    for e in enumerate_terms(3) + (OMEGA,):
        history, outcome = run_history(sem, e, FUEL)
        for t in history:
            _assert_same_successors(sem, t)
        if isinstance(outcome, Diverges):
            configs = [p.config for p in active_path(outcome.tree)]
            assert len(set(configs)) < len(configs)
            _assert_same_successors(sem, outcome.tree)
            cycles += 1
    assert cycles


# --- the configuration index ------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("text, result", [("(\\x:nat. succ 0) (succ 0)", 1),
                                          ("(\\x:nat. succ (succ 0)) (succ 0)", 2)])
def test_a_configuration_demanded_again_after_it_completed_is_no_cycle(
        strategy, text, result):
    # ``succ 0`` is demanded as the argument and completes; the body demands
    # it again, at the argument's depth or one deeper: it must have left the
    # index when it completed
    sem = lambda_semantics(strategy)
    e = parse_expr(text)
    out = run_first(sem, e, FUEL)
    assert isinstance(out, Converged) and out.result == Nat(result)
    _assert_same_outcome(out, _reference_first(sem, e, FUEL))


def _three_cycle():
    """``W W`` for ``W = \\x. (\\y. (\\z. x x) 0) 0``: ``W W`` demands
    ``(\\y. ...) 0``, which demands ``(\\z. W W) 0``, which demands ``W W``."""
    body = App(Abs("y", NAT, App(Abs("z", NAT, App(Var("x"), Var("x"))), Nat(0))),
               Nat(0))
    w = Abs("x", SELF_APPLY, body)
    return App(w, w)


@pytest.mark.parametrize("loop, entries", [(OMEGA, 1), (_three_cycle(), 3)])
def test_a_cycle_on_top_of_a_deep_stack_is_found(loop, entries):
    sem = lambda_semantics()
    e = loop
    for _ in range(2000):
        e = Succ(e)
    out = run_first(sem, e, 10_000)
    assert isinstance(out, Diverges)
    assert len(out.certificate.witness) == entries
    assert out.certificate.witness[0] == (loop, "app", 3)
    assert out.certificate.entry == loop
    assert out.certificate == _reference_first(sem, e, 10_000).certificate
    assert divergence_certificate_check(sem, out.certificate, FUEL).passed
