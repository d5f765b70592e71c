"""Stepper behaviour: the identity-application golden run, tree order,
active paths, structural invariants, and divergence certificates."""
import random
from dataclasses import dataclass

import pytest

from bigstep import pet
from bigstep.extensions import Ok, divergence_certificate_check, evaluate
from bigstep.fj import (EMPTY_MEMORY, IMP_TABLE, INTEROP_TABLE, EnvConfig, MemConfig,
                        enumerate_fj, enumerate_impfj, fj_semantics, impfj_semantics)
from bigstep.lam import (
    NAT, OMEGA, OMEGA_BODY, enumerate_terms, lambda_semantics, parse_expr, typed_corpus)
from bigstep.lam.semantics import STRATEGIES
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var
from bigstep.oracle import Activation, Axiom, Finished, FirstPremise
from bigstep.oracle import LanguageSemantics
from bigstep.util import EMPTY_MAP, dedup
from bigstep.pet import (
    UNKNOWN,
    Converged,
    Diverges,
    OutOfFuel,
    PartialEvalTree,
    Stuck,
    StuckKind,
    active_path,
    check_pet_invariants,
    initial_tree,
    run,
    run_exhaustive,
    run_first,
    run_history,
    step,
    tree_leq,
)

SEM = lambda_semantics()
IDENTITY_APP = parse_expr("(\\x:nat. x) 3")


def _leaf(cfg):
    return (cfg, "?", ())


def _done(cfg, res, children=()):
    return (cfg, ("!", res), children)


def test_identity_application_golden_sequence():
    fn, n = IDENTITY_APP.fn, IDENTITY_APP.arg
    history, outcome = run_history(SEM, IDENTITY_APP, 20)
    assert isinstance(outcome, Converged)
    assert outcome.result == n
    assert outcome.steps == 7
    done_fn = _done(fn, fn)
    done_n = _done(n, n)
    expected = [
        _leaf(IDENTITY_APP),
        (IDENTITY_APP, "?", (_leaf(fn),)),
        (IDENTITY_APP, "?", (done_fn,)),
        (IDENTITY_APP, "?", (done_fn, _leaf(n))),
        (IDENTITY_APP, "?", (done_fn, done_n)),
        (IDENTITY_APP, "?", (done_fn, done_n, _leaf(n))),
        (IDENTITY_APP, "?", (done_fn, done_n, done_n)),
        _done(IDENTITY_APP, n, (done_fn, done_n, done_n)),
    ]
    assert [t.skeleton() for t in history] == expected


def test_initial_tree_shape():
    t = initial_tree(OMEGA)
    assert t.config == OMEGA and t.res is UNKNOWN and not t.children
    assert initial_tree(Nat(3)).skeleton() == _leaf(Nat(3))


def test_complete_trees_are_irreducible():
    _, outcome = run_history(SEM, Nat(3), 5)
    assert isinstance(outcome, Converged)
    assert step(SEM, outcome.tree) == ()


def test_stuck_kinds():
    out = run_first(SEM, Var("x"), 10)
    assert isinstance(out, Stuck) and out.kind is StuckKind.NO_RULE
    out = run_first(SEM, parse_expr("0 0"), 10)
    assert isinstance(out, Stuck) and out.kind is StuckKind.NO_CONTINUATION
    assert out.info.rule_family == "app" and out.info.premise_index == 1
    assert out.info.result == Nat(0)


def test_omega_diverges_with_certificate():
    out = run_first(SEM, OMEGA, 50)
    assert isinstance(out, Diverges)
    assert out.certificate.witness == ((OMEGA, "app", 3),)
    assert out.certificate.entry == OMEGA
    check = divergence_certificate_check(SEM, out.certificate, 50)
    assert check.passed


def test_exhaustive_choice_results():
    outs = run_exhaustive(SEM, parse_expr("1 (+) 2"), 20)
    results = {o.result for o in outs if isinstance(o, Converged)}
    assert results == {Nat(1), Nat(2)}
    assert all(isinstance(o, Converged) for o in outs)


def test_exhaustive_deduplicates_identical_branches():
    outs = run_exhaustive(SEM, parse_expr("1 (+) 1"), 20)
    assert [o.result for o in outs if isinstance(o, Converged)] == [Nat(1)]


def test_determinism_on_choice_free_terms():
    rng = random.Random(5)
    corpus = [e for e in typed_corpus(3) if "Choice" not in repr(e)]
    for e in rng.sample(corpus, 150):
        assert len(run_exhaustive(SEM, e, 100)) == 1


def test_out_of_fuel():
    out = run_first(SEM, OMEGA, 3)
    assert isinstance(out, OutOfFuel)
    with pytest.raises(ValueError):
        run_first(SEM, OMEGA, 0)


def test_run_dispatch():
    assert isinstance(run(SEM, Nat(1), 5), Converged)
    assert isinstance(run(SEM, Nat(1), 5, "exhaustive"), tuple)
    with pytest.raises(ValueError):
        run(SEM, Nat(1), 5, "sideways")


def _histories(sample_size=250, fuel=100):
    rng = random.Random(11)
    corpus = typed_corpus(3)
    picked = rng.sample(corpus, sample_size)
    out = []
    for e in picked:
        history, _ = run_history(SEM, e, fuel)
        out.append(history)
    return out


def test_step_strictly_increases_tree_order():
    pairs = 0
    for history in _histories():
        for a, b in zip(history, history[1:]):
            assert tree_leq(a, b)
            assert a.skeleton() != b.skeleton()
            pairs += 1
        if pairs >= 1000:
            break
    assert pairs >= 1000


def test_order_implies_reachability():
    rng = random.Random(23)
    checked = 0
    for history in _histories(40):
        if len(history) < 2:
            continue
        for _ in range(6):
            i = rng.randrange(len(history) - 1)
            j = rng.randrange(i + 1, len(history))
            src, dst = history[i], history[j]
            assert tree_leq(src, dst)
            frontier = [src]
            found = False
            for _ in range(j - i + 1):
                if any(t == dst for t in frontier):
                    found = True
                    break
                frontier = [s for t in frontier for s in step(SEM, t)]
            assert found or src == dst
            checked += 1
            if checked >= 200:
                return
    assert checked >= 100


def test_tree_leq_is_a_partial_order_on_run_histories():
    rng = random.Random(99)
    for history in _histories(25):
        sample = history if len(history) < 8 else rng.sample(history, 8)
        for a in sample:
            for b in sample:
                if tree_leq(a, b) and tree_leq(b, a):
                    assert a.skeleton() == b.skeleton()  # antisymmetry
                for c in sample:
                    if tree_leq(a, b) and tree_leq(b, c):
                        assert tree_leq(a, c)  # transitivity


def test_tree_leq_reflexive_and_complete_maximal():
    history, outcome = run_history(SEM, IDENTITY_APP, 20)
    for t in history:
        assert tree_leq(t, t)
    complete = outcome.tree
    for t in history[:-1]:
        assert not tree_leq(complete, t)
    assert tree_leq(initial_tree(IDENTITY_APP), complete)


def test_active_path_shapes():
    t = initial_tree(OMEGA)
    assert [e.config for e in active_path(t)] == [OMEGA]
    history, _ = run_history(SEM, OMEGA, 6)
    after3 = active_path(history[3])
    assert [e.config for e in after3] == [OMEGA, OMEGA_BODY]
    after5 = active_path(history[5])
    assert [e.config for e in after5] == [OMEGA, OMEGA]
    assert after5[0].rule_family == "app" and after5[0].premise_index == 3
    assert after5[1].rule_family is None


def test_active_path_mid_rule_frontier():
    # identity application after 4 steps: both finished premises, frontier
    # is the root itself awaiting an advance
    history, _ = run_history(SEM, IDENTITY_APP, 20)
    path = active_path(history[4])
    assert len(path) == 1
    assert path[0].premise_index == 2


def test_active_path_rejects_complete_trees():
    _, outcome = run_history(SEM, Nat(2), 5)
    with pytest.raises(ValueError):
        active_path(outcome.tree)


def test_pet_invariants_hold_along_runs():
    for history in _histories(30):
        for t in history:
            assert check_pet_invariants(t) is None


def test_pet_invariants_reject_two_unknown_siblings():
    c = parse_expr("1 (+) 2")
    fake = Activation("app", c, (), Nat(1))
    bad = PartialEvalTree(c, UNKNOWN, fake,
                          (initial_tree(Nat(1)), initial_tree(Nat(2))))
    result = check_pet_invariants(bad)
    assert result is not None and result[1] == "more than one ? at a level"


def test_pet_invariants_reject_complete_parent_over_unknown():
    c = parse_expr("succ 1")
    bad = PartialEvalTree(c, Nat(2), "succ",
                          (initial_tree(Nat(1)),))
    result = check_pet_invariants(bad)
    assert result is not None


def test_complete_node_holds_its_result_and_rule_name():
    out = run_first(SEM, IDENTITY_APP, 20)
    assert isinstance(out, Converged)
    assert out.tree.res == Nat(3) and out.tree.tag == "app"
    assert all(type(c.tag) is str and c.res == c.config for c in out.tree.children)


class _OddResults(LanguageSemantics):
    """Two axioms whose results are ``None`` and the string ``"?"``."""

    def start(self, config):
        return (Axiom(None, rule="none"), Axiom("?", rule="mark"))

    def advance(self, activation, result):
        return ()

    def premise_bound(self, config):
        return 0


def test_results_none_and_question_mark_complete_a_tree():
    outs = run_exhaustive(_OddResults(), "c", 5, validate=True)
    assert [type(o) for o in outs] == [Converged, Converged]
    assert [o.result for o in outs] == [None, "?"]
    for o, shown in zip(outs, ("None", "'?'")):
        assert o.tree.res is o.result and o.tree.is_complete
        assert check_pet_invariants(o.tree) is None
        assert repr(o.tree) == f"<'c' => {shown}>"
    assert repr(initial_tree("c")) == "<'c' => ?>"


def test_validate_checks_every_tree_of_an_exhaustive_run(monkeypatch):
    monkeypatch.setattr(pet, "check_pet_invariants",
                        lambda t: ((), "reported by the test"))
    with pytest.raises(AssertionError, match="reported by the test"):
        run_exhaustive(SEM, IDENTITY_APP, 20, validate=True)
    (outcome,) = run_exhaustive(SEM, IDENTITY_APP, 20)
    assert isinstance(outcome, Converged)


def test_premise_bound_is_respected():
    # spot-check the declared bounds against observed runs
    assert SEM.premise_bound(IDENTITY_APP) == 3
    assert SEM.premise_bound(Nat(1)) == 0
    assert lambda_semantics("app-late").premise_bound(IDENTITY_APP) == 4
    history, _ = run_history(SEM, IDENTITY_APP, 20)
    for t in history:
        for _, node in t.positions():
            assert len(node.children) <= SEM.premise_bound(node.config)


class _FirstAnswer(LanguageSemantics):
    """``sem`` cut down to its first answer to every query."""

    def __init__(self, sem):
        self.sem = sem

    def start(self, config):
        return dedup(self.sem.start(config))[:1]

    def advance(self, activation, result):
        return dedup(self.sem.advance(activation, result))[:1]

    def premise_bound(self, config):
        return self.sem.premise_bound(config)


def test_first_successor_runs_build_only_the_kept_successor(monkeypatch):
    built = [0]

    class Counting(PartialEvalTree):
        __slots__ = ()

        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(pet, "PartialEvalTree", Counting)
    term = parse_expr("succ (succ (succ ((1 (+) 2) (+) (3 (+) 0))))")
    runs = []
    for sem in (SEM, _FirstAnswer(SEM)):
        built[0] = 0
        history, outcome = run_history(sem, term, 100)
        runs.append((history, outcome.result, built[0]))
    assert len(runs[0][0]) == 12 and runs[0][1] == Nat(4)
    # the full oracle's other answers must not cost a single tree
    assert runs[0] == runs[1]


@dataclass(frozen=True)
class _Collide:
    """A configuration whose hash tells nothing: every one hashes to 0."""
    n: int

    def __hash__(self):
        return 0


class _CollidingChain(LanguageSemantics):
    """``n > 0`` demands ``n - 1`` and adds one to its result, ``0`` is an
    axiom, and ``-1 -> -2 -> -3 -> -1`` is a loop of three configurations."""

    def start(self, config):
        n = config.n
        if n == 0:
            return (Axiom(0),)
        nxt = _Collide(n - 1 if n > 0 else -1 - (-n % 3))
        family = "down" if n > 0 else "loop"
        return (FirstPremise(nxt, Activation(family, config, (), nxt)),)

    def advance(self, activation, result):
        return (Finished(result + 1),)

    def premise_bound(self, config):
        return 1


def test_equal_hashes_close_no_false_cycle():
    sem = _CollidingChain()
    out = run_first(sem, _Collide(30), 100)
    assert isinstance(out, Converged) and out.result == 30 and out.steps == 61
    [out] = run_exhaustive(sem, _Collide(30), 100)
    assert isinstance(out, Converged) and out.result == 30
    out = run_first(sem, _Collide(2), 100)
    assert isinstance(out, Converged) and out.result == 2
    out = run_first(sem, _Collide(-1), 100)
    assert isinstance(out, Diverges)
    assert out.certificate.witness == tuple(
        (_Collide(n), "loop", 1) for n in (-1, -2, -3))
    assert out.certificate.entry == _Collide(-1)
    assert divergence_certificate_check(sem, out.certificate, 100).passed


def test_first_successor_runs_hash_no_tree(monkeypatch):
    def refuse(self):
        raise AssertionError("a first-successor run hashed a tree")

    monkeypatch.setattr(PartialEvalTree, "__hash__", refuse)
    for e, fuel in ((IDENTITY_APP, 20), (OMEGA, 50), (OMEGA, 3),
                    (parse_expr("succ (1 (+) 2)"), 20), (parse_expr("0 0"), 20)):
        run_first(SEM, e, fuel)
        run_history(SEM, e, fuel)
        for mode in ("wrong", "div", "trace", "total"):
            evaluate(SEM, e, fuel, mode)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_equal_choice_premises_are_one_rule(strategy):
    sem = lambda_semantics(strategy)
    for e in (Nat(0), OMEGA, parse_expr("\\x:nat. x"), parse_expr("succ 0")):
        assert len(dedup(sem.start(Choice(e, e)))) == 1
        assert len(dedup(sem.start(Choice(e, Nat(1))))) == 2
        assert len(dedup(sem.start(Choice(Nat(1), e)))) == 2


class _Counting(LanguageSemantics):
    """``sem`` counting every oracle query."""

    def __init__(self, sem):
        self.sem = sem
        self.queries = 0

    def start(self, config):
        self.queries += 1
        return self.sem.start(config)

    def advance(self, activation, result):
        self.queries += 1
        return self.sem.advance(activation, result)

    def premise_bound(self, config):
        return self.sem.premise_bound(config)


def _constant_function_applied(k, arg):
    """``(\\a0:nat. ... \\a{k-1}:nat. 0) arg ... arg``, built without the parser."""
    fn = Nat(0)
    for i in reversed(range(k)):
        fn = Abs(f"a{i}", NAT, fn)
    for _ in range(k):
        fn = App(fn, arg)
    return fn


def test_sequential_equal_choices_stay_one_branch():
    k = 12
    counts = []
    for arg in (Choice(Nat(0), Nat(0)), Nat(0)):
        sem = _Counting(SEM)
        [out] = run_exhaustive(sem, _constant_function_applied(k, arg), 1000)
        assert isinstance(out, Converged) and out.result == Nat(0)
        counts.append(sem.queries)
    assert counts[0] <= 2 * counts[1]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exhaustive_runs_hash_no_tree(monkeypatch, strategy):
    def refuse(self):
        raise AssertionError("an exhaustive run hashed a tree")

    monkeypatch.setattr(PartialEvalTree, "__hash__", refuse)
    sem = lambda_semantics(strategy)
    terms = random.Random(11).sample(enumerate_terms(3), 120) + [OMEGA]
    for e in terms:
        run_exhaustive(sem, e, 60)
        for mode in ("div", "trace", "total"):
            evaluate(sem, e, 60, mode, exhaustive=True)


def test_deep_single_end_runs_converge_and_fold_their_skeleton():
    # on a 2,000-deep spine a single-end exhaustive run converges, skeleton()
    # of its tree folds without recursion (it used to fail from about 600
    # nested ``succ``), and the wrong, div and total modes each give Ok(n)
    n = 2000
    e = Nat(0)
    for _ in range(n):
        e = Succ(e)
    [out] = run_exhaustive(SEM, e, 2 * n + 1)
    assert isinstance(out, Converged) and out.result == Nat(n)
    assert out.tree.skeleton()[:2] == (e, ("!", Nat(n)))
    for mode in ("wrong", "div", "total"):
        [(_, value)] = evaluate(SEM, e, 2 * n + 1, mode, exhaustive=True)
        assert value == Ok(Nat(n))


def _spine(n, leaf):
    e = leaf
    for _ in range(n):
        e = Succ(e)
    return e


def _positions_reference(t):
    """The pre-order positions as a recursive generator."""
    yield (), t
    for i, ch in enumerate(t.children):
        for pos, node in _positions_reference(ch):
            yield (i,) + pos, node


def _repr_reference(t):
    """The tree ``repr`` as a recursive function."""
    res = "?" if t.res is UNKNOWN else repr(t.res)
    if not t.children:
        return f"<{t.config!r} => {res}>"
    kids = " ".join(_repr_reference(c) for c in t.children)
    return f"<{t.config!r} => {res} [{kids}]>"


def test_positions_and_repr_equal_recursive_references():
    for e in enumerate_terms(3) + (OMEGA,):
        for o in run_exhaustive(SEM, e, 120):
            tree = o.frontier if isinstance(o, OutOfFuel) else o.tree
            assert list(tree.positions()) == list(_positions_reference(tree))
            assert repr(tree) == _repr_reference(tree)


def test_deep_diverging_outcome_prints():
    # the tree repr, and the repr of the terms in it, recursed once per
    # level and raised ``RecursionError`` on this outcome
    e = _spine(2000, OMEGA)
    out = run_first(SEM, e, 10_000)
    assert isinstance(out, Diverges)
    text = repr(out)
    assert text.startswith("Diverges(certificate=DivergenceCertificate(")
    assert f"tree=<{e!r} => ? [<" in text


def test_validation_is_fast_on_a_deep_spine():
    # ``positions`` re-yielded every node through each ancestor, so
    # validation was cubic in depth: this took minutes
    n = 600
    [out] = run_exhaustive(SEM, _spine(n, Nat(0)), 2 * n + 1, validate=True)
    assert isinstance(out, Converged) and out.result == Nat(n)


def test_tree_leq_on_a_deep_history():
    # ``tree_leq`` recursed once per level and raised ``RecursionError``
    history, out = run_history(SEM, _spine(600, Nat(0)), 2000)
    assert isinstance(out, Converged)
    before, last = history[-2:]
    assert tree_leq(before, last) and tree_leq(last, last)
    assert not tree_leq(last, before)


def _unknown_spine(n, bottom):
    """``n`` nested ``?`` nodes, each the only child of the one above,
    over ``bottom``."""
    t = bottom
    for d in range(n):
        t = PartialEvalTree(Nat(d), UNKNOWN, pet.START, (t,))
    return t


def test_validation_builds_no_position_per_node(monkeypatch):
    # ``check_pet_invariants`` walked ``positions()``, which copies a
    # position tuple for every node: quadratic in depth
    monkeypatch.setattr(PartialEvalTree, "positions",
                        lambda self: pytest.fail("validation walked positions()"))
    [out] = run_exhaustive(SEM, _spine(600, Nat(0)), 1201, validate=True)
    assert isinstance(out, Converged) and out.result == Nat(600)
    n = 2400
    leaf = initial_tree(Nat(0))
    under_done = PartialEvalTree(Nat(1), Nat(1), "x", (leaf,))
    two = PartialEvalTree(Nat(1), UNKNOWN, pet.START, (leaf, leaf))
    assert check_pet_invariants(_unknown_spine(n, under_done)) == (
        (0,) * (n + 1), "? child under complete parent")
    assert check_pet_invariants(_unknown_spine(n, two)) == (
        (0,) * n + (1,), "more than one ? at a level")
    assert check_pet_invariants(_unknown_spine(n, leaf)) is None


def test_deep_trees_compare_and_hash():
    # tree ``==`` and ``hash`` recursed once per level and raised
    # ``RecursionError`` on these trees
    n = 600
    o1, o2 = (run_first(SEM, _spine(n, Nat(0)), 3 * n) for _ in range(2))
    assert isinstance(o1, Converged) and o1.tree is not o2.tree
    assert o1.tree == o2.tree and hash(o1.tree) == hash(o2.tree)
    assert o1 == o2
    cut = run_first(SEM, _spine(n, Nat(0)), 2 * n)
    assert isinstance(cut, OutOfFuel) and cut.frontier != o1.tree


def _eq_reference(a, b):
    """The tree ``==`` as a recursive function."""
    return a is b or (
        isinstance(b, PartialEvalTree)
        and a.config == b.config and a.res == b.res and a.tag == b.tag
        and len(a.children) == len(b.children)
        and all(_eq_reference(x, y) for x, y in zip(a.children, b.children)))


def test_tree_equality_equals_the_recursive_reference():
    terms = random.Random(5).sample(enumerate_terms(3), 40) + [OMEGA]
    for e in terms:
        # two runs build separate trees; the trees of one history are
        # pairwise unequal, and each equals its twin in the other history
        (h1, o1), (h2, o2) = (run_history(SEM, e, 30) for _ in range(2))
        assert o1 == o2
        for i, a in enumerate(h1):
            for j, b in enumerate(h2):
                assert (a == b) is _eq_reference(a, b) is (i == j)
                if i == j:
                    assert a is not b and hash(a) == hash(b)
        assert h1[0] != h1[0].config


def test_single_end_exhaustive_runs_take_no_skeleton(monkeypatch):
    # a run with one end has nothing to merge, so it keys no outcome
    def refuse(o):
        raise AssertionError("a single-end run keyed its outcome")

    monkeypatch.setattr(pet, "_outcome_key", refuse)
    fj = fj_semantics(INTEROP_TABLE)
    for e in enumerate_fj(INTEROP_TABLE, 3):
        [_] = run_exhaustive(fj, EnvConfig(EMPTY_MAP, e), 150)
    imp = impfj_semantics(IMP_TABLE)
    for e in random.Random(3).sample(enumerate_impfj(IMP_TABLE, 3), 120):
        [_] = run_exhaustive(imp, MemConfig(EMPTY_MEMORY, e), 200)
    [out] = run_exhaustive(SEM, IDENTITY_APP, 20)
    assert isinstance(out, Converged) and out.result == Nat(3)


def test_deep_two_end_runs_merge_by_skeleton():
    # both ends of a choice under 2000 ``succ`` are keyed without recursion,
    # and the two outcomes stay apart, in step order
    n = 2000
    e = _spine(n, Choice(App(Abs("x", NAT, Var("x")), Nat(0)), Nat(0)))
    first, second = run_exhaustive(SEM, e, 10 * n)
    assert all(isinstance(o, Converged) and o.result == Nat(n) for o in (first, second))
    assert first.steps < second.steps


class _DeepTwoAxioms(LanguageSemantics):
    """``k`` demands ``k + 1`` by one rule up to ``depth``, which has two
    axioms with the same result and different rule names."""

    def __init__(self, depth):
        self.depth = depth

    def start(self, k):
        if k == self.depth:
            return (Axiom(0, rule="a"), Axiom(0, rule="b"))
        return (FirstPremise(k + 1, Activation("up", k, (), k + 1)),)

    def advance(self, activation, result):
        return (Finished(result),)

    def premise_bound(self, config):
        return 1


def test_deep_ends_of_one_shape_merge():
    # the two ends differ only in the leaf's rule name, so their keys
    # compare equal; a key nested once per tree level raised
    # ``RecursionError`` when compared
    [out] = run_exhaustive(_DeepTwoAxioms(2000), 0, 10_000)
    assert isinstance(out, Converged) and out.steps == 4001
    *_, (_, leaf) = out.tree.walk()
    assert leaf.config == 2000 and leaf.tag == "a"  # the first end is kept
