"""Property tests on random closed lambda terms deeper than the corpus,
and on random inference systems larger than brute force can check."""
from collections import Counter
from itertools import product
from operator import itemgetter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bigstep.extensions import (STUCK_TRACE, TIMEOUT, InfTrace, divergence_certificate_check,
                                evaluate, trace_oracle, wrong_oracle)
from bigstep.fj import (EMPTY_MEMORY, IMP_TABLE, Memory, ObjState, memory_sigma,
                        memory_well_typed)
from bigstep.fj.typing import sigma_extends
from bigstep.inference import (
    CoinductionCheck,
    FiniteRule,
    GeneralizedIS,
    InferenceSystem,
    bounded_coinduction_check,
    interp_coinductive,
    interp_corules,
    interp_inductive,
    system_from_rules,
)
from bigstep.lam import (OMEGA_BODY, lambda_semantics, parse_expr, parse_type,
                         show_expr, show_type)
from bigstep.lam.corpus import ANNOTATION_ALPHABET, MAX_LITERAL
from bigstep.lam.semantics import STRATEGIES, _Exhausted, direct_results
from bigstep.lam.syntax import Abs, App, Choice, Nat, Succ, Var
from bigstep.lam.types import NAT, TArrow, TRec, TVar
from bigstep.pet import (
    START,
    Converged,
    DivergenceCertificate,
    Diverges,
    OutOfFuel,
    Stuck,
    StuckInfo,
    StuckKind,
    _explore,
    _Frame,
    _outcome_key,
    active_path,
    initial_tree,
    run_exhaustive,
    step,
)
from bigstep.predicates import (AuditReport, Condition, IndexedPredicate, Violation,
                                _stuck_violation, soundness_may_audit, soundness_must_audit)
from bigstep.rational import RationalList
from bigstep.results import build, diverging

SEMS = [lambda_semantics(s) for s in STRATEGIES]
FUEL = 60


@st.composite
def closed_terms(draw, depth=6, scope=()):
    """Terms of AST depth <= ``depth`` over the corpus constructors.

    Half of the leaves are ``OMEGA_BODY`` and some applications apply a
    term to itself, so that runs often diverge by cycles of more than
    one configuration, such as ``(\\x. succ (x x)) (\\x. succ (x x))``.
    """
    kinds = (["app", "self", "choice", "succ", "abs"] if depth >= 2 else []) + ["leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        atoms = [Nat(k) for k in range(MAX_LITERAL + 1)] + [Var(x) for x in scope]
        return draw(st.just(OMEGA_BODY) | st.sampled_from(atoms))
    if kind == "succ":
        return Succ(draw(closed_terms(depth - 1, scope)))
    if kind == "abs":
        fresh = f"x{len(scope)}"
        return Abs(fresh, draw(st.sampled_from(ANNOTATION_ALPHABET)),
                   draw(closed_terms(depth - 1, scope + (fresh,))))
    left = draw(closed_terms(depth - 1, scope))
    if kind == "self":
        return App(left, left)
    right = draw(closed_terms(depth - 1, scope))
    return App(left, right) if kind == "app" else Choice(left, right)


def _path_scan(tree):
    """Certificate from a scan of the detection tree's active path.

    The fresh frontier repeats the deepest path configuration equal to it;
    the witness runs from there down to the frontier's parent.
    """
    path = active_path(tree)
    leaf = path[-1]
    if leaf.rule_family is not None:
        return None
    for i in range(len(path) - 2, -1, -1):
        if path[i].config == leaf.config:
            witness = tuple((e.config, e.rule_family, e.premise_index)
                            for e in path[i:-1])
            return DivergenceCertificate(witness, leaf.config)
    return None


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms())
def test_random_terms_certificates_and_results(e):
    try:
        expected = direct_results(e, depth=24)
    except _Exhausted:
        expected = None
    for sem in SEMS:
        for o in run_exhaustive(sem, e, FUEL):
            if isinstance(o, Diverges):
                assert divergence_certificate_check(sem, o.certificate, FUEL).passed
                assert o.certificate == _path_scan(o.tree)
            elif isinstance(o, Converged) and expected is not None:
                assert o.result in expected


def _reaches_cycle(entries, root):
    """Whether a depth-first search from ``root`` along the demand edges
    ``c -> p``, one per pair ``(c, _)`` pending on ``p``, meets a
    configuration still on its stack."""
    demands = {}
    for p, (_, waiting) in entries.items():
        for c, _ in waiting:
            demands.setdefault(c, []).append(p)
    on_stack, done = {root}, set()
    stack = [(root, iter(demands.get(root, ())))]
    while stack:
        c, edges = stack[-1]
        for p in edges:
            if p in on_stack:
                return True
            if p not in done:
                on_stack.add(p)
                stack.append((p, iter(demands.get(p, ()))))
                break
        else:
            stack.pop()
            on_stack.discard(c)
            done.add(c)
    return False


EVERYTHING = IndexedPredicate(lambda c: frozenset({"any"}), lambda r, i: True)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms())
def test_divergence_fixpoint_and_may_audit_equal_a_cycle_search(e):
    # at fuel 10 many tables spend their budget, so every verdict occurs
    for sem, fuel in product(SEMS, (FUEL, 10)):
        t = build(sem, [e], fuel)
        diverges = _reaches_cycle(t.entries, e)
        assert (e in diverging(t)) == diverges
        if t.entries[e][0] or diverges:
            verdict, violations = "progressing", []
        elif t.spent:
            verdict, violations = "timeout", []
        else:
            verdict, violations = "all-stuck", [Violation(Condition.MAY_PROGRESS, e)]
        report = soundness_may_audit(sem, EVERYTHING, [e], fuel)
        assert report.stats == Counter({"configs": 1, verdict: 1})
        assert report.violations == violations


def _per_member_audits(sem, corpus, fuel):
    """The must and may audits of ``EVERYTHING`` as loops over one table of
    ``fuel`` queries per member, and whether each member's table closed."""
    must, may, closed = AuditReport(), AuditReport(), True
    for e in corpus:
        t = build(sem, [e], fuel)
        closed = closed and not t.spent
        must.stats["configs"] += 1
        must.stats += Counter(converged=len(t.entries[e][0]), stuck=len(t.dead_ends),
                              timeout=int(bool(t.spent)))
        must.violations += [_stuck_violation(EVERYTHING, info) for info in t.dead_ends]
        if t.spent:
            must.inconclusive.append(e)
        may.stats["configs"] += 1
        if t.entries[e][0] or e in diverging(t):
            may.stats["progressing"] += 1
        elif t.spent:
            may.stats["timeout"] += 1
            may.inconclusive.append(e)
        else:
            may.stats["all-stuck"] += 1
            may.violations.append(Violation(Condition.MAY_PROGRESS, e))
    return must, may, closed


def _may_verdicts(report, corpus):
    stuck = {v.config for v in report.violations}
    return [("all-stuck" if e in stuck else "timeout" if e in report.inconclusive
             else "progressing") for e in corpus]


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(closed_terms(), min_size=1, max_size=5))
def test_corpus_table_agrees_with_one_table_per_member(corpus):
    # wherever each member's own table closes, so does the corpus table,
    # and the verdicts agree; elsewhere either report may settle members
    # the other leaves inconclusive, but never with opposite verdicts
    for sem, fuel in product(SEMS, (FUEL, 10)):
        ref_must, ref_may, closed = _per_member_audits(sem, corpus, fuel)
        must = soundness_must_audit(sem, EVERYTHING, corpus, fuel)
        may = soundness_may_audit(sem, EVERYTHING, corpus, fuel)
        verdicts, ref_verdicts = _may_verdicts(may, corpus), _may_verdicts(ref_may, corpus)
        if closed:
            assert verdicts == ref_verdicts
            assert not must.inconclusive and not may.inconclusive
            assert set(must.violations) == set(ref_must.violations)
            assert must.stats["converged"] == ref_must.stats["converged"]
        else:
            assert all({v, ref} != {"progressing", "all-stuck"}
                       for v, ref in zip(verdicts, ref_verdicts))


def _step_exhaustive(sem, e, fuel):
    """``run_exhaustive`` as a level-by-level loop over the public ``step``.

    Cycles are found by ``_path_scan`` on every successor; outcomes are
    kept once per kind and tree skeleton.
    """
    outcomes = {}

    def emit(o, tree):
        outcomes.setdefault((type(o), tree.skeleton()), o)

    frontier = [initial_tree(e)]
    steps = 0
    while frontier and steps < fuel:
        nxt = {}
        for t in frontier:
            succs = step(sem, t)
            if not succs:
                leaf = active_path(t)[-1]
                info = (StuckInfo(StuckKind.NO_RULE, leaf.config)
                        if leaf.rule_family is None else
                        StuckInfo(StuckKind.NO_CONTINUATION, leaf.config,
                                  leaf.rule_family, leaf.premise_index,
                                  leaf.node.children[-1].res))
                emit(Stuck(t, info.kind, steps, info), t)
            for s in succs:
                if s.is_complete:
                    emit(Converged(s.res, s, steps + 1), s)
                elif (cert := _path_scan(s)) is not None:
                    emit(Diverges(cert, s), s)
                else:
                    nxt.setdefault(s, None)
        frontier = list(nxt)
        steps += 1
    for t in frontier:
        emit(OutOfFuel(t), t)
    return tuple(outcomes.values())


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms())
def test_exhaustive_runs_equal_a_loop_over_step(e):
    for sem in SEMS:
        assert run_exhaustive(sem, e, FUEL) == _step_exhaustive(sem, e, FUEL)


def _merged_ends(sem, e, fuel):
    """Every end of the walk, sorted by steps and each kept unless an
    equal outcome came before it: ``run_exhaustive`` with every run keyed."""
    outcomes = {}
    ends = sorted(_explore(sem, [_Frame(e, START, ())], fuel), key=itemgetter(0))
    for _, o in ends:
        outcomes.setdefault(_outcome_key(o), o)
    return tuple(outcomes.values())


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms() | st.builds(Choice, closed_terms(5), closed_terms(5)))
def test_exhaustive_runs_equal_every_end_merged(e):
    for base in SEMS:
        for sem in (base, wrong_oracle(base), trace_oracle(base)):
            assert repr(run_exhaustive(sem, e, FUEL)) == repr(_merged_ends(sem, e, FUEL))


TYPE_NAMES = st.sampled_from(["t", "u"])
TYPES = st.recursive(
    st.just(NAT) | st.builds(TVar, TYPE_NAMES),
    lambda inner: st.builds(TArrow, inner, inner) | st.builds(TRec, TYPE_NAMES, inner),
    max_leaves=8)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms(), TYPES)
def test_show_then_parse_is_the_identity(e, t):
    assert parse_expr(show_expr(e)) == e
    assert parse_type(show_type(t)) == t


def _preorder_configs(tree):
    """The configurations of ``tree``, each node before its premises."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        out.append(node.config)
        todo.extend(reversed(node.children))
    return tuple(out)


def _cycle_trace(d):
    """The rational trace of a detected cycle, read off the detection tree.

    Each active-path node contributes its configuration and then the
    traces of its completed premises, each its subtree's configurations
    in pre-order; the fresh frontier closes the cycle.
    """
    path = active_path(d.tree)
    start = len(path) - 1 - len(d.certificate.witness)

    def contribution(entry):
        steps = [entry.config]
        for child in entry.node.children[:-1]:
            steps.extend(n.config for _, n in child.walk())
        return steps

    prefix = [c for e in path[:start] for c in contribution(e)]
    period = [c for e in path[start:-1] for c in contribution(e)]
    return InfTrace(tuple(prefix), tuple(period))


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms())
def test_traces_are_read_off_the_trees(e):
    for sem in SEMS:
        for o, value in evaluate(sem, e, FUEL, "trace", exhaustive=True):
            if isinstance(o, Converged):
                assert value.steps == _preorder_configs(o.tree)
            elif isinstance(o, Diverges):
                assert value == _cycle_trace(o)


def _oracle_value(o):
    """The trace oracle's value of its own outcome: a converged run's
    result, and a detected cycle's trace read off the extended activations
    on its active path, each its configuration and then the traces that
    its completed premises produced."""
    if isinstance(o, Converged):
        return o.result
    if isinstance(o, Diverges):
        path = active_path(o.tree)
        start = len(path) - 1 - len(o.certificate.witness)
        words = [(e.config,) + sum((j.result.steps for j in e.node.tag.completed), ())
                 for e in path[:-1]]
        return InfTrace(sum(words[:start], ()), sum(words[start:], ()))
    return STUCK_TRACE if isinstance(o, Stuck) else TIMEOUT


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms())
def test_trace_values_equal_the_trace_oracles(e):
    for sem in SEMS:
        values = tuple(v for _, v in evaluate(sem, e, FUEL, "trace", exhaustive=True))
        oracle_runs = run_exhaustive(trace_oracle(sem), e, FUEL)
        assert values == tuple(map(_oracle_value, oracle_runs))


# --- worklist fixpoints against reference round-robin loops ---------------


def _loop_inductive(sys, universe):
    members = set()
    changed = True
    while changed:
        changed = False
        for j in universe:
            if j in members:
                continue
            if any(premises <= members for premises in sys.premise_candidates(j)):
                members.add(j)
                changed = True
    return frozenset(members)


def _loop_coinductive(sys, universe):
    members = set(universe)
    changed = True
    while changed:
        changed = False
        for j in list(members):
            if not any(premises <= members for premises in sys.premise_candidates(j)):
                members.discard(j)
                changed = True
    return frozenset(members)


def _loop_corules(gis, universe):
    bound = _loop_inductive(gis.combined(), universe)
    inner = gis.rules.premise_candidates
    restricted = InferenceSystem(lambda j: inner(j) if j in bound else frozenset())
    return _loop_coinductive(restricted, universe)


def _loop_bounded_check(gis, X, universe):
    X = frozenset(X)
    bound = _loop_inductive(gis.combined(), universe)
    for j in X:
        if j not in bound:
            return CoinductionCheck(False, j, "boundedness")
    for j in X:
        if not any(premises <= X for premises in gis.rules.premise_candidates(j)):
            return CoinductionCheck(False, j, "consistency")
    return CoinductionCheck(True)


@st.composite
def corule_systems(draw):
    """Rules and corules over the universe ``0 .. n-1``, 10 <= n <= 60.

    Premises and conclusions range over three more judgments, outside the
    universe, so some rules can never fire.
    """
    n = draw(st.integers(10, 60))
    judgments = st.integers(0, n + 2)

    def system(premises, count):
        rule = st.builds(FiniteRule, st.frozensets(judgments, max_size=premises),
                         judgments)
        rules = draw(st.lists(rule, min_size=count // 2, max_size=count))
        return system_from_rules(rules)

    universe = frozenset(range(n))
    gis = GeneralizedIS(system(3, 2 * n), system(1, n // 2))
    X = draw(st.frozensets(st.sampled_from(range(n))))
    return gis, universe, X


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corule_systems())
def test_worklist_fixpoints_equal_round_robin_loops(case):
    gis, universe, X = case
    for sys in (gis.rules, gis.corules, gis.combined()):
        assert interp_inductive(sys, universe) == _loop_inductive(sys, universe)
        assert interp_coinductive(sys, universe) == _loop_coinductive(sys, universe)
    flex = interp_corules(gis, universe)
    assert flex == _loop_corules(gis, universe)
    for claim in (X, flex, X | flex):
        assert (bounded_coinduction_check(gis, claim, universe)
                == _loop_bounded_check(gis, claim, universe))


# --- the imperative-FJ store against a dict model --------------------------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B", "write"]),
                          st.integers(0, 99), st.integers(0, 99)), max_size=30))
def test_store_agrees_with_a_dict_model(ops):
    """Allocate ``A``s, ``B``s whose field ``f`` holds an ``A``, and write
    ``f``; the store and a dict from ids to states stay equal."""
    mem, model, next_id = EMPTY_MEMORY, {}, 0
    for op, i, j in ops:
        a_ids = [oid for oid, s in model.items() if s.cls == "A"]
        b_ids = [oid for oid, s in model.items() if s.cls == "B"]
        before = mem
        if op == "write" and a_ids and b_ids:
            oid, target = b_ids[i % len(b_ids)], a_ids[j % len(a_ids)]
            mem = mem.update_field(oid, 0, target)
            model[oid] = ObjState("B", (target,))
        elif op != "write":
            state = (ObjState("B", (a_ids[i % len(a_ids)],))
                     if op == "B" and a_ids else ObjState("A", ()))
            mem, oid = mem.allocate(state)
            assert oid == next_id
            model[oid], next_id = state, next_id + 1
        assert len(mem) == len(model)
        assert all(mem.get(oid) == s for oid, s in model.items())
        assert mem.get(-1) is None and mem.get(len(mem)) is None
        assert repr(mem) == "{" + ", ".join(
            f"{oid}->{s.cls}{s.fields}" for oid, s in sorted(model.items())) + "}"
        assert memory_well_typed(IMP_TABLE, mem)
        # with an A last, a wrapping -1 would find an A and pass
        for ref in (-1, len(mem) + 2):
            dangling = Memory(mem + (ObjState("B", (ref,)), ObjState("A", ())))
            assert not memory_well_typed(IMP_TABLE, dangling)
        assert sigma_extends(memory_sigma(before), memory_sigma(mem))


# --- infinite traces are rational lists ------------------------------------


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6),
       st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(1, 3), st.booleans())
def test_inf_trace_normalises_as_a_rational_list(prefix, period, repeats, rolls):
    period = tuple(period) * repeats  # not primitive when repeats > 1
    prefix = tuple(prefix) + (period[-1],) * rolls  # ends in the period's last
    trace, word = InfTrace(prefix, period), RationalList(prefix, period)
    assert (trace.prefix, trace.period) == (word.prefix, word.period)
    n = len(prefix) + 2 * len(period)
    assert trace.take(n) == word.take(n)
    assert trace != word and word != trace
