"""Inference-system fixpoints, the maxElem system, and brute-force checks."""
import random
from itertools import chain, combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bigstep import inference
from bigstep.cli import main
from bigstep.inference import (
    CoinductionCheck,
    FiniteRule,
    GeneralizedIS,
    InferenceSystem,
    Universe,
    UniverseOverflow,
    bounded_coinduction_check,
    interp_coinductive,
    interp_corules,
    interp_inductive,
    reachable_universe,
    system_from_rules,
)
from bigstep.maxelem import MaxElem, maxelem_gis, maxelem_rules
from bigstep.rational import RationalList, finite, periodic

L12 = periodic((), (1, 2))
L21 = periodic((), (2, 1))
EMPTY_SYS = InferenceSystem(lambda j: frozenset())


def test_reachable_universe_finite_list():
    # hand enumeration: max(1, y) = 2 forces y = 2, then the singleton axiom
    u = reachable_universe(maxelem_rules(), {MaxElem(finite(1, 2), 2)}, 100)
    assert u == frozenset({MaxElem(finite(1, 2), 2), MaxElem(finite(2), 2)})


def test_reachable_universe_no_rules():
    assert reachable_universe(EMPTY_SYS, {"j"}, 10) == frozenset({"j"})


def test_reachable_universe_periodic_list():
    # suffixes of a rational list are finitely many, so the closure is finite
    u = reachable_universe(maxelem_rules(), {MaxElem(L12, 2)}, 100)
    assert u == frozenset({
        MaxElem(L12, 2), MaxElem(L21, 2),
        MaxElem(L12, 0), MaxElem(L12, 1),
        MaxElem(L21, 0), MaxElem(L21, 1),
    })


def test_reachable_universe_overflow():
    counting = InferenceSystem(lambda j: frozenset({frozenset({j + 1})}))
    with pytest.raises(UniverseOverflow):
        reachable_universe(counting, {0}, 50)


def test_inductive_finite_list_golden():
    goal = MaxElem(finite(1, 2), 2)
    u = reachable_universe(maxelem_rules(), {goal}, 100)
    ind = interp_inductive(maxelem_rules(), u)
    assert MaxElem(finite(2), 2) in ind
    assert goal in ind


def test_inductive_trivial_cases():
    assert interp_inductive(maxelem_rules(), frozenset()) == frozenset()
    axiom_sys = system_from_rules([FiniteRule(frozenset(), "j")])
    assert interp_inductive(axiom_sys, {"j"}) == frozenset({"j"})


def test_coinductive_periodic_members():
    u = reachable_universe(maxelem_rules(), {MaxElem(L12, 2)}, 100)
    co = interp_coinductive(maxelem_rules(), u)
    assert MaxElem(L12, 2) in co
    # 5 is admitted by plain coinduction even though it is not in the list
    u5 = reachable_universe(maxelem_rules(), {MaxElem(L12, 5)}, 100)
    assert MaxElem(L12, 5) in interp_coinductive(maxelem_rules(), u5)
    # no rule concludes a judgment in the empty system
    assert interp_coinductive(EMPTY_SYS, {"j"}) == frozenset()


def _maxelem_universe(goal):
    gis = maxelem_gis()
    return gis, reachable_universe(gis.combined(), {goal}, 100)


def test_corules_golden_triple():
    gis, u2 = _maxelem_universe(MaxElem(L12, 2))
    assert MaxElem(L12, 2) in interp_corules(gis, u2)
    gis, u5 = _maxelem_universe(MaxElem(L12, 5))
    assert MaxElem(L12, 5) not in interp_corules(gis, u5)
    gis, u1 = _maxelem_universe(MaxElem(L12, 1))
    assert MaxElem(L12, 1) not in interp_corules(gis, u1)


def test_bounded_coinduction_pass_and_fail():
    gis, u = _maxelem_universe(MaxElem(L12, 2))
    X = frozenset({MaxElem(L12, 2), MaxElem(L21, 2)})
    check = bounded_coinduction_check(gis, X, u)
    assert check.passed
    assert X <= interp_corules(gis, u)

    gis, u5 = _maxelem_universe(MaxElem(L12, 5))
    bad = bounded_coinduction_check(gis, {MaxElem(L12, 5), MaxElem(L21, 5)}, u5)
    assert not bad.passed
    assert bad.reason == "boundedness"

    assert bounded_coinduction_check(gis, frozenset(), u5).passed


def _random_system(rng, size):
    universe = frozenset(range(size))
    rules = []
    for j in universe:
        for _ in range(rng.randint(0, 2)):
            premises = frozenset(rng.sample(sorted(universe), rng.randint(0, 3)))
            rules.append(FiniteRule(premises, j))
    return system_from_rules(rules), universe, rules


def _powerset(universe):
    xs = sorted(universe)
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


def _brute_force(sys, universe):
    closed, consistent = [], []
    for subset in _powerset(universe):
        s = frozenset(subset)
        if all(j in s
               for j in universe
               for pr in sys.premise_candidates(j) if pr <= s):
            closed.append(s)
        if all(any(pr <= s for pr in sys.premise_candidates(j)) for j in s):
            consistent.append(s)
    least = frozenset(universe).intersection(*closed) if closed else frozenset()
    largest = frozenset().union(*consistent) if consistent else frozenset()
    return least, largest


def test_fixpoints_match_brute_force_on_random_systems():
    rng = random.Random(20240817)
    for _ in range(5):
        sys, universe, _ = _random_system(rng, rng.randint(4, 8))
        least, largest = _brute_force(sys, universe)
        assert interp_inductive(sys, universe) == least
        assert interp_coinductive(sys, universe) == largest


def test_sandwich_and_degenerate_corules():
    rng = random.Random(77)
    for _ in range(8):
        sys, universe, rules = _random_system(rng, rng.randint(3, 7))
        cosys, _, _ = _random_system(rng, len(universe))
        gis = GeneralizedIS(sys, cosys)
        ind = interp_inductive(sys, universe)
        co = interp_coinductive(sys, universe)
        flex = interp_corules(gis, universe)
        assert ind <= flex <= co
        # a coaxiom for every judgment makes boundedness vacuous
        all_coaxioms = InferenceSystem(lambda j: frozenset({frozenset()}))
        assert interp_corules(GeneralizedIS(sys, all_coaxioms), universe) == co


def test_bounded_coinduction_passes_imply_membership():
    rng = random.Random(9)
    for _ in range(10):
        sys, universe, _ = _random_system(rng, rng.randint(3, 6))
        cosys, _, _ = _random_system(rng, len(universe))
        gis = GeneralizedIS(sys, cosys)
        flex = interp_corules(gis, universe)
        X = frozenset(rng.sample(sorted(universe), rng.randint(0, len(universe))))
        check = bounded_coinduction_check(gis, X, universe)
        if check.passed:
            assert X <= flex


def _query_counts(sys, universe):
    """premise_candidates queries made by each fixpoint over the universe."""
    counts = []
    for interp in (interp_inductive, interp_coinductive):
        asked = []
        counting = InferenceSystem(
            lambda j: asked.append(j) or sys.premise_candidates(j))
        interp(counting, universe)
        counts.append(len(asked))
    return counts


def test_fixpoints_query_each_judgment_once():
    period = tuple(range(20))
    goal = MaxElem(periodic((3,), period), 19)
    u = reachable_universe(maxelem_rules(), {goal}, 10_000)
    assert len(u) == 1 + 20 * 20  # the goal, then 20 rotations by 20 values
    assert max(_query_counts(maxelem_rules(), u)) <= len(u)

    rng = random.Random(31)
    sys, universe, _ = _random_system(rng, 40)
    assert max(_query_counts(sys, universe)) <= len(universe)


def _restricted_corules(gis, universe):
    """The corule interpretation as the gfp, over the whole universe, of
    the rules answering "no rules" outside the inductive bound."""
    bound = interp_inductive(gis.combined(), universe)
    inner = gis.rules.premise_candidates
    restricted = InferenceSystem(lambda j: inner(j) if j in bound else frozenset())
    return interp_coinductive(restricted, universe)


@st.composite
def digest_shaped_systems(draw):
    """``2n`` rules of up to three premises and ``n // 2`` corules of up to
    one, over the universe ``0 .. n-1`` and three judgments outside it."""
    n = draw(st.integers(10, 60))
    judgments = st.integers(0, n + 2)

    def system(premises, count):
        rule = st.builds(FiniteRule, st.frozensets(judgments, max_size=premises),
                         judgments)
        return system_from_rules(draw(st.lists(rule, min_size=count, max_size=count)))

    return GeneralizedIS(system(3, 2 * n), system(1, n // 2)), frozenset(range(n))


@st.composite
def maxelem_goals(draw):
    """``maxElem`` of a finite or periodic list of naturals below ``m`` with
    a claimed maximum near ``m``, with its premise-closed universe."""
    m = draw(st.integers(1, 8))
    items = st.lists(st.integers(0, m - 1), max_size=m + 1)
    lst = RationalList(tuple(draw(items)), tuple(draw(items)))
    goal = MaxElem(lst, draw(st.integers(max(m - 2, 0), m + 1)))
    gis = maxelem_gis()
    return gis, reachable_universe(gis.combined(), {goal}, 10_000)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(digest_shaped_systems(), maxelem_goals()))
def test_corules_equal_the_gfp_of_the_rules_restricted_to_the_bound(case):
    gis, universe = case
    assert interp_corules(gis, universe) == _restricted_corules(gis, universe)


# --- rule queries stream their premise sets ---------------------------------


def test_universe_overflows_as_soon_as_the_cap_is_passed():
    # the root has 10^7 rules; the closure passes the cap of 1000 at the
    # 1000th premise set, and drawing far past it would fail loudly here
    drawn = []

    def wide(j):
        if j != "root":
            return
        for k in range(10**7):
            assert len(drawn) <= 1001, "premise sets drawn past the cap"
            drawn.append(k)
            yield frozenset({k})

    for sys in (InferenceSystem(wide), InferenceSystem(wide).union(EMPTY_SYS),
                EMPTY_SYS.union(InferenceSystem(wide))):
        drawn.clear()
        with pytest.raises(UniverseOverflow):
            reachable_universe(sys, {"root"}, cap=1000)
        assert len(drawn) <= 1001


def test_corules_on_a_large_value_stops_at_the_cap(capsys):
    # (10^6)^omega = 10^6 has 10^6 + 1 rules; the cap of 1000 ends the closure
    assert main(["corules", "--goal", "(1000000)*=1000000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "premise closure exceeded cap 1000"


def _set_rule_candidates(j):
    """maxElem's rule query as a set of premise sets, built in full."""
    if not isinstance(j, MaxElem) or j.lst.is_empty:
        return frozenset()
    out = set()
    head, tail = j.lst.head, j.lst.tail
    if tail.is_empty:
        if j.value == head:
            out.add(frozenset())
    elif j.value == head:
        out.update(frozenset({MaxElem(tail, y)}) for y in range(j.value + 1))
    elif j.value > head:
        out.add(frozenset({MaxElem(tail, j.value)}))
    return frozenset(out)


def _set_coaxiom_candidates(j):
    if isinstance(j, MaxElem) and not j.lst.is_empty and j.lst.head == j.value:
        return frozenset({frozenset()})
    return frozenset()


@st.composite
def maxelem_queries(draw):
    """A ``maxElem`` judgment on an empty, finite, singleton or periodic
    list, claiming a value below, at or above its head, or another
    judgment."""
    items = st.lists(st.integers(0, 6), max_size=4)
    lst = RationalList(tuple(draw(items)), tuple(draw(items)))
    head = 3 if lst.is_empty else lst.head
    value = draw(st.integers(max(head - 2, 0), head + 2))
    return draw(st.sampled_from([MaxElem(lst, value), value, ("maxElem", lst)]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(maxelem_queries())
def test_streamed_maxelem_queries_equal_the_set_queries(j):
    gis = maxelem_gis()
    for sys, reference in ((gis.rules, _set_rule_candidates),
                           (gis.corules, _set_coaxiom_candidates)):
        streamed = list(sys.premise_candidates(j))
        assert len(set(streamed)) == len(streamed)
        assert set(streamed) == reference(j)


def _listed_system(pairs):
    """A system whose query streams each ``(premises, conclusion)`` pair,
    repeats included, in the order given."""
    by_conclusion: dict = {}
    for premises, conclusion in pairs:
        by_conclusion.setdefault(conclusion, []).append(frozenset(premises))
    return InferenceSystem(lambda j: by_conclusion.get(j, ()))


def _deduplicated(gis):
    """The same rules and corules with no premise set streamed twice by
    ``combined``: each query is a set, and the corules drop what the rules
    already have."""
    rules, corules = gis.rules.premise_candidates, gis.corules.premise_candidates
    return GeneralizedIS(
        InferenceSystem(lambda j: frozenset(rules(j))),
        InferenceSystem(lambda j: frozenset(corules(j)) - frozenset(rules(j))))


def _repeats(sys, universe):
    return sum(len(answers) - len(set(answers))
               for answers in (list(sys.premise_candidates(j)) for j in universe))


def _assert_repeats_change_nothing(gis, universe, claims):
    dedup = _deduplicated(gis)
    assert _repeats(dedup.combined(), universe) == 0
    for interp in (interp_inductive, interp_coinductive):
        for sys, same in ((gis.rules, dedup.rules), (gis.combined(), dedup.combined())):
            assert interp(sys, universe) == interp(same, universe)
    assert interp_corules(gis, universe) == interp_corules(dedup, universe)
    for claim in claims:
        assert (bounded_coinduction_check(gis, claim, universe)
                == bounded_coinduction_check(dedup, claim, universe))


def test_repeated_premise_sets_change_no_fixpoint():
    # on a singleton list the axiom {} and the coaxiom {} coincide
    gis = maxelem_gis()
    singleton = MaxElem(finite(3), 3)
    assert list(gis.combined().premise_candidates(singleton)) == [frozenset()] * 2
    for goal in (singleton, MaxElem(finite(1, 3), 3), MaxElem(periodic((2,), (3,)), 3)):
        universe = reachable_universe(gis.combined(), {goal}, 100)
        _assert_repeats_change_nothing(gis, universe, ({goal}, universe))

    rng = random.Random(2517)
    repeats = 0
    for _ in range(40):
        n = rng.randint(4, 12)
        rules = [(rng.sample(range(n + 2), rng.randint(0, 3)), rng.randrange(n))
                 for _ in range(2 * n)]
        rules += rng.sample(rules, rng.randint(0, n))  # repeats among the rules
        corules = rng.sample(rules, rng.randint(0, n))  # and shared with them
        corules += [(rng.sample(range(n), rng.randint(0, 1)), rng.randrange(n))
                    for _ in range(n // 2)]
        gis = GeneralizedIS(_listed_system(rules), _listed_system(corules))
        universe = frozenset(range(n))
        repeats += _repeats(gis.combined(), universe)
        claims = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(3)]
        _assert_repeats_change_nothing(gis, universe, claims + [universe])
    assert repeats > 0


# --- the universe keeps its rules ---------------------------------------------


def _counting(sys, asked):
    """``sys``, recording each judgment it is asked about in ``asked``."""
    return InferenceSystem(lambda j: asked.append(j) or sys.premise_candidates(j))


def _fixpoint_goals():
    """maxElem goals as the benchmark's fixpoint workload builds them: a
    periodic list with the claim that ``v`` is the maximum of every suffix,
    and a finite list with no claim, at claimed maxima m-1, m and m+1."""
    for period in ((5, 4, 0, 2, 1, 3), (7, 6, 3, 0, 5, 1, 2, 4)):
        m = max(period)
        periodic_list = RationalList((0,), period)
        suffixes, lst = [], periodic_list
        while lst not in suffixes:
            suffixes.append(lst)
            lst = lst.tail
        for v in (m - 1, m, m + 1):
            yield MaxElem(periodic_list, v), frozenset(MaxElem(s, v) for s in suffixes)
            yield MaxElem(RationalList((m, *range(m))), v), None


def test_each_system_is_asked_once_per_judgment_over_the_workload_sequence():
    maxelem = maxelem_gis()
    for goal, claim in _fixpoint_goals():
        rules_asked, corules_asked = [], []
        gis = GeneralizedIS(_counting(maxelem.rules, rules_asked),
                            _counting(maxelem.corules, corules_asked))
        universe = reachable_universe(gis.combined(), {goal} | (claim or set()), 100_000)
        interp_corules(gis, universe)
        interp_coinductive(gis.rules, universe)
        interp_inductive(gis.rules, universe)
        if claim is not None:
            bounded_coinduction_check(gis, claim, universe)
        for asked in (rules_asked, corules_asked):
            assert sorted(map(repr, asked)) == sorted(map(repr, universe))


def test_a_universe_draws_a_new_system_once_and_keeps_it():
    gis = maxelem_gis()
    goal = MaxElem(periodic((3,), tuple(range(12))), 11)
    universe = reachable_universe(gis.combined(), {goal}, 10_000)
    asked = []
    rules = _counting(maxelem_rules(), asked)
    co = interp_coinductive(rules, universe)
    assert sorted(map(repr, asked)) == sorted(map(repr, universe))
    asked.clear()
    assert interp_coinductive(rules, universe) == co
    interp_inductive(rules, universe)
    interp_corules(GeneralizedIS(rules, gis.corules), universe)
    bounded_coinduction_check(GeneralizedIS(rules, gis.corules), {goal}, universe)
    interp_inductive(rules.union(gis.corules), universe)
    assert asked == []


# today's fixpoints before the universe kept its rules, as the reference


def _reference_rules(sys, universe):
    rules: list = []
    waiting: dict = {}
    for j in universe:
        for premises in sys.premise_candidates(j):
            for p in premises:
                waiting.setdefault(p, []).append(len(rules))
            rules.append((j, premises))
    return rules, waiting


def _reference_inductive(sys, universe):
    rules, waiting = _reference_rules(sys, universe)
    missing = [len(premises) for _, premises in rules]
    todo = [j for j, premises in rules if not premises]
    members: set = set()
    while todo:
        j = todo.pop()
        if j in members:
            continue
        members.add(j)
        for i in waiting.get(j, ()):
            missing[i] -= 1
            if missing[i] == 0:
                todo.append(rules[i][0])
    return frozenset(members)


def _reference_coinductive(sys, universe):
    rules, waiting = _reference_rules(sys, universe)
    universe = frozenset(universe)
    dead = [not premises <= universe for _, premises in rules]
    live = dict.fromkeys(universe, 0)
    for (j, _), d in zip(rules, dead):
        if not d:
            live[j] += 1
    removed = [j for j, n in live.items() if n == 0]
    while removed:
        for i in waiting.get(removed.pop(), ()):
            if not dead[i]:
                dead[i] = True
                j = rules[i][0]
                live[j] -= 1
                if live[j] == 0:
                    removed.append(j)
    return frozenset(j for j, n in live.items() if n)


def _reference_corules(gis, universe):
    return _reference_coinductive(
        gis.rules, _reference_inductive(gis.combined(), universe))


def _reference_check(gis, X, universe):
    X = frozenset(X)
    bound = _reference_inductive(gis.combined(), universe)
    for j in X:
        if j not in bound:
            return CoinductionCheck(False, j, "boundedness")
    for j in X:
        if not any(premises <= X for premises in gis.rules.premise_candidates(j)):
            return CoinductionCheck(False, j, "consistency")
    return CoinductionCheck(True)


def _twice(sys):
    """``sys`` with every premise set streamed twice."""
    return InferenceSystem(lambda j: list(sys.premise_candidates(j)) * 2)


def _assert_fixpoints_equal_the_reference(gis, numbered, claims):
    """All four fixpoints, on the numbered universe and on a plain copy,
    of ``gis`` and of its systems with every rule streamed twice."""
    rules, corules = gis.rules, gis.corules
    systems = [GeneralizedIS(rules, corules),
               GeneralizedIS(rules.union(_twice(rules)), corules),
               GeneralizedIS(_twice(rules), corules.union(rules).union(corules))]
    for u in (numbered, frozenset(numbered)):
        for gis in systems:
            for sys in (gis.rules, gis.combined(), gis.rules.union(gis.corules).union(rules)):
                assert interp_inductive(sys, u) == _reference_inductive(sys, u)
                assert interp_coinductive(sys, u) == _reference_coinductive(sys, u)
            assert interp_corules(gis, u) == _reference_corules(gis, u)
            for claim in claims:
                check = bounded_coinduction_check(gis, claim, u)
                assert check == _reference_check(gis, claim, u)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(digest_shaped_systems(), maxelem_goals()), st.data())
def test_fixpoints_on_kept_rules_equal_the_reference(case, data):
    gis, universe = case
    judgments = sorted(universe, key=repr)
    outsider = MaxElem(finite(99), 99) if isinstance(judgments[0], MaxElem) else -1
    claims = [frozenset(data.draw(st.lists(st.sampled_from(judgments + [outsider]))))
              for _ in range(3)] + [frozenset(universe)]
    numbered = universe if isinstance(universe, Universe) else Universe(universe)
    _assert_fixpoints_equal_the_reference(gis, numbered, claims)
    plain = frozenset(universe)
    assert numbered == plain and hash(numbered) == hash(plain)
    assert isinstance(numbered, frozenset)
    assert [numbered.index[j] for j in numbered.judgments] == list(range(len(plain)))
    assert set(numbered.judgments) == plain
    assert type(numbered | {outsider}) is frozenset
    assert numbered | {outsider} == plain | {outsider}


def _suffix_claim(goal):
    """The goal's value claimed of every suffix of its list, nil included."""
    claim, lst = set(), goal.lst
    while MaxElem(lst, goal.value) not in claim:
        claim.add(MaxElem(lst, goal.value))
        if lst.is_empty:
            break
        lst = lst.tail
    return frozenset(claim)


# the largest goals of the benchmark's fixpoint workload, with period 20 and
# maximum 19: their universes number premise slots past 256, beyond the
# integers that Python keeps one shared object of
BENCHMARK_SIZED_GOALS = (MaxElem(RationalList((3,), (19, 18, *range(18))), 19),
                         MaxElem(RationalList((19, *range(19))), 19))


@pytest.mark.parametrize("goal", BENCHMARK_SIZED_GOALS, ids=("periodic", "finite"))
def test_fixpoints_at_the_benchmark_sizes_equal_the_reference(goal):
    gis, claim = maxelem_gis(), _suffix_claim(goal)
    universe = reachable_universe(gis.combined(), {goal} | claim, 100_000)
    assert len(universe) > 300
    assert sum(len(t.owner) for t in universe._tables.values()) > 300
    _assert_fixpoints_equal_the_reference(gis, universe, [claim, frozenset(universe)])


def test_the_bound_is_computed_once_per_universe_and_no_fixpoint_writes_it(monkeypatch):
    gis = maxelem_gis()
    goal = MaxElem(periodic((0,), (5, 4, 0, 2, 1, 3)), 5)
    claim = _suffix_claim(goal)
    universe = reachable_universe(gis.combined(), {goal} | claim, 100_000)

    def tables():
        return {part: [list(f or ()) for f in (t.conclusion, t.size, t.first, t.after, t.owner)]
                for part, t in universe._tables.items()}

    drawn = tables()
    calls = []
    least = inference._least
    monkeypatch.setattr(inference, "_least", lambda *a: calls.append(a) or least(*a))
    members = interp_corules(gis, universe)
    check = bounded_coinduction_check(gis, claim, universe)
    assert goal in members and check.passed
    assert len(calls) == 1
    bounds = dict(universe._bounds)
    assert len(bounds) == 1 and all(type(b) is bytes for b in bounds.values())
    for _ in range(2):
        assert interp_corules(gis, universe) == members
        assert goal in interp_coinductive(gis.rules, universe)
        assert goal not in interp_inductive(gis.rules, universe)
        assert bounded_coinduction_check(gis, claim, universe) == check
    assert len(calls) == 3  # interp_inductive's two, not cached
    assert universe._bounds == bounds
    assert tables() == drawn


def _reference_universe(sys, goals, cap):
    seen = set(goals)
    if len(seen) > cap:
        raise UniverseOverflow(cap)
    todo = list(seen)
    while todo:
        j = todo.pop()
        for premises in sys.premise_candidates(j):
            for p in premises:
                if p not in seen:
                    seen.add(p)
                    if len(seen) > cap:
                        raise UniverseOverflow(cap)
                    todo.append(p)
    return frozenset(seen)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(maxelem_queries())
def test_universes_equal_the_reference_closure_and_overflow_at_its_cap(goal):
    gis = maxelem_gis()
    for sys in (gis.rules, gis.combined()):
        expected = _reference_universe(sys, {goal}, 10_000)
        universe = reachable_universe(sys, {goal}, len(expected))
        assert isinstance(universe, Universe)
        assert universe == expected and hash(universe) == hash(expected)
        if len(expected) > 1:
            with pytest.raises(UniverseOverflow):
                _reference_universe(sys, {goal}, len(expected) - 1)
            with pytest.raises(UniverseOverflow):
                reachable_universe(sys, {goal}, len(expected) - 1)
