"""Inference-system fixpoints, the maxElem system, and brute-force checks."""
import random
from itertools import chain, combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bigstep.inference import (
    FiniteRule,
    GeneralizedIS,
    InferenceSystem,
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
