import random
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from bigstep.extensions import InfTrace
from bigstep.rational import RationalList, finite, normalize_word, periodic


def test_normalize_primitive_period():
    assert normalize_word((), (1, 2, 1, 2)) == ((), (1, 2))
    assert normalize_word((), (7,) * 5) == ((), (7,))


def test_normalize_rolls_prefix_into_period():
    # 1,(2,1)* and (1,2)* denote the same word
    assert normalize_word((1,), (2, 1)) == ((), (1, 2))
    assert RationalList((1,), (2, 1)) == RationalList((), (1, 2))


def test_head_tail_periodic():
    L = periodic((), (1, 2))
    assert L.head == 1
    assert L.tail.head == 2
    assert L.tail.tail == L
    assert L.take(5) == (1, 2, 1, 2, 1)


def test_finite_list_ops():
    L = finite(4, 5)
    assert L.head == 4
    assert L.tail == finite(5)
    assert L.tail.tail.is_empty
    assert L.is_finite


def test_distinct_words_stay_distinct():
    assert RationalList((), (1, 2)) != RationalList((), (2, 1))
    assert finite(1, 2) != RationalList((), (1, 2))


def _old_tail(lst):
    # reference: the tail renormalised from the raw word
    if lst.prefix:
        return RationalList(lst.prefix[1:], lst.period)
    return RationalList(lst.period[1:], lst.period)


def test_tail_of_a_normal_word_is_normal():
    rng = random.Random(2017)
    for _ in range(300):
        base = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 4)))
        period = base * rng.randint(1, 3) if rng.random() < 0.8 else ()
        prefix = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4)))
        if period and rng.random() < 0.5:
            prefix += period[-1:]  # rolled back into the period by normalisation
        n = 3 * len(period) + len(prefix)
        word = (prefix + period * n)[:n]
        lst = RationalList(prefix, period)
        while not lst.is_empty and n > 0:
            t = lst.tail
            assert normalize_word(t.prefix, t.period) == (t.prefix, t.period)
            assert t == _old_tail(lst)
            assert lst.take(n) == word
            lst, word, n = t, word[1:], n - 1


def _old_normalize_word(prefix, period):
    # reference: the rollback one item at a time, re-slicing at every step
    prefix, period = tuple(prefix), tuple(period)
    if period:
        n = len(period)
        for d in range(1, n + 1):
            if n % d == 0 and period == period[:d] * (n // d):
                period = period[:d]
                break
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = (period[-1],) + period[:-1]
    return prefix, period


_ITEMS = st.lists(st.integers(0, 2), max_size=8).map(tuple)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_ITEMS, _ITEMS, st.integers(1, 3), st.integers(0, 12))
def test_one_pass_rollback_matches_the_item_by_item_rollback(prefix, base, reps, wrap):
    # ``wrap`` appends a stretch of the period's own word to the prefix, so
    # that the rollback often runs around the period more than once
    period = base * reps
    if period:
        prefix += (period * (wrap // len(period) + 1))[:wrap]
    assert normalize_word(prefix, period) == _old_normalize_word(prefix, period)


def test_rolling_back_a_long_prefix_is_linear():
    n = 10**5
    t0 = time.perf_counter()
    lst = RationalList((1,) * n, (1,))
    assert time.perf_counter() - t0 < 1.0
    assert (lst.prefix, lst.period) == ((), (1,))
    lst = RationalList((3,) + (1, 2, 3) * n, (1, 2, 3))
    assert (lst.prefix, lst.period) == ((), (3, 1, 2))


def _random_lists(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        period = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 6)))
        prefix = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 6)))
        yield RationalList(prefix, period)


def test_the_tail_is_built_once():
    for lst in _random_lists(1):
        if not lst.is_empty:
            assert lst.tail is lst.tail


def test_a_walk_closes_on_its_first_period_only_suffix():
    for lst in _random_lists(2):
        if lst.is_finite:
            continue
        walk = [lst]
        for _ in range(len(lst.prefix) + len(lst.period)):
            walk.append(walk[-1].tail)
        first = next(s for s in walk if not s.prefix)
        assert walk[-1] is first
        # the same holds from any suffix on the way
        for i, start in enumerate(walk):
            cur = start
            for _ in range(len(start.prefix) + len(start.period)):
                cur = cur.tail
            assert cur is next(s for s in walk[i:] if not s.prefix)


def test_a_walk_builds_at_most_prefix_plus_period_lists():
    for lst in _random_lists(3):
        # a finite list ends in the empty list
        bound = len(lst.prefix) + len(lst.period) + lst.is_finite
        seen, cur = [], lst
        for _ in range(5 * bound + 5):
            seen.append(cur)  # kept alive, so no id is reused
            if cur.is_empty:
                break
            cur = cur.tail
        assert len({id(s) for s in seen}) <= bound


def test_lists_built_apart_compare_and_hash_by_value():
    for lst in _random_lists(4):
        other = RationalList(lst.prefix, lst.period)
        steps = 2 * (len(lst.prefix) + len(lst.period))
        lst.take(steps)  # builds and stores the tails of one side only
        assert lst == other and hash(lst) == hash(other) and repr(lst) == repr(other)
        for _ in range(steps):
            if lst.is_empty:
                break
            lst, other = lst.tail, other.tail
            assert lst is not other
            assert lst == other and hash(lst) == hash(other) and repr(lst) == repr(other)


def test_inftrace_keeps_its_type_strict_equality_and_repr():
    trace = InfTrace((1,), (2, 3))
    plain = RationalList((1,), (2, 3))
    assert trace != plain and plain != trace
    assert repr(trace) == repr(plain) == "1:(2:3)*"
    # the stored tails take no part in equality, hashing or repr
    assert trace.tail.tail.tail is trace.tail
    assert trace == InfTrace((1,), (2, 3)) and hash(trace) == hash(InfTrace((1,), (2, 3)))
    assert trace != plain and repr(trace) == "1:(2:3)*"
    # a suffix has its list's class
    assert type(trace.tail) is InfTrace and trace.tail == InfTrace((), (2, 3))
    assert type(plain.tail) is RationalList and plain.tail == RationalList((), (2, 3))


def test_take_over_a_long_period_stays_small():
    lst = RationalList((), tuple(range(100)))
    tracemalloc.start()
    try:
        out = lst.take(2 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == tuple(range(100)) * 2000
    # the result and its working list take about 3.2 MB; a chain of
    # 2 * 10**5 lists that kept each other alive would take over 100 MB
    assert peak < 8 * 2**20, peak
