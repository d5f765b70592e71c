import random

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
