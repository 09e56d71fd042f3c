import pytest

from adicaut import DigitWord, GroupWord, build_union


def random_matrix(rng, d, bound=3):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d))


def random_letter(rng, n, d):
    return tuple(rng.randrange(n) for _ in range(d))


def random_digit_word(rng, n, d, max_len, min_len=0):
    k = rng.randint(min_len, max_len)
    return DigitWord(tuple(random_letter(rng, n, d) for _ in range(k)), n, d)


def random_code(rng, sids):
    "A state drawn from `sids`, then a sign: the code `sid` or `~sid`."
    sid = rng.choice(sids)
    return rng.choice((sid, ~sid))


def random_group_word(rng, aut, max_len, min_len=0):
    k = rng.randint(min_len, max_len)
    return GroupWord(aut, [random_code(rng, range(len(aut.labels))) for _ in range(k)])


@pytest.fixture
def doubling3():
    "4 states over base 3: offsets -2..1 for the doubling matrix [[2]]."
    return build_union([[[2]]], 3)


@pytest.fixture
def odometer2():
    "2 states over base 2: the identity state and the decrement state."
    return build_union([[[1]]], 2)


@pytest.fixture
def shear2():
    "16 states over base 2 for the unimodular shear [[1,1],[0,1]]."
    return build_union([[[1, 1], [0, 1]]], 2)
