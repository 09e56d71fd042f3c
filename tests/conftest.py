import pytest

from adicaut import (AffineMap, DigitWord, GroupWord, build_union, compose, identity, inverse_unimodular, mat_vec,
                     translation_word)


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


def reduced_words(rank, max_length):
    """All freely reduced words of at most `max_length` factors over `rank`
    generators and their inverses, as tuples of signed codes (`i` and `~i`),
    shortest first."""
    gens = [c for i in range(rank) for c in (i, ~i)]
    for length in range(max_length + 1):
        # one lazy generator per factor: a level is never held whole
        words = iter([()])
        for _ in range(length):
            words = (w + (g,) for w in words for g in gens if not (w and w[-1] == ~g))
        yield from words


def affine_map(w):
    """The composed affine map of a word over a unimodular union, its leftmost
    factor applied last; an inverse factor is (M^-1, -M^-1 v)."""
    aut = w.aut
    f = AffineMap(identity(aut.d), (0,) * aut.d)
    for c in w.codes:
        mi, v = aut.labels[c if c >= 0 else ~c]
        M = aut.matrices[mi]
        if c < 0:
            M = inverse_unimodular(M)
            v = tuple(-x for x in mat_vec(M, v))
        f = compose(f, AffineMap(M, v))
    return f


def column_sides(aut, mi, axis):
    """The two sides of the column relation of matrix `mi` at `axis`, from
    component mi's translations: m0 t_j m0^-1 and t_1^{M_1j} ... t_d^{M_dj}."""
    m0 = GroupWord(aut, (aut.state_id(mi, (0,) * aut.d),))
    rhs = GroupWord(aut)
    for i, row in enumerate(aut.matrices[mi], start=1):
        rhs = rhs * translation_word(aut, mi, i) ** row[axis - 1]
    return m0 * translation_word(aut, mi, axis) * ~m0, rhs


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
