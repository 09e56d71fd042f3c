"""Property tests of the group laws: for random code words a, b, c over a small
union, products associate, inversion is an involution, and acting with a
product, an inverse or a power agrees with acting with the factors in turn.
Over unimodular unions the closure's verdict also agrees with a third route,
the word's composed affine map."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adicaut import (  # noqa: E402
    AffineMap,
    DigitWord,
    GroupWord,
    build_union,
    decide_identity,
    det,
    identity,
    translation_word,
)

from conftest import affine_map  # noqa: E402


@st.composite
def unions(draw):
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((2, 3)))
    square = st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)
    coprime = square.filter(lambda M: det(M) != 0 and math.gcd(det(M), n) == 1)
    return build_union(draw(st.lists(coprime, min_size=1, max_size=2)), n)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(aut=unions(), data=st.data())
def test_group_laws(aut, data):
    code = st.integers(-len(aut.labels), len(aut.labels) - 1)
    a, b, c = (GroupWord(aut, data.draw(st.lists(code, max_size=6))) for _ in range(3))
    letter = st.tuples(*[st.integers(0, aut.n - 1)] * aut.d)
    u = DigitWord(tuple(data.draw(st.lists(letter, max_size=10))), aut.n, aut.d)

    assert (a * b) * c == a * (b * c)
    assert ~~a == a
    assert (a * b).act(u) == a.act(b.act(u))
    assert (~a).act(a.act(u)) == u
    for k in range(-3, 4):
        step = a if k >= 0 else ~a
        v = u
        for _ in range(abs(k)):
            v = step.act(v)
        assert (a ** k).act(u) == v


# Small unimodular matrices; their row-sum norms keep a union of two at 72 states at most.
UNIMODULAR = {1: [[[1]], [[-1]]],
              2: [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[1, 2], [0, 1]],
                  [[1, 0], [-2, 1]], [[2, 1], [1, 1]], [[-1, 0], [0, 1]], [[1, 0], [0, 1]]]}


@st.composite
def unimodular_unions(draw):
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((2, 3)))
    return build_union(draw(st.lists(st.sampled_from(UNIMODULAR[d]), min_size=1, max_size=2)), n)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(aut=unimodular_unions(), data=st.data())
def test_closure_agrees_with_the_affine_map(aut, data):
    code = st.integers(-len(aut.labels), len(aut.labels) - 1)
    w = GroupWord(aut, data.draw(st.lists(code, max_size=6)))
    r = GroupWord(aut, data.draw(st.lists(code, max_size=3)))
    i, j = (data.draw(st.integers(1, aut.d)) for _ in range(2))
    a, b = (data.draw(st.integers(1, 3)) for _ in range(2))
    ti, tj = translation_word(aut, 0, i) ** a, translation_word(aut, 0, j) ** b
    trivial = AffineMap(identity(aut.d), (0,) * aut.d)
    commutator = r * ti * tj * ~ti * ~tj * ~r
    conjugate = r * ti * ~r
    for word in (w, commutator, conjugate):
        assert decide_identity(word)[0] == (affine_map(word) == trivial), word
    # so that both verdicts occur in every example
    assert affine_map(commutator) == trivial and affine_map(conjugate) != trivial
