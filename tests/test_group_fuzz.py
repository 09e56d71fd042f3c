"""Property test of the group laws: for random code words a, b, c over a small
union, products associate, inversion is an involution, and acting with a
product, an inverse or a power agrees with acting with the factors in turn."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adicaut import DigitWord, GroupWord, build_union, det  # noqa: E402


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
