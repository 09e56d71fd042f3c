"""Property test of the action against the big-integer oracle: for a random
matrix family, base and word over its states, the automaton's image of a
digit word is the low digits of the composed affine map's image."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adicaut import (  # noqa: E402
    AffineMap,
    DigitWord,
    GroupWord,
    affine_apply_prefix,
    build_union,
    compose,
    det,
    identity,
    mat_vec,
)


def inverse_mod(M, modulus):
    "M^-1 mod `modulus` for d <= 2, as adj(M) / det(M); det must be a unit mod `modulus`."
    D = pow(det(M), -1, modulus)
    if len(M) == 1:
        return ((D % modulus,),)
    (a, b), (c, e) = M
    return ((e * D % modulus, -b * D % modulus), (-c * D % modulus, a * D % modulus))


def prefix_map(aut, w, k):
    """The composed affine map of `w`, rightmost factor acting first, exact on
    digit words of length k: an inverse factor u -> M^-1 (u - v) is taken mod n^k."""
    modulus = aut.n ** k
    f = AffineMap(identity(aut.d), (0,) * aut.d)
    for c in w.codes:
        mi, v = aut.labels[c if c >= 0 else ~c]
        M = aut.matrices[mi]
        if c >= 0:
            f = compose(f, AffineMap(M, v))
        else:
            Mi = inverse_mod(M, modulus)
            f = compose(f, AffineMap(Mi, tuple(-c for c in mat_vec(Mi, v))))
    return f


@st.composite
def families(draw):
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((2, 3, 5)))
    entries = st.integers(-3, 3)
    square = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    coprime = square.filter(lambda M: det(M) != 0 and math.gcd(det(M), n) == 1)
    return draw(st.lists(coprime, min_size=1, max_size=2)), n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(family=families(), data=st.data())
def test_act_matches_oracle(family, data):
    mats, n = family
    aut = build_union(mats, n)
    d = aut.d
    code = st.integers(-len(aut.labels), len(aut.labels) - 1)
    w = GroupWord(aut, data.draw(st.lists(code, max_size=6)))
    letter = st.tuples(*[st.integers(0, n - 1)] * d)
    k = data.draw(st.integers(0, 40))  # a list strategy's own lengths stay short and often empty
    u = DigitWord(tuple(data.draw(st.lists(letter, min_size=k, max_size=k))), n, d)
    assert w.act(u) == affine_apply_prefix(prefix_map(aut, w, len(u)), u)
