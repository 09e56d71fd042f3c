import random
from itertools import product, repeat
from operator import eq

import pytest

from adicaut import (
    block_diag,
    coprime_to,
    det,
    encode,
    identity,
    inverse_unimodular,
    is_unimodular,
    mat_mul,
    mat_vec,
    matrix,
    mod_div,
    offset_box,
    row_sum_norm,
    vector,
)
from adicaut.linalg import all_letters, format_letter, parse_letter


def test_mod_div_examples():
    assert mod_div((5,), 3) == ((2,), (1,))
    assert mod_div((-3,), 2) == ((1,), (-2,))
    assert mod_div((0, 0), 5) == ((0, 0), (0, 0))


def test_mod_div_rejects_small_base():
    with pytest.raises(ValueError):
        mod_div((1,), 1)


@pytest.mark.parametrize("call, message", [
    # a float base once gave float digits, or a TypeError from range()
    (lambda: mod_div((3,), 2.5), "base must be an int, got 2.5"),
    (lambda: all_letters(2.5, 1), "base must be an int, got 2.5"),
    (lambda: encode((1,), 2, 1.5), "length must be an int, got 1.5"),
    # the message echoes at most 40 characters of the value
    (lambda: mod_div((3,), "9" * 10 ** 4), "base must be an int, got '" + "9" * 39 + "..."),
    # all_letters(2, True) once gave the d=1 letters, 1.5 a bare TypeError, -1 itertools' ValueError
    (lambda: all_letters(2, True), "dimension must be an int, got True"),
    (lambda: all_letters(2, 1.5), "dimension must be an int, got 1.5"),
    (lambda: all_letters(2, -1), "dimension must be at least 1, got -1"),
], ids=["mod_div", "all_letters", "encode", "long_str", "dimension_bool", "dimension_float", "dimension_negative"])
def test_bases_and_lengths_must_be_ints(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_mod_div_round_trip_exhaustive():
    # v = r + n*q with r in [0,n)^d, over the full box [-50,50]^d for d <= 3: every
    # vector's split must be the coordinatewise one, found here by search, not division
    side = range(-50, 51)
    for n in (2, 3, 5):
        splits = [[(r, q) for r in range(n) for q in side if r + n * q == c] for c in side]
        assert all(len(found) == 1 for found in splits)  # the range constraint makes (r, q) unique
        rs, qs = zip(*(found for (found,) in splits))
        for d in (1, 2, 3):
            expected = zip(product(rs, repeat=d), product(qs, repeat=d))
            assert all(map(eq, map(mod_div, product(side, repeat=d), repeat(n)), expected))


def test_row_sum_norm_examples():
    assert row_sum_norm(identity(3)) == 1
    assert row_sum_norm(matrix([[2, 1], [0, 3]])) == 3
    assert row_sum_norm(matrix([[1, 2], [0, 1]])) == 3


def test_norm_submultiplicative():
    rng = random.Random(1)
    for _ in range(200):
        d = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d))
        B = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d))
        assert row_sum_norm(mat_mul(A, B)) <= row_sum_norm(A) * row_sum_norm(B) or \
            row_sum_norm(A) == 0 or row_sum_norm(B) == 0


def test_offset_box_examples():
    assert offset_box(matrix([[2]])) == [(-2,), (-1,), (0,), (1,)]
    assert offset_box(matrix([[1]])) == [(-1,), (0,)]
    assert len(offset_box(matrix([[1, 1], [0, 1]]))) == 16


def test_offset_box_order_first_coordinate_fastest():
    box = offset_box(matrix([[1, 0], [0, 1]]))
    assert box == [(-1, -1), (0, -1), (-1, 0), (0, 0)]


def test_offset_box_cardinality_random():
    rng = random.Random(2)
    for _ in range(50):
        d = rng.randint(1, 3)
        M = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d))
        if row_sum_norm(M) == 0:
            continue
        assert len(offset_box(M)) == (2 * row_sum_norm(M)) ** d


def test_offset_box_rejects_zero_matrix():
    with pytest.raises(ValueError):
        offset_box(((0,),))


def test_det_examples():
    assert det(matrix([[1, 2], [0, 1]])) == 1
    assert is_unimodular(matrix([[1, 2], [0, 1]]))
    assert det(matrix([[2]])) == 2
    assert coprime_to(matrix([[2]]), 3)
    assert not coprime_to(matrix([[2]]), 2)
    assert not coprime_to(((0,),), 3)


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
        B = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
        assert det(mat_mul(A, B)) == det(A) * det(B)


def test_det_known_values():
    assert det(identity(5)) == 1
    assert det(matrix([[0, 1], [1, 0]])) == -1
    assert det(matrix([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == 24
    assert det(matrix([[1, 2], [2, 4]])) == 0


def test_inverse_unimodular():
    cases = [
        matrix([[1, 2], [0, 1]]),
        matrix([[1, 0], [2, 1]]),
        matrix([[0, 1], [1, 0]]),
        matrix([[-1]]),
        matrix([[2, 1], [1, 1]]),
        matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
    ]
    for M in cases:
        assert mat_mul(M, inverse_unimodular(M)) == identity(len(M))
        assert mat_mul(inverse_unimodular(M), M) == identity(len(M))
    with pytest.raises(ValueError):
        inverse_unimodular(matrix([[2]]))


def test_block_diag():
    A = matrix([[1, 2], [3, 4]])
    B = matrix([[5]])
    assert block_diag(A, B) == ((1, 2, 0), (3, 4, 0), (0, 0, 5))
    rng = random.Random(4)
    for _ in range(50):
        A = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        B = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        assert det(block_diag(A, B)) == det(A) * det(B)


def test_vector_matrix_validation():
    with pytest.raises(ValueError):
        vector(())
    with pytest.raises(TypeError):
        vector((1.5,))
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])


def test_mat_vec():
    assert mat_vec(matrix([[1, 1], [0, 1]]), (2, 3)) == (5, 3)


def test_all_letters_dense_order():
    assert all_letters(2, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert all_letters(3, 1) == [(0,), (1,), (2,)]


def test_letter_text_round_trip():
    assert format_letter((2, 0)) == "2,0"
    assert format_letter((7,)) == "7"
    assert parse_letter("2,0") == (2, 0)
    assert parse_letter("7") == (7,)
    with pytest.raises(ValueError):
        parse_letter("a,b")
