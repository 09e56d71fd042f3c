import json
import random
import re
from dataclasses import replace
from itertools import product, repeat
from operator import eq

import pytest

from adicaut import (
    AffineMap,
    Automaton,
    BuildError,
    DigitWord,
    FormatError,
    GroupWord,
    WordError,
    affine_apply_prefix,
    block_diag,
    build_union,
    coprime_to,
    det,
    encode,
    from_json,
    identity,
    inverse_unimodular,
    is_unimodular,
    mat_mul,
    mat_vec,
    matrix,
    mod_div,
    offset_box,
    parse_word,
    presentation_for,
    relator_check,
    row_sum_norm,
    to_json,
    vector,
    word_matrix,
)
from adicaut.linalg import all_letters, echo, format_letter, parse_letter


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


def test_echo_keeps_a_short_value_and_never_raises():
    for x in (0, -7, 10 ** 39, -(10 ** 38), 1.5, True, None, "ab", (1, 2), [0]):
        assert echo(x) == repr(x)
    assert echo(10 ** 5000) == "1" + "0" * 39 + "..."
    assert echo("x" * 41) == "'" + "x" * 39 + "..."
    # repr of a container holding an int past the interpreter's conversion limit raises
    assert echo((10 ** 5000, 0)) == "<tuple>"


HUGE, LONG = 10 ** 5000, "x" * 100000
DOUBLING = build_union([[[2]]], 3)


def edited(edit) -> str:
    "The JSON text of DOUBLING (base 3, d=1, 4 states) after edit(document)."
    doc = json.loads(to_json(DOUBLING))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("call, error, start", [
    (lambda: DigitWord(((HUGE, 0),), 2, 1), ValueError, "letter <tuple> does not have dimension 1"),
    (lambda: DigitWord(((0, 0),), 2, HUGE), ValueError, "letter (0, 0) does not have dimension 1000"),
    (lambda: DigitWord(((-1,),), HUGE, 1), ValueError, "digit -1 out of range for base 1000"),
    (lambda: vector((LONG,)), TypeError, "vector coordinate 'xxx"),
    (lambda: build_union([[[10 ** 3000, 1], [0, 10 ** 3000]]], 2), BuildError, "determinant 1000"),
    (lambda: build_union([[[2]]], 2 * HUGE, alphabet_cap=HUGE ** 2), BuildError,
     "determinant 2 of matrix 0 is not coprime to base 2000"),
    (lambda: build_union([[[HUGE]]], 2 * HUGE, alphabet_cap=HUGE ** 2), BuildError, "determinant 1000"),
    (lambda: build_union([[[10 ** 3000, 0], [0, 1]]], 3), BuildError, "the state count bound 4000"),
    (lambda: inverse_unimodular(((HUGE,),)), ValueError, "matrix with determinant 1000"),
    (lambda: encode((HUGE,), 10 ** 4500, 1), ValueError, "coordinate 1000"),
    (lambda: encode((-HUGE,), 2, 1), ValueError, "coordinate -1000"),
    (lambda: affine_apply_prefix(AffineMap(((1,),), (0,)), DigitWord((), 2, HUGE)), ValueError,
     "map of dimension 1 cannot act on a word of dimension 1000"),
    (lambda: GroupWord(DOUBLING, (HUGE,)), WordError, "code 1000"),
    (lambda: GroupWord(DOUBLING, (LONG,)), WordError, "code 'xxx"),
    (lambda: GroupWord(DOUBLING).act(DigitWord((), HUGE, 1)), WordError,
     "word over base 3 dim 1 cannot act on a digit word of base 1000"),
    (lambda: word_matrix((LONG,), [[[1]]]), ValueError, "code 'xxx"),
    (lambda: relator_check(DOUBLING, replace(presentation_for([[[2]]]), relators=(((LONG, 1),),))), ValueError,
     "relator uses unknown generator 'xxx"),
    (lambda: parse_word(build_union([[[1, 0], [0, 1]]], 2), "m[0]:(" + "9" * 4000 + ",0)"), WordError,
     "no state m[0]:(" + "9" * 40 + "...,0) in this automaton"),
    (lambda: Automaton(3, 1, [[[2]]], [LONG], [((0, 1, 2), (0, 0, 0))]), ValueError, "state 0: label 'xxx"),
    (lambda: Automaton(3, 1, [[[2]]], [(0, (0,))], [(LONG,)]), ValueError, "state 0: table ('xxx"),
    (lambda: from_json(edited(lambda o: o["states"][1].update(m=LONG))), FormatError,
     "state 1: matrix index 'xxx"),
    (lambda: from_json(edited(lambda o: o["states"][0]["v"].__setitem__(0, list(range(50000))))), FormatError,
     "state 0: offset coordinate [0, 1, 2"),
    (lambda: from_json(edited(lambda o: o["states"][0]["next"].__setitem__(0, LONG))), FormatError,
     "state 0 letter 0: next entry 'xxx"),
    (lambda: from_json(edited(lambda o: o["states"][1].update(m=10 ** 4000))), FormatError,
     "state 1: matrix index 1000"),
    (lambda: from_json(edited(lambda o: o.update(d=10 ** 4000))), FormatError, "an alphabet of n**d letters (d = 1000"),
], ids=["letter", "dimension", "base", "vector", "det", "coprime-base", "gcd", "state-count", "inverse", "encode",
        "encode-negative", "affine-dim", "code-int", "code-str", "act-base", "word-matrix", "relator", "state-label",
        "label", "table", "json-m", "json-v", "json-next", "json-m-range", "json-d"])
def test_every_echo_cuts_the_value_it_shows(call, error, start):
    # one case per message that shows a value from outside: each was echoed whole, or failed in str()
    with pytest.raises(error) as e:
        call()
    message = str(e.value)
    assert type(e.value) is error and message.startswith(start) and len(message) < 200
    assert re.search(r"(.)\1{40}", message) is None
