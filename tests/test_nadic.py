import random
from itertools import product

import pytest

from adicaut import AffineMap, DigitWord, compose, decode, encode, identity
from adicaut.linalg import all_letters, coprime_to
from adicaut.nadic import affine_apply_digitwise, affine_apply_prefix

from conftest import random_digit_word, random_matrix


def test_encode_decode_examples():
    assert encode((5,), 3, 2).letters == ((2,), (1,))
    assert encode((0, 0), 7, 3).letters == ((0, 0), (0, 0), (0, 0))
    assert decode(DigitWord(((1,), (0,), (1,)), 2, 1)) == (5,)


def test_encode_range_errors():
    with pytest.raises(ValueError):
        encode((9,), 3, 2)  # needs three digits
    with pytest.raises(ValueError):
        encode((-1,), 3, 2)
    assert len(encode((0,), 3, 0)) == 0


def test_encode_decode_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.choice([2, 3, 5, 10])
        d = rng.randint(1, 3)
        k = rng.randint(0, 12)
        u = tuple(rng.randrange(n ** k) for _ in range(d))
        assert decode(encode(u, n, k)) == u


def test_digit_word_validation():
    with pytest.raises(ValueError):
        DigitWord(((2,),), 2, 1)  # digit out of range
    with pytest.raises(ValueError):
        DigitWord(((0, 1),), 2, 1)  # wrong dimension
    bad = (2,)
    for letters in (((1,), bad, bad), ((1,), (2,), (2,)),  # a repeated bad letter, shared or not
                    (([0],),),  # an unhashable digit
                    ((1,), (1.0,)),  # equal to a good letter, but not an int
                    ((True,),), ((1,), (True,))):  # a bool, which format() would print as True
        with pytest.raises(ValueError, match="out of range"):
            DigitWord(letters, 2, 1)
    # a long bad letter or digit is cut to its first 40 characters; both were echoed whole
    for text, message in (("9" * 5000, "cannot parse letter '" + "9" * 39 + "..."),
                          ("9" * 4000 + ",0", "digit " + "9" * 40 + "... out of range for base 2"),
                          ("9" * 4000, "letter (" + "9" * 39 + "... does not have dimension 2")):
        with pytest.raises(ValueError) as exc:
            DigitWord.parse(text, 2, 2)
        assert str(exc.value) == message
    # a float base or dimension once made a word
    with pytest.raises(ValueError, match="^base must be an int, got 2.5$"):
        DigitWord(((1,),), 2.5, 1)
    with pytest.raises(ValueError, match="^dimension must be an int, got 1.5$"):
        DigitWord((), 2, 1.5)
    # prefix(True) once cut one letter, prefix(-1) dropped the last letter and prefix(1.5) raised a bare TypeError
    w = DigitWord(((1,), (0,)), 2, 1)
    for k, message in ((True, "an int, got True"), (1.5, "an int, got 1.5"), (-1, "at least 0, got -1")):
        with pytest.raises(ValueError, match=f"^length must be {message}$"):
            w.prefix(k)
    assert w.prefix(0) == DigitWord((), 2, 1) and w.prefix(1).letters == ((1,),) and w.prefix(3) == w


def test_digit_word_parse_format():
    w = DigitWord.parse("2,0 1,1", 3, 2)
    assert w.letters == ((2, 0), (1, 1))
    assert w.format() == "2,0 1,1"
    w1 = DigitWord.parse("2 1", 3, 1)
    assert w1.letters == ((2,), (1,))
    assert DigitWord.parse("", 3, 2).letters == ()
    assert DigitWord.parse("  ", 3, 2).letters == ()


def test_affine_apply_prefix_examples():
    # doubling: 2*5 = 10 = 1 mod 9, digits 1 0
    f = AffineMap(((2,),), (0,))
    w = DigitWord.parse("2 1", 3, 1)
    assert affine_apply_prefix(f, w).format() == "1 0"
    # identity map
    g = AffineMap(identity(2), (0, 0))
    u = DigitWord.parse("1,0 0,1 1,1", 2, 2)
    assert affine_apply_prefix(g, u) == u
    # +1 with carry across both digits: 8+1 = 9 = 0 mod 9
    h = AffineMap(((1,),), (1,))
    assert affine_apply_prefix(h, DigitWord.parse("2 2", 3, 1)).format() == "0 0"


def test_empty_word_is_fixed():
    f = AffineMap(((3,),), (7,))
    w = DigitWord((), 5, 1)
    assert affine_apply_prefix(f, w) == w
    assert affine_apply_digitwise(f, w) == w


def test_digitwise_agrees_with_closed_form():
    rng = random.Random(12)
    for _ in range(400):
        d = rng.randint(1, 3)
        n = rng.choice([2, 3, 5])
        M = random_matrix(rng, d)
        v = tuple(rng.randint(-5, 5) for _ in range(d))
        f = AffineMap(M, v)
        w = random_digit_word(rng, n, d, 12)
        assert affine_apply_digitwise(f, w) == affine_apply_prefix(f, w)


def test_composition():
    rng = random.Random(13)
    for _ in range(300):
        d = rng.randint(1, 3)
        n = rng.choice([2, 3, 5])
        f = AffineMap(random_matrix(rng, d), tuple(rng.randint(-5, 5) for _ in range(d)))
        g = AffineMap(random_matrix(rng, d), tuple(rng.randint(-5, 5) for _ in range(d)))
        w = random_digit_word(rng, n, d, 10)
        assert affine_apply_prefix(f, affine_apply_prefix(g, w)) == affine_apply_prefix(compose(f, g), w)


def test_invertible_maps_act_bijectively():
    # exhaust all words of length k for n=2, d in {1,2}, k <= 4
    rng = random.Random(14)
    for d in (1, 2):
        maps = []
        while len(maps) < 5:
            M = random_matrix(rng, d)
            if coprime_to(M, 2):
                maps.append(AffineMap(M, tuple(rng.randint(-3, 3) for _ in range(d))))
        letters = all_letters(2, d)
        for k in range(5):
            words = [DigitWord(ls, 2, d) for ls in product(letters, repeat=k)]
            for f in maps:
                images = {affine_apply_prefix(f, w).letters for w in words}
                assert len(images) == len(words) == 2 ** (d * k)


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(((1, 0), (0, 1)), (0,))
    f = AffineMap([[2]], [3])
    assert f((4,)) == (11,)
    for route in (affine_apply_prefix, affine_apply_digitwise):
        with pytest.raises(ValueError, match="^map of dimension 1 cannot act on a word of dimension 2$"):
            route(AffineMap(((1,),), (0,)), DigitWord(((0, 0),), 2, 2))
    # each once raised zip's bare "argument 2 is longer than argument 1"; compose acts with f on g's offset
    g = AffineMap(identity(2), (0, 0))
    for call, (dim, size) in [(lambda: AffineMap([[1]], (1,))((1, 2)), (1, 2)), (lambda: compose(f, g), (1, 2)),
                              (lambda: compose(g, f), (2, 1))]:
        with pytest.raises(ValueError, match=f"^map of dimension {dim} cannot act on a vector of dimension {size}$"):
            call()
