import random
import re

import pytest

from adicaut import (
    AffineMap,
    BudgetExceededError,
    DigitWord,
    GroupWord,
    WordError,
    affine_apply_prefix,
    build_union,
    conjugacy_search_bounded,
    decide_identity,
    decode,
    encode,
    identity,
    inverse_unimodular,
    matrix,
    parse_word,
    reduced_words,
    translation_word,
    verify_relation,
)
from adicaut.treeaction import MAX_WORD_CODES

from conftest import affine_map, column_sides, random_code, random_digit_word, random_group_word


# --- action ---------------------------------------------------------------

def test_act_translation_examples():
    aut = build_union([identity(1)], 3)
    tau = translation_word(aut, 0, 1)
    assert tau.act(DigitWord.parse("0 0", 3, 1)).format() == "1 0"
    # 8 + 1 = 9 = 0 mod 9: the carry ripples through both digits
    assert tau.act(DigitWord.parse("2 2", 3, 1)).format() == "0 0"


def test_act_empty_word(doubling3):
    u = DigitWord.parse("2 1 0", 3, 1)
    assert GroupWord(doubling3).act(u) == u


def test_act_single_state(doubling3):
    w = parse_word(doubling3, "m[0]:(0)")
    assert w.act(DigitWord.parse("2 1", 3, 1)).format() == "1 0"


def test_act_matches_oracle_per_state(doubling3, shear2):
    rng = random.Random(31)
    for aut in (doubling3, shear2):
        for sid, (mi, v) in enumerate(aut.labels):
            f = AffineMap(aut.matrices[mi], v)
            for _ in range(25):
                u = random_digit_word(rng, aut.n, aut.d, 8)
                assert GroupWord(aut, (sid,)).act(u) == affine_apply_prefix(f, u)


def test_act_inverse_state_matches_oracle(odometer2):
    # acting with the inverse of the decrement state adds one
    w = ~GroupWord(odometer2, (odometer2.state_id(0, (-1,)),))
    assert w.act(DigitWord.parse("0 0 0", 2, 1)).format() == "1 0 0"
    assert w.act(DigitWord.parse("1 1 0", 2, 1)).format() == "0 0 1"


def test_act_checks_base_and_dim(doubling3):
    with pytest.raises(WordError):
        GroupWord(doubling3).act(DigitWord.parse("0", 2, 1))


# --- wreath recursion -------------------------------------------------------

def test_root_and_sections_single_state(doubling3):
    w = parse_word(doubling3, "m[0]:(0)")
    perm, secs = w.root_and_sections()
    assert perm == (0, 2, 1)
    assert [s.format() for s in secs] == ["m[0]:(0)", "m[0]:(0)", "m[0]:(1)"]


def test_root_and_sections_cancelling_word(doubling3):
    w = parse_word(doubling3, "m[0]:(1) m[0]:(1)^-1")
    assert w.codes == ()
    perm, secs = w.root_and_sections()
    assert perm == (0, 1, 2)
    assert all(s.codes == () for s in secs)


def test_sections_never_grow(shear2):
    rng = random.Random(32)
    for _ in range(100):
        w = random_group_word(rng, shear2, 8)
        _, secs = w.root_and_sections()
        assert all(len(s) <= len(w) for s in secs)


def test_root_permutation_composes_outermost_first(doubling3):
    rng = random.Random(33)
    for _ in range(100):
        w1 = random_group_word(rng, doubling3, 4)
        w2 = random_group_word(rng, doubling3, 4)
        p1, _ = w1.root_and_sections()
        p2, _ = w2.root_and_sections()
        p12, _ = (w1 * w2).root_and_sections()
        assert p12 == tuple(p1[p2[x]] for x in range(len(p1)))


# --- word problem -----------------------------------------------------------

def test_is_identity_empty(doubling3):
    assert GroupWord(doubling3).is_identity()


def test_is_identity_translation_is_not(odometer2, doubling3):
    assert not translation_word(odometer2, 0, 1).is_identity()
    assert not translation_word(doubling3, 0, 1).is_identity()


def test_translations_commute_d2(shear2):
    t1 = translation_word(shear2, 0, 1)
    t2 = translation_word(shear2, 0, 2)
    assert (t1 * t2 * ~t1 * ~t2).is_identity()


def test_is_identity_budget_is_explicit(shear2):
    t1 = translation_word(shear2, 0, 1)
    t2 = translation_word(shear2, 0, 2)
    comm = t1 * t2 * ~t1 * ~t2
    with pytest.raises(BudgetExceededError) as exc:
        comm.is_identity(budget=1)
    assert exc.value.visited >= 1


def test_is_identity_agrees_with_finite_action():
    # finite-depth triviality is necessary, never sufficient: use it only to
    # falsify, and demand the closure confirms every claimed identity
    rng = random.Random(34)
    auts = [build_union([identity(1)], 2), build_union([[[3]]], 2),
            build_union([[[1, 1], [0, 1]]], 2)]
    from itertools import product
    for aut in auts:
        letters = [aut.letters[i] for i in range(aut.alphabet_size)]
        words = [DigitWord(ls, aut.n, aut.d) for k in range(7)
                 for ls in product(letters, repeat=k)]
        for _ in range(60):
            w = random_group_word(rng, aut, 4)
            claimed = w.is_identity()
            fixes_all = all(w.act(u) == u for u in words)
            if claimed:
                assert fixes_all
            if not fixes_all:
                assert not claimed


def test_equal(doubling3, shear2):
    rng = random.Random(35)
    w = random_group_word(rng, doubling3, 5)
    assert (w * ~w).is_identity()
    t1 = translation_word(shear2, 0, 1)
    t2 = translation_word(shear2, 0, 2)
    assert (t1 * t2 * ~(t2 * t1)).is_identity()
    assert not (t1 * ~(t1 * t1)).is_identity()


# --- group laws -------------------------------------------------------------

def test_homomorphism_inverse_prefix_properties(doubling3, shear2):
    rng = random.Random(36)
    for _ in range(300):
        aut = rng.choice((doubling3, shear2))
        w1 = random_group_word(rng, aut, 8)
        w2 = random_group_word(rng, aut, 8)
        u = random_digit_word(rng, aut.n, aut.d, 8)
        assert (w1 * w2).act(u) == w1.act(w2.act(u))
        assert (w1 * ~w1).act(u) == u
        t = rng.randint(0, len(u))
        assert w1.act(u).prefix(t) == w1.act(u.prefix(t))
        assert (w1 * ~w1).is_identity()


# --- translations and relations ---------------------------------------------

def test_translation_word_is_odometer(odometer2):
    tau = translation_word(odometer2, 0, 1)
    for k in range(1, 7):
        for val in range(2 ** k):
            u = encode((val,), 2, k)
            assert decode(tau.act(u)) == ((val + 1) % 2 ** k,)


def test_translation_word_axis():
    aut = build_union([identity(2)], 2)
    t2 = translation_word(aut, 0, 2)
    assert t2.act(DigitWord.parse("0,0", 2, 2)).format() == "0,1"
    t1 = translation_word(aut, 0, 1)
    assert t1.act(DigitWord.parse("0,0", 2, 2)).format() == "1,0"


def test_translation_word_against_oracle():
    rng = random.Random(37)
    for M, n in (([[2]], 3), ([[1, 1], [0, 1]], 2), ([[1, 0], [2, 1]], 3)):
        aut = build_union([M], n)
        d = aut.d
        for axis in range(1, d + 1):
            tau = translation_word(aut, 0, axis)
            f = AffineMap(identity(d), tuple(1 if i == axis - 1 else 0 for i in range(d)))
            for _ in range(50):
                u = random_digit_word(rng, n, d, 8)
                assert tau.act(u) == affine_apply_prefix(f, u)


def test_verify_relation_shear():
    aut = build_union([[[1, 1], [0, 1]]], 2)
    for axis in (1, 2):
        rep = verify_relation(aut, 0, axis)
        assert rep.ok
    # second column (1,1): conjugation turns t2 into t1*t2
    lhs, rhs = column_sides(aut, 0, 2)
    t1 = translation_word(aut, 0, 1)
    t2 = translation_word(aut, 0, 2)
    assert (rhs * ~(t1 * t2)).is_identity()
    assert (lhs * ~rhs).is_identity()


def test_verify_relation_doubling(doubling3):
    rep = verify_relation(doubling3, 0, 1)
    assert rep.ok
    lhs, rhs = column_sides(doubling3, 0, 1)
    tau = translation_word(doubling3, 0, 1)
    assert (rhs * ~(tau * tau)).is_identity()
    assert (lhs * ~rhs).is_identity()


def test_verify_relation_identity_matrix():
    aut = build_union([identity(2)], 3)
    for axis in (1, 2):
        assert verify_relation(aut, 0, axis).ok


def test_verify_relation_inverse_side():
    # m_0^-1 t_j m_0 = prod_i t_i^{(M^-1)_ij}: the conjugation run the other way
    M = matrix([[1, 1], [0, 1]])
    aut = build_union([M], 2)
    m0 = GroupWord(aut, (aut.state_id(0, (0, 0)),))
    for axis, visited in ((1, 2), (2, 3)):
        rhs = GroupWord(aut)
        for i, row in enumerate(inverse_unimodular(M), start=1):
            rhs = rhs * translation_word(aut, 0, i) ** row[axis - 1]
        assert decide_identity(~m0 * translation_word(aut, 0, axis) * m0 * ~rhs) == (True, visited)


def test_component_out_of_range_is_a_word_error():
    aut = build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3)
    for mi in (2, 3, 5, -1):
        for call in (lambda: translation_word(aut, mi, 1), lambda: verify_relation(aut, mi, 1)):
            with pytest.raises(WordError, match=f"^no component {mi} in this automaton$"):
                call()
    with pytest.raises(WordError, match="^no component 2 in this automaton$"):
        parse_word(aut, "t[1]@2")
    # True == 1 and 1.5 passes a range check, so only a type check keeps them out
    for mi in (True, 1.5, "0"):
        for call in (lambda: translation_word(aut, mi, 1), lambda: verify_relation(aut, mi, 1)):
            with pytest.raises(WordError, match=f"^no component {re.escape(repr(mi))} in this automaton$"):
                call()
    for axis in (1.5, True):
        for call in (lambda: translation_word(aut, 0, axis), lambda: verify_relation(aut, 0, axis)):
            with pytest.raises(WordError, match=f"^{re.escape(f'axis {axis} out of range 1..2')}$"):
                call()


def test_verify_relation_union_components():
    Ms = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    aut = build_union(Ms, 3)
    for mi in range(2):
        for axis in (1, 2):
            assert verify_relation(aut, mi, axis).ok


# --- conjugacy search --------------------------------------------------------

def test_conjugacy_search_equal_words(doubling3):
    tau = translation_word(doubling3, 0, 1)
    c = conjugacy_search_bounded(tau, tau, 0)
    assert c is not None and c.codes == ()


def test_conjugacy_search_finds_short_conjugator(doubling3):
    tau = translation_word(doubling3, 0, 1)
    m0 = parse_word(doubling3, "m[0]:(0)")
    target = m0 * tau * ~m0
    c = conjugacy_search_bounded(tau, target, 1)
    # the first hit in candidate order is the single state m[0]:(-2)
    assert c is not None and c.format() == "m[0]:(-2)"
    assert (c * tau * ~c * ~target).is_identity()


def test_conjugacy_search_skips_candidates_that_exhaust_the_budget(doubling3, shear2):
    # m[0]:(-2) certifies the conjugation by m[0]:(-1) after 6 closure nodes, m[0]:(-1) itself after 1
    tau = translation_word(doubling3, 0, 1)
    m1 = GroupWord(doubling3, (1,))
    target = m1 * tau * ~m1
    assert conjugacy_search_bounded(tau, target, 1).format() == "m[0]:(-2)"
    for budget in (1, 5):
        assert conjugacy_search_bounded(tau, target, 1, budget).format() == "m[0]:(-1)"
    # this conjugate of t1 equals t1, but the identity certifies that only after 7 nodes
    t1 = translation_word(shear2, 0, 1)
    target = GroupWord(shear2, (~1,)) * t1 * GroupWord(shear2, (1,))
    assert conjugacy_search_bounded(t1, target, 0, 7).codes == ()
    assert conjugacy_search_bounded(t1, target, 0, 6) is None
    assert conjugacy_search_bounded(t1, target, 1, 6).codes == (~1,)


def test_conjugacy_search_rejects_words_over_two_automata(doubling3):
    tau = translation_word(doubling3, 0, 1)
    other = translation_word(build_union([[[2]]], 3), 0, 1)
    for w1, w2 in ((tau, other), (other, tau)):
        with pytest.raises(WordError):
            conjugacy_search_bounded(w1, w2, 1)


def test_conjugacy_search_inconclusive_is_none(odometer2):
    tau = translation_word(odometer2, 0, 1)
    # tau and tau^2 are not conjugate (the group is abelian); the search must
    # come back empty-handed, never claim non-conjugacy
    assert conjugacy_search_bounded(tau, tau * tau, 2) is None


def test_negative_max_length_is_rejected(doubling3):
    # a negative bound once gave no words, and the search certified the identity
    tau = translation_word(doubling3, 0, 1)
    with pytest.raises(ValueError, match="max_length must be at least 0, got -5"):
        list(reduced_words(3, -5))
    with pytest.raises(ValueError, match="max_length must be at least 0, got -1"):
        conjugacy_search_bounded(tau, tau, -1)
    # a bool or a float once ran as a bound, or raised a bare TypeError from range()
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match=f"^max_length must be an int, got {bad}$"):
            list(reduced_words(3, bad))
        with pytest.raises(ValueError, match=f"^max_length must be an int, got {bad}$"):
            conjugacy_search_bounded(tau, tau, bad)
    # the rank too: True once enumerated as rank 1 and -1 gave [()] without a word
    for rank, message in ((True, "rank must be an int, got True"), (-1, "rank must be at least 0, got -1"),
                          (2.5, "rank must be an int, got 2.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(reduced_words(rank, 1))
    assert list(reduced_words(3, 0)) == [()]


# --- word grammar ------------------------------------------------------------

def test_parse_word_tokens(doubling3):
    w = parse_word(doubling3, "m[0]:(0) * m[0]:(-1)^-1")
    assert w == translation_word(doubling3, 0, 1)
    assert parse_word(doubling3, "t[1]") == w
    assert parse_word(doubling3, "t[1]^-1") == ~w
    assert parse_word(doubling3, "t[1]^3") == w * w * w
    assert parse_word(doubling3, "").codes == ()
    assert parse_word(doubling3, "t[1]^0").codes == ()


def test_parse_word_spaces_and_stars():
    aut = build_union([identity(2)], 2)
    a = parse_word(aut, "m[0]:(0,0) * t[2]^-1 * m[0]:(0,0)^-1")
    b = parse_word(aut, "m[0]:(0,0) t[2]^-1 m[0]:(0,0)^-1")
    assert a == b


def test_parse_word_component_suffix():
    aut = build_union([identity(1), [[3]]], 2)
    t_at_1 = parse_word(aut, "t[1]@1")
    assert t_at_1 == translation_word(aut, 1, 1)
    assert t_at_1 != translation_word(aut, 0, 1)
    assert (t_at_1 * ~translation_word(aut, 0, 1)).is_identity()


def test_parse_word_errors(doubling3):
    with pytest.raises(WordError):
        parse_word(doubling3, "m[0]:(7)")  # offset outside the box
    with pytest.raises(WordError):
        parse_word(doubling3, "m[1]:(0)")  # no such component
    with pytest.raises(WordError):
        parse_word(doubling3, "nonsense")
    with pytest.raises(WordError):
        parse_word(doubling3, "m[0]:(0,0)")  # wrong dimension
    with pytest.raises(WordError):
        parse_word(doubling3, "t[2]")  # axis out of range


@pytest.mark.parametrize("text", [
    "t[1]^10000000000000000000",
    "m[0]:(0)^-10000000000000000000",
    f"m[0]:(0)^{MAX_WORD_CODES + 1}",
    f"t[1]^{MAX_WORD_CODES // 2} m[0]:(0)",  # t[1] is 2 codes: the last token is one over in total
], ids=["huge-translation-power", "huge-state-power", "one-power-one-over", "running-total-one-over"])
def test_parse_word_refuses_words_past_the_code_cap(doubling3, text):
    token = text.split()[-1]
    with pytest.raises(WordError, match=re.escape(f"word token {token!r} expands the word past {MAX_WORD_CODES} codes")):
        parse_word(doubling3, text)


def test_parse_word_expands_up_to_the_code_cap(doubling3):
    assert len(parse_word(doubling3, f"m[0]:(0)^{MAX_WORD_CODES}").codes) == MAX_WORD_CODES


@pytest.mark.parametrize("text", [
    "m[" + "9" * 5000 + "]:(0)",
    "m[0]:(" + "9" * 5000 + ")",
    "t[" + "9" * 5000 + "]",
    "t[1]^" + "9" * 5000,
], ids=["component", "offset-coordinate", "axis", "exponent"])
def test_parse_word_names_a_token_with_a_number_too_long_to_convert(doubling3, text):
    with pytest.raises(WordError, match=re.escape(f"word token {repr(text)[:40]}... has a number too long to convert")) as e:
        parse_word(doubling3, text)
    assert len(str(e.value)) < 200


@pytest.mark.parametrize("text, start, end", [
    ("x" * 5000, "cannot parse word token 'xxxx", "x..."),
    ("m[0]:(" + ",".join(["0"] * 2000) + ")", "state offset 'm[0]:(0,0,", "has 2000 coordinates, expected 1"),
    ("m[0]:(0)^" + "0" * 50 + str(MAX_WORD_CODES + 1), "word token 'm[0]:(0)^0000",
     f"expands the word past {MAX_WORD_CODES} codes"),
], ids=["cannot-parse", "state-offset", "expands-past"])
def test_word_errors_quote_at_most_40_characters_of_a_token(doubling3, text, start, end):
    with pytest.raises(WordError) as e:
        parse_word(doubling3, text)
    message = str(e.value)
    assert message.startswith(start) and message.endswith(end) and len(message) < 200
    assert f"{repr(text)[:40]}..." in message and text[:40] not in message


NINES = "9" * 4000


@pytest.mark.parametrize("call, start", [
    (lambda aut: parse_word(aut, f"m[{NINES}]:(0)"), "no component 9999"),
    (lambda aut: parse_word(aut, f"t[1]@{NINES}"), "no component 9999"),
    (lambda aut: parse_word(aut, f"t[{NINES}]"), "axis 9999"),
    (lambda aut: parse_word(aut, f"m[0]:({NINES})"), "no state m[0]:(9999"),
    (lambda aut: translation_word(aut, 0, 10 ** 5000), "axis 1000"),
    (lambda aut: translation_word(aut, 10 ** 5000, 1), "no component 1000"),
], ids=["component", "translation-component", "axis", "state", "int-axis", "int-component"])
def test_word_errors_cut_a_long_number_to_40_characters(doubling3, call, start):
    # 10**5000 is past the interpreter's int-to-str limit, which once escaped as a bare ValueError
    with pytest.raises(WordError) as e:
        call(doubling3)
    message = str(e.value)
    assert message.startswith(start) and "..." in message and len(message) < 200
    assert re.search(r"\d{41}", message) is None


def test_powers_past_the_code_cap_are_refused(doubling3):
    t = translation_word(doubling3, 0, 1)  # 2 codes
    for k in (10 ** 19, -(10 ** 19), MAX_WORD_CODES // 2 + 1):
        with pytest.raises(WordError, match=f"expands past {MAX_WORD_CODES} codes"):
            t ** k
    assert (GroupWord(doubling3) ** 10 ** 19).codes == ()
    # True once ran as 1, and 2.5 or "2" raised a bare TypeError; the empty word returned itself for all three
    for w in (t, GroupWord(doubling3)):
        for k in (True, 2.5, "2"):
            with pytest.raises(ValueError, match=f"^exponent must be an int, got {k!r}$"):
                w ** k
    assert len((t ** (MAX_WORD_CODES // 2)).codes) == MAX_WORD_CODES
    assert len((t ** -(MAX_WORD_CODES // 2)).codes) == MAX_WORD_CODES


def test_format_parse_round_trip(shear2):
    rng = random.Random(38)
    for _ in range(100):
        w = random_group_word(rng, shear2, 6)
        w2 = parse_word(shear2, w.format())
        assert w2 == w and hash(w2) == hash(w)


def test_words_are_tied_to_their_automaton(doubling3):
    other = build_union([[[2]]], 3)
    with pytest.raises(WordError):
        GroupWord(doubling3) * GroupWord(other)


def test_free_reduction_nested(doubling3):
    w = GroupWord(doubling3, [0, 1, ~1, ~0, 2])
    assert w.codes == (2,)
    with pytest.raises(WordError):
        GroupWord(doubling3, [~9])
    with pytest.raises(WordError):
        GroupWord(doubling3, [9])


def test_factors_must_be_ints(doubling3):
    N = len(doubling3.labels)
    for bad in (1.0, True, (0, 1), N, ~N, "0"):
        with pytest.raises(WordError):
            GroupWord(doubling3, [0, bad])
    assert GroupWord(doubling3, [0, 0]).format() == "m[0]:(-2)^2"
    assert GroupWord(doubling3, [N - 1, ~(N - 1), ~(N - 1)]).format() == "m[0]:(1)^-1"


def test_closure_visited_counts(shear2):
    t1 = translation_word(shear2, 0, 1)
    ok, visited = decide_identity(t1 * ~t1, 10 ** 6)
    assert ok and visited == 1
    ok, visited = decide_identity(t1 * t1 * ~t1 * ~t1)
    assert ok and visited >= 1


def test_budget_below_one_rejected(shear2):
    from adicaut import presentation_for, relator_check
    t1 = translation_word(shear2, 0, 1)
    # a float or a bool once ran as a budget: True as 1, 2.5 as room for 3 words
    for budget, message in ((0, "at least 1"), (-5, "at least 1"),
                            (2.5, "must be an int, got 2.5"), (True, "must be an int, got True")):
        for call in (lambda: decide_identity(t1, budget),
                     lambda: decide_identity(GroupWord(shear2), budget),
                     lambda: t1.is_identity(budget),
                     lambda: (t1 * ~t1).is_identity(budget),
                     lambda: verify_relation(shear2, 0, 1, budget=budget),
                     lambda: relator_check(shear2, presentation_for(shear2.matrices), budget)):
            with pytest.raises(ValueError, match=message):
                call()
    # a budget past the interpreter's int-to-str limit is echoed cut, not refused by str()
    with pytest.raises(ValueError, match="at least 1, got -1000") as exc:
        decide_identity(t1, -10 ** 5000)
    assert len(str(exc.value)) < 200
    assert decide_identity(t1, 1) == (False, 1)


def iterated_power(w, k):
    "Reference power: |k| copies of w (or w^-1) multiplied in one at a time."
    base = w if k >= 0 else ~w
    out = GroupWord(w.aut)
    for _ in range(abs(k)):
        out = out * base
    return out


def test_power_matches_iterated_product(shear2):
    rng = random.Random(39)
    a, b = GroupWord(shear2, (3,)), GroupWord(shear2, (5,))
    # copies of a b a^-1 and a^-1 b a cancel at every boundary
    bases = [GroupWord(shear2), a, a * b * ~a, ~a * b * a, a * b * ~a * ~b]
    pool = (3, 5, 9)
    for _ in range(40):
        bases.append(GroupWord(shear2, [random_code(rng, pool) for _ in range(rng.randint(1, 6))]))
    for base in bases:
        for k in range(-9, 10):
            assert (base ** k).codes == iterated_power(base, k).codes


def test_parse_word_matches_iterated_product(shear2):
    rng = random.Random(40)
    tokens = ["m[0]:(0,0)", "m[0]:(-1,0)", "m[0]:(0,-1)", "t[1]", "t[2]"]
    for _ in range(200):
        parts = [(rng.choice(tokens), rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        text = " * ".join(f"{tok}^{k}" for tok, k in parts)
        reference = GroupWord(shear2)
        for tok, k in parts:
            reference = reference * iterated_power(parse_word(shear2, tok), k)
        assert parse_word(shear2, text).codes == reference.codes


# --- agreement with the per-letter closure ------------------------------------

def pairs(w):
    "The word as (state id, +1|-1) pairs, the form the reference implementations below read."
    return tuple((c, 1) if c >= 0 else (~c, -1) for c in w.codes)


def reference_reduce(factors):
    out = []
    for sid, e in factors:
        if out and out[-1] == (sid, -e):
            out.pop()
        else:
            out.append((sid, e))
    return tuple(out)


def reference_root_and_sections(aut, factors):
    "Wreath recursion one letter at a time: the letter walks the factors right to left."
    perm, sections = [], []
    for x in range(aut.alphabet_size):
        sec = []
        for sid, e in reversed(factors):
            out, nxt = aut.rows[sid]
            if e == -1:
                x = out.index(x)
            sec.append((nxt[x], e))
            if e == 1:
                x = out[x]
        perm.append(x)
        sections.append(reference_reduce(reversed(sec)))
    return tuple(perm), sections


def reference_decide(aut, factors, budget, expand, expanded=None):
    """Breadth-first closure under sections, `expand(factors)` giving the root
    permutation and reduced sections; ('budget', visited) when the budget runs out.
    `expanded`, if given, collects the words in the order they are expanded."""
    if not factors:
        return True, 1
    identity_perm = tuple(range(aut.alphabet_size))
    visited = {factors}
    queue = [factors]
    for fac in queue:
        if expanded is not None:
            expanded.append(fac)
        perm, sections = expand(fac)
        if perm != identity_perm:
            return False, len(visited)
        for f in sections:
            if f and f not in visited:
                if len(visited) >= budget:
                    return "budget", len(visited)
                visited.add(f)
                queue.append(f)
    return True, len(visited)


def agreement_words(rng, aut):
    """Mixed-sign words over a few states, and conjugates r w r^-1 of
    identities (a translation commutator, the relation m t_1 m^-1 = column
    word) and of translation powers t^(2^k), whose sections cancel deep down."""
    nstates = len(aut.labels)
    pool = rng.sample(range(nstates), min(nstates, 3))

    def word(k):
        return GroupWord(aut, [random_code(rng, pool) for _ in range(k)])
    t = [translation_word(aut, 0, j) for j in range(1, aut.d + 1)]
    lhs, rhs = column_sides(aut, 0, 1)
    words = [word(rng.randint(1, 8)) for _ in range(3)]
    for _ in range(4):
        r = word(rng.randint(1, 3))
        a, b = rng.sample(t, 2) if aut.d > 1 else (t[0], lhs * ~rhs)
        ka, kb = rng.randint(1, 3), rng.randint(1, 2)
        words.append(r * a ** ka * b ** kb * ~a ** ka * ~b ** kb * ~r)
        words.append(r * lhs * ~rhs * ~r)
        words.append(r * rng.choice(t) ** (2 ** rng.randint(1, 4)) * ~r)
    return words


def test_closure_agrees_with_per_letter_reference(doubling3, shear2):
    from functools import cache

    from adicaut import block_extend, identity, sanov_pair
    auts = [doubling3, shear2, build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3),
            build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)]
    rng = random.Random(41)
    outcomes = []
    for aut in auts:
        expand = cache(lambda factors: reference_root_and_sections(aut, factors))  # budget runs revisit words
        for w in agreement_words(rng, aut):
            perm, sections = w.root_and_sections()
            assert (perm, [pairs(s) for s in sections]) == reference_root_and_sections(aut, pairs(w))
            answer, visited = reference_decide(aut, pairs(w), 10 ** 6, expand)
            assert decide_identity(w) == (answer, visited)
            outcomes.append((answer, visited > 1))
            for budget in range(1, visited + 1):
                expected = reference_decide(aut, pairs(w), budget, expand)
                if expected[0] == "budget":
                    with pytest.raises(BudgetExceededError) as exc:
                        decide_identity(w, budget)
                    assert exc.value.visited == expected[1]
                else:
                    assert decide_identity(w, budget) == expected
    assert {(True, True), (False, True), (False, False)} <= set(outcomes)


def past_the_switch_cases():
    """Closures of 445 to 1336 words, past the 256 after which `decide_identity`
    walks 4-code blocks, with their verdicts and visited counts: on the d=2
    Sanov union, m t_1 m^-1 t_1^-a t_2^-70 for m = (m_0 m_1)^3, an identity
    at a=169; on the d=3 union, two mixed ladders of the benchmark's wp pass.
    Sections keep a word's length parity and every identity over the Sanov
    pair has even length, so odd words come from adding the identity matrix,
    whose state m[2]:(0,0) acts trivially."""
    from adicaut import block_extend, sanov_pair
    sanov2 = build_union(list(sanov_pair()), 2)
    odd = build_union(list(sanov_pair()) + [identity(2)], 2)
    sanov3 = build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)
    m2 = "m[0]:(0,0) m[1]:(0,0) " * 3 + "t[1] " + "m[1]:(0,0)^-1 m[0]:(0,0)^-1 " * 3
    m3 = "m[0]:(0,0,0) m[1]:(0,0,0) " * 3 + "{} " + "m[1]:(0,0,0)^-1 m[0]:(0,0,0)^-1 " * 3
    cases = [(sanov2, f"{m2} t[1]^-{a} t[2]^-70", pinned)
             for a, pinned in ((169, (True, 1108)), (201, (False, 445)), (233, (False, 674)),
                               (297, (False, 954)), (425, (False, 1266)))]
    cases += [(sanov3, m3.format("t[3]") + "t[3]^-29 t[2]^-70", (True, 999)),
              (sanov3, m3.format("t[2]") + "t[3]^-70 t[2]^-169", (True, 1336)),
              (odd, f"{m2} t[1]^-169 t[2]^-70 m[2]:(0,0)", (True, 1109))]
    return cases


def test_closure_agrees_with_per_letter_reference_past_256_words():
    # every budget from 1 up is checked on small closures above; here the
    # budgets that cut at, around and past the switch to blocks
    from functools import cache
    lengths = set()
    for aut, text, pinned in past_the_switch_cases():
        w = parse_word(aut, text)
        expand = cache(lambda factors: reference_root_and_sections(aut, factors))
        expanded = []
        assert decide_identity(w) == reference_decide(aut, pairs(w), 10 ** 6, expand, expanded) == pinned
        lengths |= {len(f) % 4 for f in expanded[256:]}
        for budget in (1, 255, 256, 257, pinned[1] - 1, pinned[1]):
            expected = reference_decide(aut, pairs(w), budget, expand)
            if expected[0] == "budget":
                with pytest.raises(BudgetExceededError) as exc:
                    decide_identity(w, budget)
                assert exc.value.visited == expected[1]
            else:
                assert decide_identity(w, budget) == expected
    # words past the switch end in blocks of every length 1..4
    assert lengths == {0, 1, 2, 3}


def test_the_block_memo_lives_for_one_call():
    from adicaut import from_json, to_json
    aut, text, pinned = past_the_switch_cases()[0]
    given = aut.rows[:len(aut.labels)]
    copy = from_json(to_json(aut))
    w = parse_word(aut, text)
    assert decide_identity(w) == decide_identity(w) == decide_identity(parse_word(copy, text)) == pinned
    assert aut.rows[:len(aut.labels)] == given


def reference_act(aut, factors, u):
    "Two-branch act: positive factors read out/nxt, negative ones the inverted out row."
    seq = [aut.letter_index(x) for x in u.letters]
    for sid, e in reversed(factors):
        cur = sid
        for i, y in enumerate(seq):
            out, nxt = aut.rows[cur]
            if e == 1:
                seq[i] = out[y]
                cur = nxt[y]
            else:
                x = out.index(y)
                seq[i] = x
                cur = nxt[x]
    return DigitWord(tuple(aut.letters[i] for i in seq), u.base, u.dim)


def test_act_agrees_with_per_letter_reference(doubling3, shear2):
    from adicaut import block_extend, identity, sanov_pair
    auts = [doubling3, shear2, build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3),
            build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)]
    rng = random.Random(42)
    for aut in auts:
        for _ in range(40):
            w = random_group_word(rng, aut, 12, min_len=1)
            u = random_digit_word(rng, aut.n, aut.d, 16, min_len=1)
            assert w.act(u) == reference_act(aut, pairs(w), u)
            assert (~w).act(w.act(u)) == u


def test_act_with_shrinking_sections():
    # the sections of t[j]^k shrink about n-fold per letter and reach the identity
    # once the carry dies out; every image must still match the sweep and the oracle
    from adicaut import block_extend, sanov_pair
    rng = random.Random(43)
    for aut in (build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3),
                build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)):
        zero = (0,) * aut.d
        for k in (1, -1, 7, -7, 64, -64, 1000, -1000):
            axis = rng.randint(1, aut.d)
            t = translation_word(aut, rng.randrange(len(aut.matrices)), axis) ** k
            states = random_group_word(rng, aut, 4, min_len=1), random_group_word(rng, aut, 4, min_len=1)
            for w in (t, states[0] * t * states[1]):
                u = random_digit_word(rng, aut.n, aut.d, 256, min_len=64)
                image = w.act(u)
                assert image == reference_act(aut, pairs(w), u)
                assert image == affine_apply_prefix(affine_map(w), u)
                assert w.act(DigitWord((), aut.n, aut.d)) == DigitWord((), aut.n, aut.d)
            if k > 0:
                # on the zero word the section is the identity after about log_n k letters
                u = DigitWord((zero,) * 64, aut.n, aut.d)
                image = t.act(u)
                assert image == reference_act(aut, pairs(t), u)
                assert decode(image) == tuple(k if i == axis - 1 else 0 for i in range(aut.d))
                assert image.letters[16:] == u.letters[16:]


def test_a_state_without_an_inverse_cannot_be_built():
    from adicaut import Automaton
    # state 0 writing 0 on both letters once acted forwards and raised only when inverted; an entry
    # out of range once wrapped round to the inverse row ((0, 1), (-1, -1)) or raised a bare IndexError
    for out in ((0, 0), (0, -1), (0, 2), (0, 1.0)):
        with pytest.raises(ValueError, match=r"^state 0: out is not a permutation of range\(2\)$"):
            Automaton(2, 1, [((1,),)], [(0, (0,)), (0, (-1,))], [(out, (0, 0)), ((1, 0), (1, 0))])
    # so every state inverts: the odometer and its inverse undo each other
    aut = Automaton(2, 1, [((1,),)], [(0, (0,)), (0, (-1,))], [((0, 1), (0, 0)), ((1, 0), (1, 0))])
    assert aut.row(~1) == ((1, 0), (~0, ~1)) and aut.row(~0) == ((0, 1), (~0, ~0))
    u = DigitWord.parse("1 0", 2, 1)
    for w in (GroupWord(aut, [1, ~1]), GroupWord(aut, [~1, 1])):
        assert w.act(u) == u
