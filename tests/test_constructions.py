import random
import re
import tracemalloc

import pytest

from adicaut import (
    Presentation,
    block_diag,
    WordError,
    block_extend,
    build_union,
    Decision,
    decide,
    dedup,
    det,
    identity,
    inverse_unimodular,
    mat_mul,
    presentation_for,
    relator_check,
    row_sum_norm,
    sanov_pair,
    state_count_bound,
    verify_relation,
    word_matrix,
)

from conftest import column_sides, reduced_words


def test_block_extend_sanov_to_d6():
    Ms = block_extend([identity(4), identity(4)], list(sanov_pair()))
    assert len(Ms) == 2
    for M in Ms:
        assert len(M) == 6
        assert det(M) == 1
        assert row_sum_norm(M) == 3
    A, B = sanov_pair()
    assert Ms[0][4][4:] == A[0] and Ms[0][5][4:] == A[1]
    assert Ms[1][4][4:] == B[0] and Ms[1][5][4:] == B[1]


def test_block_extend_identity_pair():
    (M,) = block_extend([identity(2)], [identity(2)])
    assert M == identity(4)


def test_block_extend_errors():
    with pytest.raises(ValueError):
        block_extend([identity(2)], [identity(2), identity(2)])
    with pytest.raises(ValueError):
        block_extend([identity(2)], [identity(3)])
    with pytest.raises(ValueError):
        block_extend([], [])


@pytest.mark.parametrize("uppers, lowers, message", [
    ([identity(2)], [identity(2), identity(2)], "got 1 upper blocks but 2 lower blocks"),
    ([], [], "need at least one matrix"),
    ([identity(2), identity(3)], list(sanov_pair()), "matrices[1] is 3x3, expected 2x2"),
    ([identity(2)], [identity(3)], "lower blocks must be 2x2, got 3x3"),
], ids=["count-mismatch", "empty", "mixed-upper-sizes", "lower-not-2x2"])
def test_block_extend_rejections(uppers, lowers, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        block_extend(uppers, lowers)


def test_block_multiplication_respects_blocks():
    rng = random.Random(41)
    for _ in range(50):
        A, B, C, D = (tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
                      for _ in range(4))
        assert mat_mul(block_diag(A, B), block_diag(C, D)) == block_diag(mat_mul(A, C), mat_mul(B, D))


def test_sanov_pair_values():
    A, B = sanov_pair()
    assert A == ((1, 2), (0, 1)) and B == ((1, 0), (2, 1))
    assert mat_mul(A, B) != mat_mul(B, A)
    assert word_matrix((), [A, B]) == identity(2)


def test_sanov_words_distinct_up_to_6():
    # desk-scale freeness evidence at reduced length <= 6 (length 8 runs in
    # the acceptance suite)
    A, B = sanov_pair()
    seen = {}
    count = 0
    for w in reduced_words(2, 6):
        m = word_matrix(w, [A, B])
        assert m not in seen, f"{w} and {seen[m]} collide"
        seen[m] = w
        count += 1
    assert count == 1 + 4 * (3 ** 6 - 1) // 2


def test_reduced_words_counts():
    assert sum(1 for _ in reduced_words(2, 0)) == 1
    assert sum(1 for _ in reduced_words(2, 1)) == 5
    assert sum(1 for _ in reduced_words(2, 2)) == 17


def test_reduced_words_yields_a_level_before_building_it_whole():
    # the 360000 words of length 2 over 300 generators once sat in one list (22 MB) before the first was yielded
    tracemalloc.start()
    try:
        first = next(w for w in reduced_words(300, 2) if len(w) == 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0, 0)
    assert peak < 10 ** 6


def test_reduced_words_are_codes_in_order():
    assert list(reduced_words(2, 1)) == [(), (0,), (~0,), (1,), (~1,)]
    assert (0, ~0) not in set(reduced_words(2, 2)) and (~1, 1) not in set(reduced_words(2, 2))
    A, B = sanov_pair()
    assert word_matrix((~0, 1), [A, B]) == mat_mul(inverse_unimodular(A), B)


MIXED = [[[1]], [[1, 0], [0, 1]]]


# over two matrices the last four codes once raised IndexError or TypeError, and True silently read mats[1]
@pytest.mark.parametrize("call, message", [
    (lambda: presentation_for([]), "need at least one matrix"),
    (lambda: word_matrix((), []), "need at least one matrix"),
    (lambda: word_matrix((0,), []), "need at least one matrix"),
    *[(lambda c=c: word_matrix((0, c), list(sanov_pair())), f"code {c!r} is not an int in range (got 2 matrices)")
      for c in (5, ~5, 0.0, True)],
    (lambda: state_count_bound(MIXED), "matrices[1] is 2x2, expected 1x1"),
    (lambda: word_matrix((0, 1), MIXED), "matrices[1] is 2x2, expected 1x1"),
    (lambda: presentation_for(MIXED), "matrices[1] is 2x2, expected 1x1"),
], ids=["presentation_for", "word_matrix-empty-word", "word_matrix",
        "word_matrix-code-past-the-end", "word_matrix-inverse-past-the-end", "word_matrix-float", "word_matrix-bool",
        "state_count_bound-mixed-size", "word_matrix-mixed-size", "presentation_for-mixed-size"])
def test_an_empty_matrix_list_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_presentation_doubling_is_bs12():
    p = presentation_for([[[2]]])
    assert p.abelian_generators == ("a1",)
    assert p.stable_generators == ("t",)
    assert p.relators == ((("t", 1), ("a1", 1), ("t", -1), ("a1", -2)),)
    assert p.ascending_hnn
    assert p.format() == "< a1, t | t a1 t^-1 a1^-2 >"


def test_presentation_identity_d2():
    p = presentation_for([identity(2)])
    assert not p.ascending_hnn
    assert (("a1", 1), ("a2", 1), ("a1", -1), ("a2", -1)) in p.relators
    assert (("t", 1), ("a1", 1), ("t", -1), ("a1", -1)) in p.relators
    assert (("t", 1), ("a2", 1), ("t", -1), ("a2", -1)) in p.relators
    assert "[a1,a2]" in p.format()


def test_presentation_shear_column_readoff():
    p = presentation_for([[[1, 1], [0, 1]]])
    assert (("t", 1), ("a2", 1), ("t", -1), ("a2", -1), ("a1", -1)) in p.relators
    assert not p.ascending_hnn


def test_presentation_multiple_stable_letters():
    p = presentation_for(list(sanov_pair()))
    assert p.stable_generators == ("t1", "t2")


def test_relator_check_bs12():
    aut = build_union([[[2]]], 3)
    rep = relator_check(aut, presentation_for([[[2]]]))
    assert rep.ok
    assert all(r.outcome == "pass" for r in rep.results)


def test_relator_check_identity_commutators():
    aut = build_union([identity(2)], 2)
    rep = relator_check(aut, presentation_for([identity(2)]))
    assert rep.ok


def test_relator_check_union():
    Ms = list(sanov_pair())
    aut = build_union(Ms, 3)
    rep = relator_check(aut, presentation_for(Ms))
    assert rep.ok


def test_relator_check_detects_corrupt_relator():
    aut = build_union([[[2]]], 3)
    # t a t^-1 = a^3 is wrong for the doubling matrix
    bad = Presentation(("a1",), ("t",),
                       ((("t", 1), ("a1", 1), ("t", -1), ("a1", -3)),), True)
    rep = relator_check(aut, bad)
    assert not rep.ok
    assert rep.results[0].outcome == "fail"


def test_relator_check_budget_is_per_relator():
    M = [[1, 1], [0, 1]]
    aut = build_union([M], 2)
    p = presentation_for([M])
    rep = relator_check(aut, p, budget=1)
    assert not rep.ok
    assert any(r.outcome == "budget-exceeded" for r in rep.results)
    # other relators are still reported
    assert len(rep.results) == len(p.relators)


def test_relator_check_validates_shape():
    aut = build_union([[[2]]], 3)
    with pytest.raises(ValueError):
        relator_check(aut, presentation_for([identity(2)]))
    with pytest.raises(ValueError, match="^presentation has 2 stable letters, automaton has 1 components$"):
        relator_check(aut, presentation_for([[[2]], [[2]]]))
    # an exponent of True once decided the relator as if it were 1
    with pytest.raises(ValueError, match="^exponent must be an int, got True$"):
        relator_check(aut, Presentation(("a1",), ("t",), ((("t", True),),), False))


def test_relator_check_unknown_generator():
    aut = build_union([[[2]]], 3)
    pres = Presentation(("a1",), ("t",), ((("t", 1), ("b", 1)),), False)
    with pytest.raises(ValueError, match="relator uses unknown generator 'b'"):
        relator_check(aut, pres)


def test_relator_check_names_a_component_without_a_zero_offset_state():
    # dedup merges the second shear component into the first, leaving it empty
    shear = [[1, 1], [0, 1]]
    aut = dedup(build_union([shear, shear], 2))
    assert aut.component_range(1)[0] == aut.component_range(1)[1]
    with pytest.raises(WordError, match=r"^no state m\[1\]:\(0,0\) in this automaton$"):
        relator_check(aut, presentation_for(aut.matrices))


@pytest.mark.parametrize("Ms, n", [
    ([[[2]]], 3),
    ([[[1, 1], [0, 1]]], 2),
    (block_extend([identity(1)] * 2, list(sanov_pair())), 2),
    (block_extend([identity(1)] * 2, list(sanov_pair())), 3),
    (block_extend([identity(2)] * 2, list(sanov_pair())), 2),
    (block_extend([identity(2)] * 2, list(sanov_pair())), 3),
], ids=["doubling-n3", "shear-n2", "sanov-d3-n2", "sanov-d3-n3", "sanov-d4-n2", "sanov-d4-n3"])
def test_relator_check_columns_are_verify_relation_rows(Ms, n):
    # each stable letter's column relators read its own component's translations
    aut = build_union(Ms, n)
    d = aut.d
    cells = [(mi, axis) for mi in range(len(Ms)) for axis in range(1, d + 1)]
    for budget in (10 ** 6, 3):  # with 3, exhaustion is an outcome on both sides
        rep = relator_check(aut, presentation_for(aut.matrices), budget)
        rows = [verify_relation(aut, mi, axis, budget) for mi, axis in cells]
        assert [(r.outcome, r.visited) for r in rep.results[d * (d - 1) // 2:]] == [
            (r.outcome, r.visited) for r in rows]
    for (mi, axis), r in zip(cells, rows):
        assert r.ok == (r.outcome == "pass")
        lhs, rhs = column_sides(aut, mi, axis)
        assert decide(lhs * ~rhs) == Decision("identity", verify_relation(aut, mi, axis).visited)


def test_relator_check_visited_on_the_d3_sanov_union():
    aut = build_union(block_extend([identity(1)] * 2, list(sanov_pair())), 2)
    rep = relator_check(aut, presentation_for(aut.matrices))
    assert rep.ok
    assert [r.visited for r in rep.results] == [6, 5, 5, 7, 4, 3, 7, 5, 4]
    assert verify_relation(aut, 1, 2).relator == "t2 a2 t2^-1 a3^-2 a2^-1"
