import dataclasses
import random

import pytest

from adicaut import (
    AlphabetCapError,
    Automaton,
    BuildError,
    FormatError,
    GroupWord,
    build_single,
    build_union,
    dedup,
    from_json,
    identity,
    state_count_bound,
    to_dot,
    to_json,
    well_definedness_check,
)

from conftest import random_digit_word


def test_doubling_tables(doubling3):
    aut = doubling3
    assert [st.offset for st in aut.states] == [(-2,), (-1,), (0,), (1,)]
    m0 = aut.state_id(0, (0,))
    st = aut.states[m0]
    # 0 + 2*2 = 4 = 1 + 3*1: output letter 1, next state offset 1
    assert st.out[2] == 1
    assert aut.states[st.nxt[2]].offset == (1,)
    # full tables, derived by hand from v + 2x = r + 3q
    assert st.out == (0, 2, 1)
    assert st.nxt == (2, 2, 3)
    assert aut.states[0].out == (1, 0, 2)
    assert aut.states[0].nxt == (1, 2, 2)


def test_odometer_tables(odometer2):
    aut = odometer2
    assert len(aut.states) == 2
    dec, ident = aut.states[0], aut.states[1]
    assert ident.offset == (0,)
    # identity state: copies the letter and stays put
    assert ident.out == (0, 1) and ident.nxt == (1, 1)
    # decrement state: flips the letter, keeps borrowing on 0
    assert dec.offset == (-1,)
    assert dec.out == (1, 0) and dec.nxt == (0, 1)


def test_shear_state_count(shear2):
    assert len(shear2.states) == 16


def test_union_single_matches_bound(doubling3):
    aut = build_union([[[2]]], 3)
    assert aut == doubling3 or aut.states == doubling3.states
    assert len(aut.states) == 4 == state_count_bound([[[2]]])


def test_union_disjoint_copies():
    aut = build_union([identity(1), identity(1)], 2)
    assert len(aut.states) == 4
    assert aut.components == ((0, 2), (2, 4))
    # two separate copies, no cross-component arrows
    for sid in range(2):
        assert all(t < 2 for t in aut.states[sid].nxt)
    for sid in range(2, 4):
        assert all(t >= 2 for t in aut.states[sid].nxt)


def test_union_counts_d2():
    Ms = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    aut = build_union(Ms, 3)
    sizes = [e - s for s, e in aut.components]
    assert sizes == [36, 36]
    assert len(aut.states) == 72 <= state_count_bound(Ms) == 72


def test_build_rejections():
    with pytest.raises(BuildError, match="determinant 0"):
        build_single([[0]], 2)
    with pytest.raises(BuildError, match="gcd=2"):
        build_single([[2]], 2)
    with pytest.raises(BuildError, match="gcd=3"):
        build_union([[[1]], [[3]]], 3)
    with pytest.raises(AlphabetCapError):
        build_single(identity(2), 3, alphabet_cap=8)
    with pytest.raises(BuildError):
        build_union([identity(2), identity(3)], 2)
    with pytest.raises(BuildError):
        build_union([], 2)
    with pytest.raises(BuildError):
        build_single([[1]], 1)


def test_deterministic_construction():
    a = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    b = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    assert a == b
    assert to_json(a) == to_json(b)


def test_output_tables_are_permutations():
    rng = random.Random(21)
    for _ in range(40):
        d = rng.randint(1, 2)
        n = rng.choice([2, 3, 5])
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        from adicaut import coprime_to
        if not coprime_to(M, n):
            continue
        aut = build_single(M, n)
        for st in aut.states:
            assert sorted(st.out) == list(range(aut.alphabet_size))


def test_well_definedness_pass(doubling3, shear2):
    for aut in (doubling3, shear2):
        rep = well_definedness_check(aut)
        assert rep.ok and not rep.failures
        assert rep.checked == len(aut.states) * aut.alphabet_size


def test_well_definedness_range_example(doubling3):
    # state with offset 1 reading letter 2: v + Mx = 5, inside [-6, 5]
    sid = doubling3.state_id(0, (1,))
    st = doubling3.states[sid]
    assert st.offset[0] + 2 * 2 == 5
    assert well_definedness_check(doubling3).ok


def test_well_definedness_catches_corrupt_next(doubling3):
    states = list(doubling3.states)
    st = states[2]
    bad = dataclasses.replace(st, nxt=(st.nxt[0], st.nxt[1], 0))
    states[2] = bad
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, tuple(states), doubling3.components)
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert any(f.state == 2 and f.letter == 2 for f in rep.failures)


def test_well_definedness_catches_corrupt_output(doubling3):
    states = list(doubling3.states)
    st = states[1]
    bad = dataclasses.replace(st, out=(st.out[1], st.out[0], st.out[2]))
    states[1] = bad
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, tuple(states), doubling3.components)
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert {f.state for f in rep.failures} == {1}


def test_well_definedness_catches_offset_outside_box(doubling3):
    states = list(doubling3.states)
    states[3] = dataclasses.replace(states[3], offset=(100,))
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, tuple(states), doubling3.components)
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert any("outside" in f.reason for f in rep.failures)


def test_json_round_trip(doubling3, shear2):
    for aut in (doubling3, shear2, build_union([identity(1), identity(1)], 2)):
        again = from_json(to_json(aut))
        assert again == aut


def test_json_records_components():
    import json
    aut = build_union([[[2]], [[2]]], 3)
    obj = json.loads(to_json(aut))
    assert [s["m"] for s in obj["states"]] == [0] * 4 + [1] * 4
    assert from_json(to_json(aut)).components == ((0, 4), (4, 8))


def test_json_parse_error_location():
    with pytest.raises(FormatError, match=r"line 2 column"):
        from_json('{\n  "n": 3,,\n}')


def test_json_schema_errors(doubling3):
    import json
    obj = json.loads(to_json(doubling3))
    del obj["states"][0]["out"]
    with pytest.raises(FormatError, match=r"states\[0\]"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(doubling3))
    obj["states"][1]["next"] = [0, 0]
    with pytest.raises(FormatError, match=r"states\[1\].next"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(doubling3))
    obj["states"][2]["out"] = [0, 0, 0]
    with pytest.raises(FormatError, match=r"states\[2\].out is not a permutation"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(doubling3))
    obj["n"] = 1
    with pytest.raises(FormatError, match="n must be"):
        from_json(json.dumps(obj))


def test_dot_export(odometer2):
    dot = to_dot(odometer2)
    assert dot.count("label=\"m[") == 2
    assert dot.count("->") == 4
    assert 'm[0]:(-1)' in dot and 'm[0]:(0)' in dot
    assert '"0|1"' in dot  # decrement writes 1 on reading 0


def test_dedup_merges_identical_components():
    aut = build_union([identity(1), identity(1)], 2)
    small = dedup(aut)
    assert len(small.states) == 2
    # same behavior on sample words
    rng = random.Random(22)
    for _ in range(50):
        u = random_digit_word(rng, 2, 1, 6)
        sid = rng.randrange(2)
        w_big = GroupWord.from_state(aut, aut.state_id(0, aut.states[sid].offset))
        w_small = GroupWord.from_state(small, small.state_id(0, small.states[sid].offset))
        assert w_big.act(u) == w_small.act(u)


def test_dedup_keeps_distinct_states(doubling3):
    assert len(dedup(doubling3).states) == 4


def test_letter_codec(doubling3):
    aut = build_single(identity(2), 3)
    for i in range(aut.alphabet_size):
        assert aut.letter_index(aut.letter_digits(i)) == i


def test_export_dispatch(doubling3):
    from adicaut import export
    assert export(doubling3) == to_json(doubling3)
    assert export(doubling3, "dot") == to_dot(doubling3)
    with pytest.raises(ValueError):
        export(doubling3, "xml")
