import random

import pytest

from adicaut import (
    AlphabetCapError,
    Automaton,
    BuildError,
    FormatError,
    GroupWord,
    build_union,
    dedup,
    from_json,
    identity,
    matrix,
    offset_box,
    state_count_bound,
    to_dot,
    to_json,
    well_definedness_check,
)

from conftest import random_digit_word


def tables(aut):
    "The state tables (out, nxt) as given, rows[:N], as a list to corrupt."
    return list(aut.rows[:len(aut.labels)])


def test_doubling_tables(doubling3):
    aut = doubling3
    assert [v for _, v in aut.labels] == [(-2,), (-1,), (0,), (1,)]
    m0 = aut.state_id(0, (0,))
    out, nxt = aut.rows[m0]
    # 0 + 2*2 = 4 = 1 + 3*1: output letter 1, next state offset 1
    assert out[2] == 1
    assert aut.labels[nxt[2]][1] == (1,)
    # full tables, derived by hand from v + 2x = r + 3q
    assert out == (0, 2, 1)
    assert nxt == (2, 2, 3)
    assert aut.rows[0][0] == (1, 0, 2)
    assert aut.rows[0][1] == (1, 2, 2)


def test_odometer_tables(odometer2):
    aut = odometer2
    assert len(aut.labels) == 2
    (dec_out, dec_nxt), (ident_out, ident_nxt) = aut.rows[0], aut.rows[1]
    assert aut.labels[1][1] == (0,)
    # identity state: copies the letter and stays put
    assert ident_out == (0, 1) and ident_nxt == (1, 1)
    # decrement state: flips the letter, keeps borrowing on 0
    assert aut.labels[0][1] == (-1,)
    assert dec_out == (1, 0) and dec_nxt == (0, 1)


def test_shear_state_count(shear2):
    assert len(shear2.labels) == 16


def test_union_single_matches_bound(doubling3):
    aut = build_union([[[2]]], 3)
    assert aut == doubling3 or (aut.labels, tables(aut)) == (doubling3.labels, tables(doubling3))
    assert len(aut.labels) == 4 == state_count_bound([[[2]]])


def test_union_disjoint_copies():
    aut = build_union([identity(1), identity(1)], 2)
    assert len(aut.labels) == 4
    assert aut.components == ((0, 2), (2, 4))
    # two separate copies, no cross-component arrows
    for sid in range(2):
        assert all(t < 2 for t in aut.rows[sid][1])
    for sid in range(2, 4):
        assert all(t >= 2 for t in aut.rows[sid][1])
    with pytest.raises(ValueError, match="grouped by ascending matrix index"):
        Automaton(aut.n, aut.d, aut.matrices, aut.labels[::-1], tables(aut)[::-1])


def test_union_counts_d2():
    Ms = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    aut = build_union(Ms, 3)
    sizes = [e - s for s, e in aut.components]
    assert sizes == [36, 36]
    # each component lists its offset box in offset_box order
    for mi, M in enumerate(Ms):
        s, e = aut.component_range(mi)
        assert [v for _, v in aut.labels[s:e]] == offset_box(matrix(M))
    assert len(aut.labels) == 72 <= state_count_bound(Ms) == 72


def test_build_rejections():
    with pytest.raises(BuildError, match="determinant 0"):
        build_union([[[0]]], 2)
    with pytest.raises(BuildError, match="gcd=2"):
        build_union([[[2]]], 2)
    with pytest.raises(BuildError, match="gcd=3"):
        build_union([[[1]], [[3]]], 3)
    with pytest.raises(AlphabetCapError):
        build_union([identity(2)], 3, alphabet_cap=8)
    with pytest.raises(BuildError):
        build_union([identity(2), identity(3)], 2)
    with pytest.raises(BuildError):
        build_union([], 2)
    with pytest.raises(BuildError):
        build_union([[[1]]], 1)


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
        aut = build_union([M], n)
        for out, _ in tables(aut):
            assert sorted(out) == list(range(aut.alphabet_size))


def test_well_definedness_pass(doubling3, shear2):
    for aut in (doubling3, shear2):
        rep = well_definedness_check(aut)
        assert rep.ok and not rep.failures
        assert rep.checked == len(aut.labels) * aut.alphabet_size


def test_well_definedness_range_example(doubling3):
    # state with offset 1 reading letter 2: v + Mx = 5, inside [-6, 5]
    sid = doubling3.state_id(0, (1,))
    assert doubling3.labels[sid][1][0] + 2 * 2 == 5
    assert well_definedness_check(doubling3).ok


def test_well_definedness_catches_corrupt_next(doubling3):
    rows = tables(doubling3)
    out, nxt = rows[2]
    rows[2] = out, (nxt[0], nxt[1], 0)
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, doubling3.labels, rows)
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert any(f.state == 2 and f.letter == 2 for f in rep.failures)


def test_well_definedness_catches_corrupt_output(doubling3):
    rows = tables(doubling3)
    out, nxt = rows[1]
    rows[1] = (out[1], out[0], out[2]), nxt
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, doubling3.labels, rows)
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert {f.state for f in rep.failures} == {1}


def test_well_definedness_catches_offset_outside_box(doubling3):
    labels = list(doubling3.labels)
    labels[3] = (labels[3][0], (100,))
    corrupt = Automaton(doubling3.n, doubling3.d, doubling3.matrices, labels, tables(doubling3))
    rep = well_definedness_check(corrupt)
    assert not rep.ok
    assert any("outside" in f.reason for f in rep.failures)


def test_well_definedness_rejects_every_single_corruption(doubling3, shear2):
    union = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    rng = random.Random(20261018)
    for aut in (doubling3, shear2, union):
        count, A = len(aut.labels), aut.alphabet_size
        for kind in ("out", "nxt", "offset") * 20:
            sid, x = rng.randrange(count), rng.randrange(A)
            labels, rows = list(aut.labels), tables(aut)
            out, nxt = map(list, rows[sid])
            if kind == "out":
                out[x] = rng.choice([y for y in range(A) if y != out[x]])
            elif kind == "nxt":
                nxt[x] = rng.choice([t for t in range(count) if t != nxt[x]])
            else:
                mi, v = labels[sid]
                v = list(v)
                v[rng.randrange(aut.d)] += rng.choice([-1, 1]) * rng.randint(1, 5)
                labels[sid] = mi, tuple(v)
            rows[sid] = tuple(out), tuple(nxt)
            rep = well_definedness_check(Automaton(aut.n, aut.d, aut.matrices, labels, rows))
            assert not rep.ok, (kind, sid, x)
            if kind == "offset":
                # the box is full, so the new label is outside it or taken
                assert any(f.letter is None for f in rep.failures), str(rep)
            else:
                assert {(f.state, f.letter) for f in rep.failures} == {(sid, x)}, (kind, str(rep))
    # a next state in the other copy of the same matrix recomposes exactly
    twins = build_union([[[2]], [[2]]], 3)
    rows = tables(twins)
    out, nxt = rows[1]
    rows[1] = out, (nxt[0] + 4,) + nxt[1:]
    rep = well_definedness_check(Automaton(twins.n, twins.d, twins.matrices, twins.labels, rows))
    assert [(f.state, f.letter) for f in rep.failures] == [(1, 0)]


def test_well_definedness_report_text(doubling3):
    assert str(well_definedness_check(doubling3)) == "well-defined: 12 transitions checked"
    labels = list(doubling3.labels)
    labels[3] = (labels[3][0], (100,))
    rep = well_definedness_check(Automaton(doubling3.n, doubling3.d, doubling3.matrices, labels, tables(doubling3)))
    # the moved label also breaks the transitions into state 3; three failures are shown
    assert str(rep) == ("NOT well-defined (6 failures shown of 12 checked): "
                        "state 1 letter 2: recomposed (300,), expected v+Mx = (3,); "
                        "state 2 letter 2: recomposed (301,), expected v+Mx = (4,); "
                        "state 3: offset (100,) outside [-2, 1]^d or not unique")


def test_well_definedness_keeps_at_most_max_failures():
    # every out row rotated by one letter: each of a state's 9 transitions fails
    union = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    rows = [(out[1:] + out[:1], nxt) for out, nxt in tables(union)]
    rep = well_definedness_check(Automaton(union.n, union.d, union.matrices, union.labels, rows))
    assert not rep.ok and len(rep.failures) == 100
    assert rep.checked == 12 * 9 < len(rows) * union.alphabet_size
    assert [(f.state, f.letter) for f in rep.failures[:3]] == [(0, 0), (0, 1), (0, 2)]
    assert str(rep).startswith("NOT well-defined (100 failures shown of 108 checked): state 0 letter 0: recomposed")
    assert str(rep).count("; ") == 2


def test_well_definedness_rejects_rows_of_the_wrong_length(doubling3):
    # rows cut to 2 of the 3 letters used to pass, as the letter walk saw only
    # the 2 correct letters; rows padded to 4 letters raised IndexError
    def check(rows):
        rep = well_definedness_check(Automaton(doubling3.n, doubling3.d, doubling3.matrices, doubling3.labels, rows))
        assert not rep.ok and rep.checked == 12
        return [(f.state, f.letter, f.reason) for f in rep.failures]
    for k, rows in ((2, [(out[:2], nxt[:2]) for out, nxt in tables(doubling3)]),
                    (4, [(out + (0,), nxt + (0,)) for out, nxt in tables(doubling3)])):
        assert check(rows) == [(sid, None, f"{name} has {k} entries, expected 3")
                               for sid in range(4) for name in ("out", "next")]
    rows = tables(doubling3)
    rows[2] = rows[2][0], rows[2][1][:2]
    assert check(rows) == [(2, None, "next has 2 entries, expected 3")]


def test_to_json_digests_pinned():
    import hashlib
    from adicaut import block_extend, sanov_pair
    sanov_d3 = build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)
    union_d2 = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    assert hashlib.sha256(to_json(sanov_d3).encode()).hexdigest() == \
        "e91155338d927cf7bc61eeae03c5b5a2044db5d5669c9ab92e927202f520b2d8"
    assert hashlib.sha256(to_json(union_d2).encode()).hexdigest() == \
        "3870f4588e8fb736b5c7a3b447ff33c67e5e0ecc296f4ef211a6788c98770357"


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
    obj = json.loads(to_json(build_union([[[2]], [[2]]], 3)))
    obj["states"].reverse()
    with pytest.raises(FormatError, match=r"states\[4\].m = 0 breaks the component grouping"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(doubling3))
    obj["n"] = 1
    with pytest.raises(FormatError, match="n must be"):
        from_json(json.dumps(obj))


def test_json_structure_errors(doubling3):
    import json
    good = to_json(doubling3)
    cases = [
        ("[1, 2]", "top level must be an object"),
        ('{"n": 3, "d": 1, "matrices": [[[2]]]}', "missing key 'states'"),
        (good.replace('"matrices": [[[2]]]', '"matrices": [[[2, 0], [0, 2]]]'), r"matrices\[0\] is 2x2, expected 1x1"),
        ('{"n": 3, "d": 1, "matrices": [[[2]]], "states": [7]}', r"states\[0\] must be an object"),
        ("1" * 5000, "invalid JSON: "),
        ("[" * 100000, "invalid JSON: "),
    ]
    obj = json.loads(good)
    obj["states"][1]["v"] = obj["states"][0]["v"]
    cases.append((json.dumps(obj), r"states\[1\] duplicates the state label m\[0\]:\(-2\)"))
    for text, message in cases:
        with pytest.raises(FormatError, match=message):
            from_json(text)


def test_json_rejects_empty_or_non_list_tables():
    # every file build writes has a matrix and two states; without them n**d is unchecked work
    for text, message in (
        ('{"n": 2, "d": 1, "matrices": [[[1]]], "states": 5}', "states must be a nonempty list"),
        ('{"n": 2, "d": 1, "matrices": [[[1]]], "states": {}}', "states must be a nonempty list"),
        ('{"n": 2, "d": 1, "matrices": [[[1]]], "states": null}', "states must be a nonempty list"),
        ('{"n": 300, "d": 2, "matrices": [[[1, 0], [0, 1]]], "states": []}', "states must be a nonempty list"),
        ('{"n": 2, "d": 40, "matrices": [], "states": []}', "matrices must be a nonempty list"),
        ('{"n": 2, "d": 40, "matrices": "", "states": [{}]}', "matrices must be a nonempty list"),
    ):
        with pytest.raises(FormatError, match=message):
            from_json(text)


def test_json_rejects_an_alphabet_too_large_for_the_document():
    # n**d has about 4400 digits here: formatting it into a message would itself fail
    n = 10 ** 2200 + 1
    text = ('{"n": %d, "d": 2, "matrices": [[[1, 0], [0, 1]]], '
            '"states": [{"m": 0, "v": [0, 0], "out": [0], "next": [0]}]}' % n)
    with pytest.raises(FormatError, match=r"an alphabet of n\*\*d letters \(d = 2\) cannot fit"):
        from_json(text)
    # an alphabet that fits the document still reaches the per-state checks
    with pytest.raises(FormatError, match=r"states\[0\].out must be a list of 4 entries"):
        from_json('{"n": 2, "d": 2, "matrices": [[[1, 0], [0, 1]]], '
                  '"states": [{"m": 0, "v": [0, 0], "out": [0], "next": [0]}]}')


def test_json_rejects_booleans(doubling3):
    # true/false must not pass as 1/0: to_json would write them back as booleans
    import json
    union = json.loads(to_json(build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3)))
    first = next(i for i, st in enumerate(union["states"]) if st["m"] == 1 and st["v"] == [1, 0])
    st = union["states"][first]
    cases = [
        (json.loads(to_json(doubling3)), ("d",), "d must be an integer >= 1, got True"),
        (union, ("states", first, "m"), rf"states\[{first}\].m = True is not a matrix index"),
        (union, ("states", first, "v", 0), rf"states\[{first}\].v must be a list of 2 integers"),
        (union, ("states", first, "out", st["out"].index(1)),
         rf"states\[{first}\].out\[{st['out'].index(1)}\] = True out of range"),
        (json.loads(to_json(doubling3)), ("states", 0, "next", 0), r"states\[0\].next\[0\] = True out of range"),
        (union, ("matrices", 0, 0, 0), r"matrices\[0\]: vector coordinate True is not an int"),
    ]
    for obj, path, message in cases:
        assert from_json(json.dumps(obj)) is not None
        *head, last = path
        parent = obj
        for key in head:
            parent = parent[key]
        original = parent[last]
        assert original in (0, 1)
        parent[last] = bool(original)
        with pytest.raises(FormatError, match=message):
            from_json(json.dumps(obj))
        parent[last] = original


def test_dot_export(odometer2):
    dot = to_dot(odometer2)
    assert dot.count("label=\"m[") == 2
    assert dot.count("->") == 4
    assert 'm[0]:(-1)' in dot and 'm[0]:(0)' in dot
    assert '"0|1"' in dot  # decrement writes 1 on reading 0


def test_dedup_merges_identical_components():
    aut = build_union([identity(1), identity(1)], 2)
    small = dedup(aut)
    assert len(small.labels) == 2
    # same behavior on sample words
    rng = random.Random(22)
    for _ in range(50):
        u = random_digit_word(rng, 2, 1, 6)
        sid = rng.randrange(2)
        w_big = GroupWord(aut, (aut.state_id(0, aut.labels[sid][1]),))
        w_small = GroupWord(small, (small.state_id(0, small.labels[sid][1]),))
        assert w_big.act(u) == w_small.act(u)


def test_dedup_keeps_distinct_states(doubling3):
    assert len(dedup(doubling3).labels) == 4


def test_labels_and_tables_must_match_in_length(doubling3):
    labels, rows = doubling3.labels, tables(doubling3)
    for bad_labels, bad_rows in ((labels, rows[:-1]), (labels[:-1], rows), (labels, rows + rows[:1])):
        with pytest.raises(ValueError, match="labels but"):
            Automaton(doubling3.n, doubling3.d, doubling3.matrices, bad_labels, bad_rows)


def test_inverse_rows_do_not_change_codec_equality_or_dedup(shear2):
    union = build_union([identity(1), identity(1)], 2)
    for aut in (shear2, union):
        fresh = from_json(to_json(aut))
        js, merged = to_json(aut), dedup(aut)
        for sid in range(len(aut.labels)):
            aut.row(~sid)
        assert None not in aut.rows and None in fresh.rows
        assert aut == fresh == from_json(to_json(aut))
        assert to_json(aut) == js
        assert dedup(aut) == merged and to_json(dedup(aut)) == to_json(merged)


def test_letter_codec(doubling3):
    aut = build_union([identity(2)], 3)
    for i in range(aut.alphabet_size):
        assert aut.letter_index(aut.letter_digits(i)) == i
