import gc
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain, product

import pytest

from adicaut import (
    AlphabetCapError,
    Automaton,
    all_letters,
    BuildError,
    DigitWord,
    FormatError,
    GroupWord,
    block_extend,
    build_union,
    dedup,
    det,
    from_json,
    identity,
    matrix,
    offset_box,
    parse_word,
    sanov_pair,
    state_count_bound,
    to_json,
    well_definedness_check,
    WordError,
)

import adicaut.automaton as automaton_module
from adicaut.automaton import MAX_FAILURES, CheckFailure, WellDefinednessReport, json_pieces
from adicaut.linalg import echo, mat_vec, row_sum_norm
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
    # gcd(det M, n) = 1 is one rule with one text: a zero determinant has gcd n
    for Ms, n, message in [
        ([[[0]]], 2, "determinant 0 of matrix 0 is not coprime to base 2 (gcd=2)"),
        ([[[1, 2], [2, 4]]], 3, "determinant 0 of matrix 0 is not coprime to base 3 (gcd=3)"),
        ([[[2]]], 2, "determinant 2 of matrix 0 is not coprime to base 2 (gcd=2)"),
        ([[[-2]]], 2, "determinant -2 of matrix 0 is not coprime to base 2 (gcd=2)"),
        ([[[1]], [[-6]]], 3, "determinant -6 of matrix 1 is not coprime to base 3 (gcd=3)"),
        ([identity(2), identity(3)], 2, "matrices[1] is 3x3, expected 2x2"),
        ([], 2, "need at least one matrix"),
        ([[[1]]], 1, "base must be at least 2, got 1"),
        ([[[1]]], 3.0, "base must be an int, got 3.0"),
        ([[[1.5]]], 2, "matrices[0]: vector coordinate 1.5 is not an int"),
    ]:
        with pytest.raises(BuildError) as exc:
            build_union(Ms, n)
        assert type(exc.value) is BuildError and str(exc.value) == message
    with pytest.raises(AlphabetCapError):
        build_union([identity(2)], 3, alphabet_cap=8)
    # a base past 4300 digits: formatting n**d in full once raised Python's digit-limit ValueError instead
    message = r"^alphabet size 10{39}\.\.\.\*\*2 = 10{39}\.\.\. exceeds the cap 4096; raise the cap explicitly"
    with pytest.raises(AlphabetCapError, match=message) as exc:
        build_union([identity(2)], 10 ** 3000)
    assert type(exc.value) is AlphabetCapError and len(str(exc.value)) < 200


@pytest.mark.parametrize("cap, error, message", [
    # 2.5 once built, and True was compared as the cap 1
    (2.5, BuildError, r"^alphabet cap must be an int, got 2\.5$"),
    (True, BuildError, r"^alphabet cap must be an int, got True$"),
    (0, AlphabetCapError, r"exceeds the cap 0;"),
    (-1, AlphabetCapError, r"exceeds the cap -1;"),
])
def test_alphabet_cap_must_be_an_int(cap, error, message):
    with pytest.raises(error, match=message) as exc:
        build_union([identity(2)], 2, alphabet_cap=cap)
    assert type(exc.value) is error


def test_state_count_bound_needs_a_matrix():
    with pytest.raises(ValueError, match="^need at least one matrix$"):
        state_count_bound([])


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


def test_well_definedness_report_text(doubling3):
    assert str(well_definedness_check(doubling3)) == "well-defined: 12 transitions checked"
    labels = list(doubling3.labels)
    labels[3] = (labels[3][0], (100,))
    rep = well_definedness_check(Automaton(doubling3.n, doubling3.d, doubling3.matrices, labels, tables(doubling3)))
    # the moved label also breaks the transitions into state 3; three failures are shown
    assert str(rep) == ("NOT well-defined (6 failures shown of 12 checked): "
                        "state 1 letter 2: recomposed (300,), expected v+Mx = (3,); "
                        "state 2 letter 2: recomposed (301,), expected v+Mx = (4,); "
                        "state 3: offset (100,) outside [-2, 1]^d")


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
    # 150 extra states past the box whose rows still recompose, as the carries of v + 2x stay among the
    # offsets: the offset failures of such rows count towards the cap too
    offsets = [*range(-2, 152)]
    rows = [(tuple((v + 2 * x) % 3 for x in range(3)), tuple((v + 2 * x) // 3 + 2 for x in range(3))) for v in offsets]
    far = Automaton(3, 1, [[[2]]], [(0, (v,)) for v in offsets], rows)
    assert far.labels[:4] == build_union([[[2]]], 3).labels and far.rows[:4] == tables(build_union([[[2]]], 3))
    rep = well_definedness_check(far)
    assert len(rep.failures) == MAX_FAILURES and rep.checked == 104 * 3
    assert rep.failures[0] == CheckFailure(4, None, "offset (2,) outside [-2, 1]^d")
    assert [(f.state, f.letter) for f in rep.failures] == [(sid, None) for sid in range(4, 104)]


def test_well_definedness_passes_a_component_without_states(doubling3):
    # the doubling states labelled as component 1 of two, then as component 0 of two
    twice = [[[2]], [[2]]]
    for labels in ([(1, v) for _, v in doubling3.labels], doubling3.labels):
        aut = Automaton(doubling3.n, doubling3.d, twice, labels, tables(doubling3))
        assert [e - s for s, e in aut.components] == ([0, 4] if labels[0][0] else [4, 0])
        assert str(well_definedness_check(aut)) == "well-defined: 12 transitions checked"


def reference_failures(aut, sid):
    """State sid's failures as well_definedness_check reports them, found the
    plain way: every letter recomposed as a tuple and compared with v + M*x.
    The constructor already refused a bad label length, row length, out, next
    entry or offset coordinate."""
    n, A = aut.n, aut.alphabet_size
    mi, v = aut.labels[sid]
    M = aut.matrices[mi]
    norm = row_sum_norm(M)
    start, end = aut.component_range(mi)
    out, nxt = aut.rows[sid]
    found = []
    if not all(-norm <= c < norm for c in v):
        found.append(CheckFailure(sid, None, f"offset {v} outside [{-norm}, {norm - 1}]^d"))
    for x in range(A):
        y, t = out[x], nxt[x]
        if not start <= t < end:
            found.append(CheckFailure(sid, x, f"next state {t!r} is not an int in {start}..{end - 1}"))
            continue
        got = tuple(a + n * b for a, b in zip(aut.letters[y], aut.labels[t][1]))
        want = tuple(a + b for a, b in zip(v, mat_vec(M, aut.letters[x])))
        if got != want:
            found.append(CheckFailure(sid, x, f"recomposed {got}, expected v+Mx = {want}"))
    return found


def reference_report(aut, per_state):
    "The report for the failures of each state, in state order, cut after the state that reaches MAX_FAILURES."
    failures, checked = [], 0
    for found in per_state:
        checked += aut.alphabet_size
        failures += found
        if len(failures) >= MAX_FAILURES:
            return WellDefinednessReport(False, checked, failures[:MAX_FAILURES])
    return WellDefinednessReport(not failures, checked, failures)


def is_permutation(out, A):
    "out permutes range(A) in ints, found the plain way."
    return all(type(y) is int for y in out) and sorted(out) == list(range(A))


@pytest.mark.parametrize("name", ["doubling3", "shear2", "union"])
def test_well_definedness_matches_the_letter_walk_on_every_mutated_transition(name, request):
    # outs: every letter, plus -1, A and 1.0; nexts: every state of the component and the states
    # just outside it (any state there is the same range failure), plus the state count and 1.0.
    # doubling3 and shear2 set each transition to every (out, next) pair of these; the union sets
    # one entry at a time and tries each value at one letter of each state, which keeps it to a
    # few thousand checks.  Then every swap of two out entries (the union: each entry with the
    # next), every row cut by one, and every label coordinate one step outside the box.  Each
    # mutation builds a fresh Automaton: one whose out no longer permutes the letters, whose row
    # is cut, or whose next entry is no int in range(state count), is refused by the constructor
    # naming that state; the check must report every other one as the walk does.
    if name == "union":
        aut = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    else:
        aut = request.getfixturevalue(name)
    count, A = len(aut.labels), aut.alphabet_size
    clean = [reference_failures(aut, sid) for sid in range(count)]
    assert well_definedness_check(aut) == reference_report(aut, clean) and all(f == [] for f in clean)
    outcomes = set()

    def agree(sid, row):
        rows = tables(aut)
        rows[sid] = row
        # an out equal to an earlier state's table is stored as that tuple, so 1.0 for 1 there is the int table
        stored = next(out for out, _ in rows if out == row[0])
        if len(row[0]) != A or len(row[1]) != A or not is_permutation(stored, A):
            with pytest.raises(ValueError, match=f"^state {sid}: "):
                Automaton(aut.n, aut.d, aut.matrices, aut.labels, rows)
            return
        bad = [(x, t) for x, t in enumerate(row[1]) if type(t) is not int or not 0 <= t < count]
        if bad:
            x, t = bad[0]
            with pytest.raises(ValueError, match=re.escape(f"state {sid} letter {x}: next entry {t!r} is not in range(")):
                Automaton(aut.n, aut.d, aut.matrices, aut.labels, rows)
            return
        mut = Automaton(aut.n, aut.d, aut.matrices, aut.labels, rows)
        # only state sid's row changed, and no other state's walk reads it
        want = reference_report(mut, clean[:sid] + [reference_failures(mut, sid)] + clean[sid + 1:])
        assert well_definedness_check(mut) == want, (sid, row)
        if repr(mut.rows[sid]) != repr(aut.rows[sid]):  # repr tells 1.0 from 1
            outcomes.add(want.ok)

    for sid in range(count):
        out, nxt = aut.rows[sid]
        start, end = aut.component_range(aut.labels[sid][0])
        ys, ts = [*range(A), -1, A, 1.0], [*range(start - 1, end + 1), count, 1.0]
        for x in range(A):
            if name == "union":
                pairs = [*((y, nxt[x]) for y in ys[x % A::A]), *((out[x], t) for t in ts[x % A::A])]
            else:
                pairs = product(ys, ts)
            for y, t in pairs:
                if [y, t] != [out[x], nxt[x]] or {type(y), type(t)} != {int}:
                    agree(sid, (out[:x] + (y,) + out[x + 1:], nxt[:x] + (t,) + nxt[x + 1:]))
            for x2 in [(x + 1) % A] if name == "union" else range(x + 1, A):  # a swap keeps out a permutation
                swapped = list(out)
                swapped[x], swapped[x2] = out[x2], out[x]
                agree(sid, (tuple(swapped), nxt))
        agree(sid, (out[:-1], nxt))
        agree(sid, (out, nxt[:-1]))
    assert outcomes == {False}  # each mutation the constructor accepts fails the check

    for sid in range(count):
        mi, v = aut.labels[sid]
        norm = row_sum_norm(aut.matrices[mi])
        for i in range(aut.d):
            for c in (-norm - 1, norm):
                labels = list(aut.labels)
                labels[sid] = mi, v[:i] + (c,) + v[i + 1:]
                moved = Automaton(aut.n, aut.d, aut.matrices, labels, tables(aut))
                want = reference_report(moved, [reference_failures(moved, s) for s in range(count)])
                assert not want.ok and well_definedness_check(moved) == want, (sid, i, c)


def test_well_definedness_swap_failures_reach_the_cut():
    # out[0] and out[1] swapped in every state: two failures per state, so the cut falls after state 49
    union = build_union([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3)
    rows = [((out[1], out[0], *out[2:]), nxt) for out, nxt in tables(union)]
    rep = well_definedness_check(Automaton(union.n, union.d, union.matrices, union.labels, rows))
    assert len(union.labels) == 52 and len(rep.failures) == MAX_FAILURES == 100 and rep.checked == 50 * 9 == 450
    assert [(f.state, f.letter) for f in rep.failures[-2:]] == [(49, 0), (49, 1)]


@pytest.mark.parametrize("corruption", ["swapped-out", "label-outside", "short-row", "next-outside"])
def test_well_definedness_walks_a_failing_component_of_the_d4_sanov_union(corruption):
    aut = build_union(block_extend([identity(2), identity(2)], list(sanov_pair())), 2)
    last = aut.components[0][1] - 1  # the last state of component 0
    labels, rows = list(aut.labels), tables(aut)
    out, nxt = rows[last]
    if corruption == "swapped-out":
        rows[last] = (out[1], out[0], *out[2:]), nxt
    elif corruption == "label-outside":
        mi, v = labels[last]
        labels[last] = mi, (row_sum_norm(aut.matrices[mi]), *v[1:])
    elif corruption == "next-outside":
        rows[last] = out, (len(labels) - 1, *nxt[1:])
    else:  # the constructor walks the box to name the state
        rows[last] = out, nxt[:-1]
        with pytest.raises(ValueError, match=re.escape(f"state {last}: next has length 15, expected 16") + "$"):
            Automaton(aut.n, aut.d, aut.matrices, labels, rows)
        return
    bad = Automaton(aut.n, aut.d, aut.matrices, labels, rows)
    want = reference_report(bad, [reference_failures(bad, sid) for sid in range(len(labels))])
    assert len(labels) == 2592 and not want.ok and well_definedness_check(bad) == want


def test_well_definedness_refuses_a_next_entry_into_the_twin_of_its_target():
    # state 5 is the twin of state 1, state 0's true target at letter 0, so their packed offsets are equal: only
    # the own-component rule tells them apart
    twins = build_union([[[2]], [[2]]], 3)
    rows = tables(twins)
    assert rows[0][1][0] == 1 and twins.labels[5][1] == twins.labels[1][1]
    rows[0] = rows[0][0], (5, *rows[0][1][1:])
    rep = well_definedness_check(Automaton(twins.n, twins.d, twins.matrices, twins.labels, rows))
    assert rep.failures == [CheckFailure(0, 0, "next state 5 is not an int in 0..3")]


def test_well_definedness_walks_a_swapped_pooled_out_table_of_the_d4_sanov_union():
    # the 162 states that share this pooled table, in both components, get the swapped one
    aut = build_union(block_extend([identity(2), identity(2)], list(sanov_pair())), 2)
    pooled = aut.outs[5]
    swapped = (pooled[1], pooled[0], *pooled[2:])
    rows = [(swapped if out is pooled else out, nxt) for out, nxt in tables(aut)]
    bad = Automaton(aut.n, aut.d, aut.matrices, aut.labels, rows)
    want = reference_report(bad, [reference_failures(bad, sid) for sid in range(len(bad.labels))])
    assert sum(out is pooled for out, _ in tables(aut)) > 100 and not want.ok and well_definedness_check(bad) == want


def test_well_definedness_walks_a_row_whose_table_is_not_pooled():
    # rows is not for callers to assign to; a table equal to a pooled one but not it is still walked, not a crash
    aut = build_union([[[2]], [[2]]], 3)
    out, nxt = aut.rows[6]
    aut.rows[6] = tuple(list(out)), nxt
    assert aut.rows[6][0] == out and id(aut.rows[6][0]) not in map(id, aut.outs)
    assert str(well_definedness_check(aut)) == "well-defined: 24 transitions checked"
    aut.rows[6] = (out[1], out[0], out[2]), nxt
    assert well_definedness_check(aut).failures == reference_failures(aut, 6) != []
    # an unpooled table must never recompose by accident in the packed stream: with every next state
    # m[0]:(0) itself, n*offset(next) = 0 = v, so a 0 in place of the unpooled table's nan would pass it
    aut = build_union([[[2]], [[2]]], 3)
    sid = aut.state_id(0, (0,))
    out = aut.rows[sid][0]
    aut.rows[sid] = (out[1], out[0], out[2]), (sid,) * 3
    rep = well_definedness_check(aut)
    assert not rep.ok and rep.failures == reference_failures(aut, sid) == [
        CheckFailure(2, 0, "recomposed (2,), expected v+Mx = (0,)"),
        CheckFailure(2, 1, "recomposed (0,), expected v+Mx = (2,)"),
        CheckFailure(2, 2, "recomposed (1,), expected v+Mx = (4,)")]


def test_to_json_digests_pinned():
    import hashlib
    from adicaut import block_extend, sanov_pair

    def sanov(d):
        return block_extend([identity(d - 2), identity(d - 2)], list(sanov_pair()))
    for Ms, n, digest in [
        (sanov(3), 2, "e91155338d927cf7bc61eeae03c5b5a2044db5d5669c9ab92e927202f520b2d8"),
        ([[[1, 1], [0, 1]], [[2, 1], [1, 1]]], 3, "3870f4588e8fb736b5c7a3b447ff33c67e5e0ecc296f4ef211a6788c98770357"),
        ([[[2]]], 3, "c348e44d925b5d98ec8dee1574c2d27e2187267765b1a381c9d00c5d0bb20b30"),  # d=1: no level to fold
        (sanov(4), 2, "4dc1eb3adc5ee94fec36c80a9ff6e99593c676bad666879dcef597debd84683a"),
        (sanov(4), 3, "dd1d7f1d708b50eb26b5bf20be1e68ea92ec8af0b22f3913b32c44764405faa6"),
        (sanov(5), 2, "e93c4a96e5d2696c317af4b832ed42249f482f2a7fadd17d036537319ae6a69c"),
    ]:
        assert hashlib.sha256(to_json(build_union(Ms, n)).encode()).hexdigest() == digest


def reference_json(aut):
    "The encoder to_json replaced, kept as its oracle: json.dumps of the schema object with sorted keys."
    return json.dumps({"n": aut.n, "d": aut.d, "matrices": aut.matrices,
                       "states": [{"m": m, "v": v, "out": out, "next": nxt}
                                  for (m, v), (out, nxt) in zip(aut.labels, aut.rows)]}, sort_keys=True)


def out_objects(aut):
    "(distinct out table objects, distinct out tables) among the given tables."
    outs = [out for out, _ in tables(aut)]
    return len({*map(id, outs)}), len({*outs})


def random_union(rng, d, n, transitions=60_000):
    """1-3 matrices, each a signed permutation with entries +-1 or +-2 plus up
    to two more +-1 entries, with determinant coprime to n and at most
    `transitions` transitions in all."""
    while True:
        Ms = []
        for _ in range(rng.randint(1, 3)):
            M = [[0] * d for _ in range(d)]
            for i, j in enumerate(rng.sample(range(d), d)):
                M[i][j] = rng.choice((-2, -1, 1, 2))
            for _ in range(rng.randint(0, 2)):
                M[rng.randrange(d)][rng.randrange(d)] = rng.choice((-1, 1))
            Ms.append(M)
        if all(math.gcd(det(M), n) == 1 for M in Ms) and state_count_bound(Ms) * n ** d <= transitions:
            return build_union(Ms, n)


def test_to_json_matches_the_json_dumps_encoder():
    rng = random.Random(20261019)
    for d, n in product(range(1, 5), range(2, 6)):
        aut = random_union(rng, d, n)
        assert min(v for _, label in aut.labels for v in label) < 0 and len(aut.matrices) in (1, 2, 3)
        back = from_json(to_json(aut))
        for a in (aut, dedup(aut), back):
            assert to_json(a) == reference_json(a) == "".join(json_pieces(a)), (d, n)
        assert out_objects(aut)[0] == out_objects(aut)[1] == out_objects(back)[0] <= len(aut.matrices) * n ** d


def test_to_json_writes_any_int_entry_as_json_dumps_does():
    # offset coordinates from -10**25 up to 10**30: a text cache indexed by value would misplace -1 and fail
    # past its end; out tables are permutations and next entries states, so only v holds such ints
    labels = [(0, (-2,)), (0, (-1,)), (0, (-5,)), (1, (10**30,)), (1, (-10**25,)), (1, (10**20,))]
    aut = Automaton(3, 1, [[[2]], [[-4]]], labels, [((2, 0, 1), (0, 1, 5)), ((0, 1, 2), (4, 1, 3))] * 3)
    for extra in ([], [(1, (3,))]):
        hand = Automaton(aut.n, aut.d, aut.matrices, [*aut.labels, *extra],
                         [*tables(aut), *[(tuple([2, 0, 1]), (2, 6, 4))] * len(extra)])  # an equal out, a new tuple
        assert to_json(hand) == reference_json(hand)
    # such ints as next entries were written too; the constructor now refuses them, naming the first
    with pytest.raises(ValueError, match=re.escape("state 0 letter 1: next entry -1 is not in range(2)") + "$"):
        Automaton(3, 1, [[[2]], [[-4]]], [(0, (-2,)), (1, (10**30,))],
                  [((2, 0, 1), (0, -1, -5)), ((0, 1, 2), (10**20, 1, -10**25))])
    one = Automaton(2, 1, [[[1]]], [(0, (0,))], [((0, 1), (0, 0))])
    # a matrix index past both the state count and the alphabet size: an int text table sized by those two misses it
    five = Automaton(2, 1, [[[1]]] * 5, [(4, (-1,)), (4, (0,))], build_union([[[1]]], 2).rows[:2])
    for aut in (one, five):
        assert to_json(aut) == reference_json(aut) and from_json(to_json(aut)) == aut


def test_to_json_writes_a_bool_entry_as_the_int_it_acts_as():
    # an int text cache keyed by value once wrote "True" for every later 1, which from_json refused
    clean = build_union([[[2]]], 3)
    rows = tables(clean)
    out, nxt = rows[0]
    assert nxt[0] == 1
    rows[0] = out, (True, *nxt[1:])
    labels = [(m, (True,) if v == (1,) else v) for m, v in clean.labels]  # and an offset coordinate
    assert (0, (1,)) in clean.labels
    hand = Automaton(clean.n, clean.d, clean.matrices, labels, rows)
    assert str(well_definedness_check(hand)) == "well-defined: 12 transitions checked"
    assert to_json(hand) == to_json(clean)
    assert from_json(to_json(hand)) == hand


@pytest.mark.parametrize("d, distinct", [(3, 8), (4, 16), (5, 32)])
def test_each_distinct_out_table_is_kept_once(d, distinct):
    aut = build_union(block_extend([identity(d - 2), identity(d - 2)], list(sanov_pair())), 2)
    assert len(aut.labels) == {3: 432, 4: 2592, 5: 15552}[d]
    assert out_objects(aut) == out_objects(from_json(to_json(aut))) == (distinct, distinct)


def test_json_round_trip(doubling3, shear2):
    for aut in (doubling3, shear2, build_union([identity(1), identity(1)], 2)):
        again = from_json(to_json(aut))
        assert again == aut


def test_the_letter_table_is_all_letters_as_exact_tuples(doubling3, shear2):
    # act's images hold these tuples without checking them again, so each must be a tuple of ints
    bare = Automaton(2, 1, [((1,),)], [(0, (0,)), (0, (-1,))], [((0, 1), (0, 0)), ((1, 0), (1, 0))])
    union = build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3)
    for aut in (doubling3, shear2, union, from_json(to_json(union)), from_json(to_json(shear2)), bare):
        assert type(aut.letters) is tuple and aut.letters == tuple(all_letters(aut.n, aut.d))
        assert all(type(x) is tuple and all(type(c) is int for c in x) for x in aut.letters)


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
    with pytest.raises(FormatError, match=r"^state 1: next has length 2, expected 3$"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(doubling3))
    obj["states"][2]["out"] = [0, 0, 0]
    with pytest.raises(FormatError, match=r"^state 2: out is not a permutation of range\(3\)$"):
        from_json(json.dumps(obj))
    obj = json.loads(to_json(build_union([[[2]], [[2]]], 3)))
    obj["states"].reverse()
    with pytest.raises(FormatError, match=r"^state 4: matrix index 0 follows 1, but states must be grouped by ascending"):
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
    cases.append((json.dumps(obj), r"^state 1 repeats the label of state 0$"))

    def edited(*edits):  # good with each (state, field, entry index or None, value) replaced
        obj = json.loads(good)
        for si, name, x, value in edits:
            if x is None:
                obj["states"][si][name] = value
            else:
                obj["states"][si][name][x] = value
        return json.dumps(obj)
    # the last state dropped: the next entries 3 still look like state ids, and the first is the fault
    obj = json.loads(good)
    del obj["states"][3]
    assert [st["next"] for st in obj["states"]] == [[1, 2, 2], [1, 2, 3], [2, 2, 3]]
    cases.append((json.dumps(obj), re.escape("state 1 letter 2: next entry 3 is not in range(3)") + "$"))
    # offsets are labels, not checked against the box here: a negative one only fails as a repeated label
    cases.append((edited((1, "v", 0, -2)), re.escape("state 1 repeats the label of state 0") + "$"))
    assert from_json(edited((1, "v", 0, 10 ** 30))).labels[1] == (0, (10 ** 30,))
    # two faults: the earlier state's later field is named, not the later state's first field
    cases.append((edited((2, "m", None, 5), (1, "next", None, [0, 0])),
                  re.escape("state 1: next has length 2, expected 3") + "$"))
    cases.append((edited((2, "out", 0, 1.5), (1, "next", 1, 1.5)),
                  re.escape("state 1 letter 1: next entry 1.5 is not in range(4)") + "$"))
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
    # an alphabet that fits the document still reaches the constructor's checks
    with pytest.raises(FormatError, match=r"^state 0: out has length 1, expected 4$"):
        from_json('{"n": 2, "d": 2, "matrices": [[[1, 0], [0, 1]]], '
                  '"states": [{"m": 0, "v": [0, 0], "out": [0], "next": [0]}]}')


SANOV_D2 = to_json(build_union(list(sanov_pair()), 2))  # 72 states over 4 letters


def test_json_rejects_booleans():
    # true/false must not pass as 1/0: to the constructor, out[2] = true is the entry 1
    for edits, message in [
        # each field of state 40 (m 1, v [1, -3], out [3, 2, 1, 0], next [45, 52, 51, 58]) as no list, true and false
        # m is no list, so a list there is the constructor's fault
        ([("states", 40, "m", [1])], "state 40: matrix index [1] is not in range(2)"),
        ([("states", 40, "v", 1)], "states[40].v must be a list"),
        ([("states", 40, "out", {})], "states[40].out must be a list"),
        ([("states", 40, "next", "x")], "states[40].next must be a list"),
        ([("states", 40, "m", True)], "states[40].m = True is not an int"),
        ([("states", 40, "m", False)], "states[40].m = False is not an int"),
        ([("states", 40, "v", 0, True)], "states[40].v[0] = True is not an int"),
        ([("states", 40, "v", 0, False)], "states[40].v[0] = False is not an int"),
        ([("states", 40, "out", 2, True)], "states[40].out[2] = True is not an int"),
        ([("states", 40, "out", 3, False)], "states[40].out[3] = False is not an int"),
        ([("states", 40, "next", 1, True)], "states[40].next[1] = True is not an int"),
        ([("states", 40, "next", 2, False)], "states[40].next[2] = False is not an int"),
        # the order: no list before a true in one state, an earlier state first, a JSON fault before the constructor's
        ([("states", 40, "m", True), ("states", 40, "next", 7)], "states[40].next must be a list"),
        ([("states", 41, "out", 0, True), ("states", 40, "v", 0, 1.5), ("states", 40, "next", 3, False)],
         "states[40].next[3] = False is not an int"),
        ([("states", 40, "v", None), ("states", 41, "m", True)], "states[40].v must be a list"),
        ([("states", 3, "out", [0, 1]), ("states", 40, "out", 2, True)], "states[40].out[2] = True is not an int"),
        ([("d", True)], "d must be an int, got True"),
        ([("matrices", 0, 0, 0, True)], "matrices[0]: vector coordinate True is not an int"),
    ]:
        obj = json.loads(SANOV_D2)
        for *path, value in edits:
            *head, last = path
            parent = obj
            for key in head:
                parent = parent[key]
            parent[last] = value
        with pytest.raises(FormatError) as info:
            from_json(json.dumps(obj))
        assert type(info.value) is FormatError and str(info.value) == message, edits


def test_dedup_merges_identical_components():
    aut = build_union([identity(1), identity(1)], 2)
    small = dedup(aut)
    assert len(small.labels) == 2
    # the check still applies; a label of the emptied component names no state
    S = ((1, 1), (0, 1))
    merged = dedup(build_union([S, S], 2))
    assert str(well_definedness_check(merged)) == "well-defined: 64 transitions checked"
    with pytest.raises(WordError, match=re.escape("no state m[1]:(0,0) in this automaton")):
        parse_word(merged, "m[1]:(0,0)")
    # same behavior on sample words
    rng = random.Random(22)
    for _ in range(50):
        u = random_digit_word(rng, 2, 1, 6)
        sid = rng.randrange(2)
        w_big = GroupWord(aut, (aut.state_id(0, aut.labels[sid][1]),))
        w_small = GroupWord(small, (small.state_id(0, small.labels[sid][1]),))
        assert w_big.act(u) == w_small.act(u)


def test_dedup_keeps_distinct_states(doubling3):
    from adicaut import block_extend, sanov_pair
    assert dedup(doubling3) is doubling3
    union = build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)
    assert dedup(union) is union  # no two states merge: the argument, not an equal rebuild


@pytest.mark.parametrize("entry", [-1, 2, 10 ** 5000, "x", 1.0, [0], None, Fraction(1), Decimal(1), Decimal("sNaN")],
                         ids=["negative", "N", "huge", "string", "float", "list", "none", "fraction", "decimal", "snan"])
def test_dedup_refuses_a_next_entry_outside_the_states(entry):
    # dedup once read such an automaton: -1 indexed from the end, so both states merged into one with next
    # (0, 0, 0); 2 raised IndexError, 1.0 and [0] a bare TypeError; now the constructor refuses every one
    # (a signaling NaN once escaped the whole pass's sum as decimal.InvalidOperation)
    with pytest.raises(ValueError, match=re.escape(f"state 0 letter 0: next entry {echo(entry)} is not in range(2)")
                       + "$"):
        Automaton(3, 1, [[[2]]], [(0, (0,)), (0, (1,))], [((0, 1, 2), (entry, 1, 1)), ((0, 1, 2), (1, 1, 1))])


@pytest.mark.parametrize("coordinate", [None, "x", 1.5, Fraction(1), Decimal(1)])
def test_the_constructor_refuses_an_offset_coordinate_that_is_not_an_int(coordinate):
    labels = [(0, (0, 0)), (0, (1, coordinate)), (0, (2, 0))]
    with pytest.raises(ValueError, match=re.escape(f"state 1: offset coordinate {coordinate!r} is not an int") + "$"):
        Automaton(2, 2, [identity(2)], labels, [((0, 1, 2, 3), (0, 1, 2, 0))] * 3)


@pytest.mark.parametrize("labels, out, message", [
    ([(0.0, (0,)), (0, (1,))], (0, 1, 2), "state 0: matrix index 0.0 is not in range(1)"),
    ([(0, (0,)), ("x", (1,))], (0, 1, 2), "state 1: matrix index 'x' is not in range(1)"),
    ([(0, (0,)), (None, (1,))], (0, 1, 2), "state 1: matrix index None is not in range(1)"),
    ([(0, (0,)), (0, ([1],))], (0, 1, 2), "state 1: offset coordinate [1] is not an int"),
    ([(0, (0,)), (0, (1,))], (0, [1], 2), "state 0: out is not a permutation of range(3)"),
], ids=["float-index", "string-index", "none-index", "list-coordinate", "list-out-entry"])
def test_the_constructor_refuses_an_index_coordinate_or_out_entry_of_no_int_type(labels, out, message):
    # each was accepted (0.0, after which to_json raised a bare TypeError) or raised a bare TypeError from <= or
    # from hashing
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Automaton(3, 1, [[[1]]], labels, [(out, (0, 0, 0)), ((0, 1, 2), (1, 1, 1))])


GOOD_ROW = ((0, 1, 2), (0, 0, 0))


@pytest.mark.parametrize("label, row, message", [
    ((0, [1]), GOOD_ROW, "state 1: label (0, [1]) is not a (matrix index, offset tuple) pair"),
    ((0, None), GOOD_ROW, "state 1: label (0, None) is not a (matrix index, offset tuple) pair"),
    ((0, 5), GOOD_ROW, "state 1: label (0, 5) is not a (matrix index, offset tuple) pair"),
    (5, GOOD_ROW, "state 1: label 5 is not a (matrix index, offset tuple) pair"),
    ((0,), GOOD_ROW, "state 1: label (0,) is not a (matrix index, offset tuple) pair"),
    ([0, (1,)], GOOD_ROW, "state 1: label [0, (1,)] is not a (matrix index, offset tuple) pair"),
    ((0, (1,), 0), GOOD_ROW, "state 1: label (0, (1,), 0) is not a (matrix index, offset tuple) pair"),
    ((0, (1,)), ((0, 1, 2),), "state 1: table ((0, 1, 2),) is not an (out, next) pair of tuples"),
    ((0, (1,)), (5, (0, 0, 0)), "state 1: table (5, (0, 0, 0)) is not an (out, next) pair of tuples"),
    ((0, (1,)), ((0, 1, 2), None), "state 1: table ((0, 1, 2), None) is not an (out, next) pair of tuples"),
    ((0, (1,)), ((0, 1, 2), (0, 0, 0), 1),
     "state 1: table ((0, 1, 2), (0, 0, 0), 1) is not an (out, next) pair of tuples"),
    ((0, range(1, 2)), GOOD_ROW, "state 1: label (0, range(1, 2)) is not a (matrix index, offset tuple) pair"),
    ((0, (1,)), (range(3), (0, 0, 0)), "state 1: table (range(0, 3), (0, 0, 0)) is not an (out, next) pair of tuples"),
    ((0, (1,)), ((0, 1, 2), [0, 0, 0]), "state 1: table ((0, 1, 2), [0, 0, 0]) is not an (out, next) pair of tuples"),
], ids=["offset-list", "offset-none", "offset-int", "label-int", "label-short", "label-list", "label-long",
        "row-short", "row-out-int", "row-next-none", "row-long", "offset-range", "row-out-range", "row-next-list"])
def test_the_constructor_names_a_label_or_table_of_the_wrong_container(label, row, message):
    # each raised a bare TypeError (unhashable, no len(), not subscriptable), IndexError or unpacking ValueError,
    # except the label with a third entry: it was accepted, and to_json raised the unpacking ValueError; and
    # except a range or a next list, which passed every whole pass and was stored as given, so that
    # from_json(to_json(aut)) read back tuples and compared unequal
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Automaton(3, 1, [[[1]]], [(0, (0,)), label], [GOOD_ROW, row])


@pytest.mark.parametrize("n, d, message", [
    (2.0, 1, "n must be an int, got 2.0"), ("3", 1, "n must be an int, got '3'"), (3, 1.0, "d must be an int, got 1.0"),
], ids=["float-n", "string-n", "float-d"])
def test_the_constructor_refuses_a_base_or_dimension_that_is_no_int(n, d, message):
    # each raised a bare TypeError from pow() or range(), or was checked against the float alphabet size 2.0
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Automaton(n, d, [[[1]]], [(0, (0,))], [GOOD_ROW])


def test_an_out_table_that_does_not_hash_is_named_after_the_faults_before_it():
    # the tables are pooled by hash before any rule is checked: a table that does not hash is kept as given,
    # and its state is named once the states before it pass, unless the table count is wrong
    tables = [((0, 1, 2), (0, 0, 0)), ((0, {}, 2), (1, 1, 1)), ((0, 1, 2), (1, 1, 1))]
    with pytest.raises(ValueError, match=re.escape("state 1: out is not a permutation of range(3)") + "$"):
        Automaton(3, 1, [[[1]]], [(0, (0,)), (0, (1,)), (0, (2,))], tables)
    with pytest.raises(ValueError, match=re.escape("state 0: offset has length 2, expected 1") + "$"):
        Automaton(3, 1, [[[1]]], [(0, (0, 0)), (0, (1,)), (0, (2,))], tables)
    with pytest.raises(ValueError, match=re.escape("2 labels but 3 tables") + "$"):
        Automaton(3, 1, [[[1]]], [(0, (0,)), (0, (1,))], tables)


def reference_dedup(aut):
    "dedup in its sort-and-renumber form, kept as its oracle: the same refinement, then a re-sort and a renumbering."
    labels, tables = aut.labels, aut.rows[:len(aut.labels)]
    sigs = {}
    cls = [sigs.setdefault(out, len(sigs)) for out, _ in tables]
    count = 0
    while count < len(sigs) < len(tables):
        count = len(sigs)
        sigs = {}
        cls = [sigs.setdefault((c, *map(cls.__getitem__, nxt)), len(sigs)) for c, (_, nxt) in zip(cls, tables)]
    reps = {}
    for sid, k in enumerate(cls):
        reps.setdefault(k, sid)
    ordered = sorted(reps.values(), key=lambda sid: (labels[sid][0], sid))
    new_id = {cls[sid]: i for i, sid in enumerate(ordered)}
    return Automaton(aut.n, aut.d, aut.matrices, [labels[sid] for sid in ordered],
                     [(tables[sid][0], tuple(new_id[cls[t]] for t in tables[sid][1])) for sid in ordered])


def equivalent(aut, s, t):
    "Whether states s and t write the same letters on every input word: equal out tables at every pair reached in step."
    seen, todo = {(s, t)}, [(s, t)]
    while todo:
        a, b = todo.pop()
        if aut.rows[a][0] != aut.rows[b][0]:
            return False
        for pair in zip(aut.rows[a][1], aut.rows[b][1]):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def test_dedup_matches_the_sort_and_renumber_oracle():
    rng = random.Random(20261030)
    cases = []
    for _ in range(300):  # 1-3 components of [[1]], 1-3 shared out permutations, random next rows across components
        n, k = rng.choice((2, 3)), rng.randint(1, 3)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        labels = [(m, (v,)) for m in range(k) for v in rng.sample(range(-4, 4), rng.randint(1, 4))]
        cases.append(Automaton(n, 1, [[[1]]] * k, labels,
                               [(rng.choice(perms), tuple(rng.choices(range(len(labels)), k=n))) for _ in labels]))
    merged = across = 0
    for aut in cases:
        small, ref, N = dedup(aut), reference_dedup(aut), len(aut.labels)
        assert small.labels == ref.labels and small.rows[:len(small.labels)] == ref.rows[:len(ref.labels)]
        assert to_json(small) == to_json(ref)
        # a state is kept iff no earlier state is equivalent to it, checked pair by pair without a partition
        firsts = [next(r for r in range(s + 1) if equivalent(aut, r, s)) for s in range(N)]
        assert small.labels == tuple(aut.labels[s] for s in range(N) if firsts[s] == s)
        merged += len(small.labels) < N
        across += any(aut.labels[r][0] != aut.labels[s][0] for s, r in enumerate(firsts))
    assert merged >= 100 and across >= 30, (merged, across)  # 186 and 125 with this seed
    # a union merges each component into an earlier equal one; the d=3 Sanov union keeps every state
    for aut in (build_union([[[2]], [[2]]], 3), build_union([*sanov_pair(), *sanov_pair()], 2),
                build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2)):
        small, ref = dedup(aut), reference_dedup(aut)
        assert small == ref and to_json(small) == to_json(ref)
    assert len(dedup(build_union([*sanov_pair(), *sanov_pair()], 2)).labels) == 72


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


def test_an_automaton_shows_its_size_and_compares_only_with_automata(doubling3):
    assert repr(doubling3) == "Automaton(n=3, d=1, 1 matrices, 4 states)"
    assert repr(build_union([*sanov_pair(), *sanov_pair()], 2)) == "Automaton(n=2, d=2, 4 matrices, 144 states)"
    assert (doubling3 == 5) is False and (doubling3 != 5) is True


def test_letter_codec(doubling3):
    aut = build_union([identity(2)], 3)
    for i in range(aut.alphabet_size):
        assert aut.letter_index(aut.letters[i]) == i


def test_a_matrix_index_outside_the_family_is_refused(doubling3):
    # the check walks the components 0..len(matrices)-1, so such a state was never checked:
    # doubling3 plus (5, (99,)) reported "well-defined: 12 transitions checked" for its 15 transitions
    extra = ((0, 0, 0), (7, 7, 7))
    for labels, rows, sid, m in (([*doubling3.labels, (5, (99,))], [*tables(doubling3), extra], 4, "5"),
                                 ([(-1, (0,)), *doubling3.labels], [extra, *tables(doubling3)], 0, "-1"),
                                 ([*doubling3.labels, (1, (0,))], [*tables(doubling3), extra], 4, "1"),
                                 ([*doubling3.labels, (10 ** 100, (0,))], [*tables(doubling3), extra], 4,
                                  "1" + "0" * 39 + "...")):
        with pytest.raises(ValueError, match="^" + re.escape(f"state {sid}: matrix index {m} is not in range(1)") + "$"):
            Automaton(doubling3.n, doubling3.d, doubling3.matrices, labels, rows)
    # to_json wrote a zero-state automaton as '"states": []', which from_json refuses
    with pytest.raises(ValueError, match="^an automaton has at least one state$"):
        Automaton(doubling3.n, doubling3.d, doubling3.matrices, [], [])


@pytest.mark.parametrize("matrices, message", [
    ([[[2.0]]], "matrices[0]: vector coordinate 2.0 is not an int"),  # the check raised a bare TypeError
    ([[[2, 0], [0, 2]]], "matrices[0] is 2x2, expected 1x1"),  # the check raised zip()'s ValueError
    ([], "need at least one matrix"),  # to_json wrote a document from_json refuses
], ids=["float-entry", "wrong-size", "empty"])
def test_the_constructor_refuses_matrices_the_codec_refuses(doubling3, matrices, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Automaton(doubling3.n, doubling3.d, matrices, doubling3.labels, tables(doubling3))


def test_the_constructor_freezes_matrices_given_as_lists(doubling3):
    lists = Automaton(doubling3.n, doubling3.d, [[[2]]], doubling3.labels, tables(doubling3))
    assert lists.matrices == (((2,),),) and lists == doubling3
    assert Automaton(2, 1, [[[1]]], [(0, (0,))], [((0, 1), (0, 0))]).matrices == (((1,),),)



def test_every_route_shares_equal_out_tables_through_outs(doubling3):
    def pooled(aut):
        "The number of distinct out tables, after checking that every state's out is the one tuple in outs."
        assert {id(out) for out, _ in tables(aut)} == {*map(id, aut.outs)}
        assert len({*aut.outs}) == len(aut.outs)
        return len(aut.outs)
    union = build_union(block_extend([identity(2), identity(2)], list(sanov_pair())), 2)
    assert pooled(union) == pooled(from_json(to_json(union))) == pooled(dedup(union)) == 16
    # equal tables given as distinct tuples: doubling by 3 has one out table per offset mod 3
    fresh = [(tuple([*out]), nxt) for out, nxt in tables(doubling3)]
    assert len({*map(id, fresh)}) == 4
    hand = Automaton(doubling3.n, doubling3.d, doubling3.matrices, doubling3.labels, fresh)
    assert pooled(hand) == 3 and hand == doubling3


def test_build_union_makes_one_out_table_per_residue_class():
    # a state's out depends only on its offset mod n; [[1]] with n=5 has fewer offsets per coordinate than n
    rng = random.Random(20261027)
    auts = [random_union(rng, d, n) for d, n in product(range(1, 5), range(2, 6))]
    auts += [build_union([[[1, 1], [0, 1]]], 3), build_union([[[1]]], 5)]
    for aut in auts:
        n = aut.n
        for start, end in aut.components:
            classes = {}  # residue class of the offset -> ids of the out tuples of its states
            for (_, v), (out, _) in zip(aut.labels[start:end], aut.rows[start:end]):
                classes.setdefault(tuple(c % n for c in v), set()).add(id(out))
            assert {*map(len, classes.values())} == {1}
            assert len({*chain.from_iterable(classes.values())}) == len(classes)
        assert len(aut.outs) <= sum(min(n, 2 * row_sum_norm(M)) ** aut.d for M in aut.matrices)


def test_table_builders_leave_the_collector_as_the_caller_set_it():
    # on the d=4 Sanov union an unpaused collector runs about 9 passes in build_union, 26 in from_json, 9 in dedup
    Ms = block_extend([identity(2), identity(2)], list(sanov_pair()))
    good = build_union(Ms, 2)
    text = to_json(good)
    broken = json.loads(text)
    broken["states"][0]["next"][0] = len(good.labels)  # a next entry past the states, refused by the constructor
    broken = json.dumps(broken)
    calls = [(lambda: build_union(Ms, 2), None), (lambda: from_json(text), None), (lambda: dedup(good), None),
             (lambda: build_union([[[1, 1], [1, 1]]], 3), BuildError), (lambda: from_json('{"n": 3}'), FormatError),
             (lambda: from_json(broken), FormatError)]
    starts = []

    def count(phase, info):
        starts.append(phase == "start")
    was_enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call, error in calls:
                gc.collect(0)  # an empty young generation, so no pass starts before the call pauses the collector
                starts.clear()
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
                assert gc.isenabled() is enabled
                assert sum(starts) == enabled  # none inside; the one young pass on the way out, if the collector is on
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2), (2, 4)])
def test_letters_is_the_dense_letter_table(n, d):
    aut = build_union([identity(d)], n)
    assert aut.letters == tuple(all_letters(n, d))
    assert [*map(aut.letter_index, aut.letters)] == list(range(n ** d))


def test_from_json_names_the_first_fault_the_constructor_also_sees():
    # a shape fault is named in the constructor's words, at its first state; a JSON fault anywhere comes first
    good = json.loads(to_json(build_union([[[2]], [[2]]], 3)))

    def message(*edits):
        obj = json.loads(json.dumps(good))
        for si, name, value in edits:
            obj["states"][si][name] = value
        with pytest.raises(FormatError) as info:
            from_json(json.dumps(obj))
        return str(info.value)
    # a repeated label at state 1, and m = 1 at state 2 makes state 3 break the grouping
    assert message((1, "v", [-2]), (2, "m", 1)) == "state 1 repeats the label of state 0"
    assert message((2, "m", 1)) == ("state 3: matrix index 0 follows 1, "
                                    "but states must be grouped by ascending matrix index")
    assert message((7, "m", 2)) == "state 7: matrix index 2 is not in range(2)"
    assert message((0, "m", -1)) == "state 0: matrix index -1 is not in range(2)"
    assert message((1, "out", [0, 1])) == "state 1: out has length 2, expected 3"
    # state 3's out equals state 0's [1, 0, 2]: 1.0 reaches the constructor as its text, so it never pools with
    # state 0's int tuple (a true is the loader's to name, before any of these: test_json_rejects_booleans)
    assert message((3, "out", [1.0, 0, 2])) == "state 3: out is not a permutation of range(3)"
    # a float is the constructor's fault, named in state order: the repeated label at state 1 comes first
    assert message((1, "v", [-2]), (3, "out", [1.0, 0, 2])) == "state 1 repeats the label of state 0"


def test_from_json_hands_the_constructor_its_tables_lazily(monkeypatch):
    # a list of all tables would hold every fresh out tuple at once, before the constructor pools them
    aut, seen = build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3), []

    def spy(n, d, matrices, labels, tables):
        seen.append(tables)
        return Automaton(n, d, matrices, labels, tables)
    monkeypatch.setattr(automaton_module, "Automaton", spy)
    loaded = from_json(to_json(aut))
    monkeypatch.undo()
    assert loaded == aut
    assert len(seen) == 1 and iter(seen[0]) is seen[0] and not isinstance(seen[0], (list, tuple))


class Spelled(str):
    "A JSON number that is no int, kept as its text, as the loader hands it to the constructor."
    __repr__ = str.__str__


def test_from_json_texts_match_the_constructor():
    # the loader names only true and false among the entries (test_json_rejects_booleans); any other value put in
    # m, v, out or next, at state 0 and at state 5, with and without a shape fault (state 3 repeating state 0's
    # label: after state 0, before state 5), is named exactly as Automaton(...) names it on the same columns, a
    # number that is no int as its text
    original = build_union([[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 3)
    good = json.loads(to_json(original))
    rng = random.Random(36)
    values = ["1.0", "1e0", "NaN", "Infinity", '"1"', "null", "[1]", "{}"]
    checked = set()
    for value, name, si, fault in product(values, ("m", "v", "out", "next"), (0, 5), (False, True)):
        obj = json.loads(json.dumps(good))
        if fault:
            obj["states"][3]["v"] = list(obj["states"][0]["v"])
        if name == "m":
            obj["states"][si]["m"] = "@"
        else:
            obj["states"][si][name][rng.randrange(len(obj["states"][si][name]))] = "@"
        text = json.dumps(obj).replace('"@"', value)
        with pytest.raises(FormatError) as info:
            from_json(text)
        doc = json.loads(text, parse_float=Spelled, parse_constant=Spelled)
        with pytest.raises(ValueError) as owner:
            Automaton(doc["n"], doc["d"], doc["matrices"], [(st["m"], tuple(st["v"])) for st in doc["states"]],
                      [(tuple(st["out"]), tuple(st["next"])) for st in doc["states"]])
        assert type(owner.value) is ValueError
        assert str(info.value) == str(owner.value), (value, name, si, fault)
        checked.add(str(info.value))
    # a fault at state 5 no longer comes before the repeated label at state 3; numbers show as spelled
    assert "state 3 repeats the label of state 0" in checked
    assert {"state 0: matrix index 1e0 is not in range(2)", "state 5: matrix index NaN is not in range(2)",
            "state 0: matrix index Infinity is not in range(2)"} <= checked
    assert len(checked) > 20
    # extra state keys holding true and a float: the loader finds no true among the entries, and the file loads
    for st in good["states"]:
        st["x"], st["y"] = True, 1.5
    text = json.dumps(good)
    assert "true" in text and from_json(text) == original


def edit_label(sid, offset):
    def edit(labels, rows):
        labels[sid] = labels[sid][0], offset(labels[sid][1])
    return edit


def edit_row(sid, k, table):
    def edit(labels, rows):
        rows[sid] = (table(rows[sid][0]), rows[sid][1]) if k == 0 else (rows[sid][0], table(rows[sid][1]))
    return edit


def set_entry(x, value):
    return lambda t: (*t[:x], value, *t[x + 1:])


@pytest.mark.parametrize("edits, message", [
    ([edit_label(9, lambda v: (-2, -2))], "state 9 repeats the label of state 0"),
    ([edit_label(5, lambda v: v[:1])], "state 5: offset has length 1, expected 2"),
    ([edit_label(5, lambda v: (*v, 0))], "state 5: offset has length 3, expected 2"),
    ([edit_row(6, 0, lambda t: t[:-1])], "state 6: out has length 3, expected 4"),
    ([edit_row(6, 0, lambda t: (*t, 0))], "state 6: out has length 5, expected 4"),
    ([edit_row(6, 1, lambda t: t[:-1])], "state 6: next has length 3, expected 4"),
    ([edit_row(6, 1, lambda t: (*t, 0))], "state 6: next has length 5, expected 4"),
    ([edit_row(6, 0, set_entry(2, -1))], "state 6: out is not a permutation of range(4)"),
    ([edit_row(6, 0, set_entry(2, 4))], "state 6: out is not a permutation of range(4)"),
    # state 0 comes first, so its table is not stored as an earlier equal int one
    ([edit_row(0, 0, set_entry(1, 1.0))], "state 0: out is not a permutation of range(4)"),
    ([edit_row(6, 0, set_entry(2, 0))], "state 6: out is not a permutation of range(4)"),
    ([edit_label(10, lambda v: (-2, -2)), edit_row(7, 0, lambda t: t[:-1])], "state 7: out has length 3, expected 4"),
    ([edit_row(4, 0, set_entry(0, 3)), edit_label(12, lambda v: (*v, 0))], "state 4: out is not a permutation of range(4)"),
], ids=["repeated-label", "offset-d-1", "offset-d+1", "out-short", "out-long", "next-short", "next-long",
        "out-minus-1", "out-n**d", "out-float", "out-repeated-letter", "earlier-length-fault", "earlier-out-fault"])
def test_the_constructor_refuses_each_shape_fault(shear2, edits, message):
    labels, rows = list(shear2.labels), tables(shear2)
    for edit in edits:
        edit(labels, rows)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Automaton(shear2.n, shear2.d, shear2.matrices, labels, rows)
    # the same document: from_json passes the constructor's text through
    text = json.dumps({"n": shear2.n, "d": shear2.d, "matrices": shear2.matrices,
                       "states": [{"m": m, "v": v, "out": out, "next": nxt} for (m, v), (out, nxt) in zip(labels, rows)]})
    with pytest.raises(FormatError) as info:
        from_json(text)
    assert type(info.value) is FormatError and str(info.value) == message


def test_a_repeated_label_is_refused_so_no_word_resolves_to_a_copy():
    # state_id once picked the last of two states with one label, so m[0]:(-2) acted by the copy's table
    doubling = build_union([[[2]]], 3)
    assert parse_word(doubling, "m[0]:(-2)").act(DigitWord.parse("0 0", 3, 1)).format() == "1 2"
    with pytest.raises(ValueError, match=re.escape("state 4 repeats the label of state 0") + "$"):
        Automaton(3, 1, doubling.matrices, [*doubling.labels, (0, (-2,))], [*tables(doubling), ((1, 2, 0), (4, 4, 4))])


def test_an_out_table_equal_to_an_earlier_one_is_stored_as_that_one(shear2):
    # state 2's out equals state 0's, so 1.0 for its 1 is stored as state 0's int tuple: the automaton is the clean one
    rows = tables(shear2)
    rows[2] = (0, 1.0, 3, 2), rows[2][1]
    aut = Automaton(shear2.n, shear2.d, shear2.matrices, shear2.labels, rows)
    assert aut.rows[2][0] is aut.rows[0][0] and repr(tables(aut)) == repr(tables(shear2))
