"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  All expectations are exact
(integer equality, zero mismatches); nothing here is tuned or tolerant.  The
final test builds the full d=6 union (93312 states over a 64-letter alphabet)
and re-runs the structural, semantic, and relation checks on it, asserting
the whole pipeline stays under five minutes.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from itertools import product

from adicaut import (
    AffineMap,
    DigitWord,
    GroupWord,
    affine_apply_prefix,
    block_extend,
    build_union,
    coprime_to,
    decode,
    encode,
    from_json,
    identity,
    presentation_for,
    reduced_words,
    relator_check,
    row_sum_norm,
    sanov_pair,
    state_count_bound,
    to_json,
    translation_word,
    verify_relation,
    well_definedness_check,
    word_matrix,
)
from adicaut.automaton import json_pieces
from conftest import random_digit_word, random_group_word, random_matrix


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


def doubling_set():
    return [[[2]]]


def shear_set():
    return [[[1, 1], [0, 1]]]


def sanov_d3_set():
    "The two 2x2 free generators padded to 3x3 with a leading 1."
    return block_extend([identity(1), identity(1)], list(sanov_pair()))


TEST_SETS = [
    (doubling_set(), 3),
    (shear_set(), 2),
    (sanov_d3_set(), 2),
]


def test_criterion_1_state_count_exactness():
    with criterion(1, "state-count exactness"):
        for Ms, n in TEST_SETS:
            aut = build_union(Ms, n)
            d = aut.d
            for mi, M in enumerate(aut.matrices):
                start, end = aut.component_range(mi)
                assert end - start == (2 * row_sum_norm(M)) ** d
            assert len(aut.labels) <= state_count_bound(Ms)
        assert len(build_union([[[2]]], 3).labels) == 4 == state_count_bound(doubling_set())
        assert len(build_union([[[1, 1], [0, 1]]], 2).labels) == 16
        d3 = build_union(sanov_d3_set(), 2)
        assert [e - s for s, e in d3.components] == [216, 216]
        assert len(d3.labels) == 432 == state_count_bound(sanov_d3_set())


def test_criterion_2_well_definedness():
    with criterion(2, "well-definedness"):
        for Ms, _ in TEST_SETS:
            for n in (2, 3, 5):
                if not all(coprime_to(M, n) for M in Ms):
                    continue
                rep = well_definedness_check(build_union(Ms, n))
                assert rep.ok and not rep.failures, str(rep)


def test_criterion_3_oracle_semantics():
    with criterion(3, "oracle semantics"):
        # exhaustive: base 2, d <= 2, every state, every word of length <= 6
        exhaustive = [[[1]], [[3]], [[-1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]]
        for M in exhaustive:
            aut = build_union([M], 2)
            letters = [aut.letters[i] for i in range(aut.alphabet_size)]
            words = [DigitWord(ls, 2, aut.d)
                     for k in range(7) for ls in product(letters, repeat=k)]
            for sid, (_, v) in enumerate(aut.labels):
                f = AffineMap(aut.matrices[0], v)
                w = GroupWord(aut, (sid,))
                for u in words:
                    assert w.act(u) == affine_apply_prefix(f, u)

        # randomized: >= 10^4 (M, v, n, u) trials, entries in [-3,3], depth <= 10
        rng = random.Random(20260810)
        pool = []
        transitions = 0
        while len(pool) < 60 and transitions < 2_000_000:
            d = rng.choice([1, 1, 2, 2, 3])
            n = rng.choice([2, 3, 5])
            M = random_matrix(rng, d, bound=3)
            if not coprime_to(M, n):
                continue
            size = (2 * row_sum_norm(M)) ** d * n ** d
            if size > 500_000:
                continue
            pool.append(build_union([M], n))
            transitions += size
        assert len(pool) >= 10
        trials = 0
        while trials < 10_000:
            aut = pool[trials % len(pool)]
            sid = rng.randrange(len(aut.labels))
            u = random_digit_word(rng, aut.n, aut.d, 10)
            f = AffineMap(aut.matrices[0], aut.labels[sid][1])
            assert GroupWord(aut, (sid,)).act(u) == affine_apply_prefix(f, u)
            trials += 1


def test_criterion_4_group_laws():
    with criterion(4, "group laws"):
        rng = random.Random(20260811)
        auts = [build_union(Ms, n) for Ms, n in TEST_SETS]
        for _ in range(1000):
            aut = rng.choice(auts)
            w1 = random_group_word(rng, aut, 8)
            w2 = random_group_word(rng, aut, 8)
            u = random_digit_word(rng, aut.n, aut.d, 8)
            assert (w1 * w2).act(u) == w1.act(w2.act(u))
            assert (w1 * ~w1).act(u) == u
            t = rng.randint(0, len(u))
            assert w1.act(u).prefix(t) == w1.act(u.prefix(t))
            assert (w1 * ~w1).is_identity(budget=10 ** 6)


def test_criterion_5_relations():
    with criterion(5, "relations"):
        for Ms, _ in TEST_SETS:
            for n in (2, 3):
                if not all(coprime_to(M, n) for M in Ms):
                    continue
                aut = build_union(Ms, n)
                d = aut.d
                for mi in range(len(aut.matrices)):
                    for axis in range(1, d + 1):
                        rep = verify_relation(aut, mi, axis)
                        assert rep.ok, f"n={n} {rep}"
                taus = [translation_word(aut, 0, j) for j in range(1, d + 1)]
                for i in range(d):
                    for j in range(i + 1, d):
                        comm = taus[i] * taus[j] * ~taus[i] * ~taus[j]
                        assert comm.is_identity()
        # the doubling relator t a t^-1 = a^2 in presentation form
        aut = build_union([[[2]]], 3)
        pres = presentation_for(doubling_set())
        assert pres.ascending_hnn
        assert relator_check(aut, pres).ok


def test_criterion_6_negative_controls():
    with criterion(6, "negative controls"):
        aut = build_union([[[2]]], 3)
        assert not translation_word(aut, 0, 1).is_identity()

        from adicaut import Presentation
        bad = Presentation(("a1",), ("t",),
                           ((("t", 1), ("a1", 1), ("t", -1), ("a1", -3)),), True)
        rep = relator_check(aut, bad)
        assert not rep.ok and rep.results[0].outcome == "fail"

        rows = list(aut.rows[:len(aut.labels)])
        rows[2] = rows[2][0], (0, 0, 0)
        from adicaut import Automaton
        corrupt = Automaton(aut.n, aut.d, aut.matrices, aut.labels, rows)
        assert not well_definedness_check(corrupt).ok


def test_criterion_7_sanov_freeness_evidence():
    with criterion(7, "free-pair distinctness"):
        A, B = sanov_pair()
        seen = {}
        count = 0
        for w in reduced_words(2, 8):
            m = word_matrix(w, [A, B])
            assert m not in seen, f"words {w} and {seen[m]} give the same matrix"
            seen[m] = w
            count += 1
        assert count == 1 + 4 * (3 ** 8 - 1) // 2  # 13121


def test_criterion_8_round_trips():
    with criterion(8, "round trips"):
        for Ms, n in TEST_SETS:
            aut = build_union(Ms, n)
            assert from_json(to_json(aut)) == aut
        union = build_union([[[2]], [[2]]], 3)
        assert from_json(to_json(union)) == union

        rng = random.Random(20260812)
        for _ in range(1000):
            n = rng.choice([2, 3, 5, 10])
            d = rng.randint(1, 3)
            k = rng.randint(0, 10)
            u = tuple(rng.randrange(n ** k) for _ in range(d))
            w = encode(u, n, k)
            assert decode(w) == u
            assert DigitWord.parse(w.format(), n, d) == w


def test_criterion_9_end_to_end_d6():
    start_time = time.monotonic()
    with criterion(9, "end-to-end d=6 pipeline"):
        Ms = block_extend([identity(4), identity(4)], list(sanov_pair()))
        aut = build_union(Ms, 2)

        # per-component counts (2*||Mi||)^6 and the exact total bound
        for mi, M in enumerate(aut.matrices):
            s, e = aut.component_range(mi)
            assert e - s == (2 * row_sum_norm(M)) ** 6 == 46656
        assert len(aut.labels) == 93312 <= state_count_bound(Ms)

        # the to_json bytes, hashed piece by piece so that the 70 MB text is never joined
        digest = hashlib.sha256()
        for piece in json_pieces(aut):
            digest.update(piece.encode())
        assert digest.hexdigest() == "aeead460f2e8c496b25d36890704b64b1bb960333dc7e3131b9f86948ff5372a"

        # criterion 2 on the full automaton
        rep = well_definedness_check(aut)
        assert rep.ok and rep.checked == 93312 * 64

        # criterion 3 restricted: 100 random prefixes of depth <= 4
        rng = random.Random(20260813)
        for _ in range(100):
            sid = rng.randrange(len(aut.labels))
            mi, v = aut.labels[sid]
            u = random_digit_word(rng, 2, 6, 4, min_len=1)
            f = AffineMap(aut.matrices[mi], v)
            assert GroupWord(aut, (sid,)).act(u) == affine_apply_prefix(f, u)

        # criterion 4 restricted: group laws on 100 random pairs
        for _ in range(100):
            w1 = random_group_word(rng, aut, 6)
            w2 = random_group_word(rng, aut, 6)
            u = random_digit_word(rng, 2, 6, 4)
            assert (w1 * w2).act(u) == w1.act(w2.act(u))
            assert (w1 * ~w1).act(u) == u

        # criterion 5: all conjugation relations and translation commutators
        for mi in range(2):
            for axis in range(1, 7):
                r = verify_relation(aut, mi, axis)
                assert r.ok, str(r)
        taus = [translation_word(aut, 0, j) for j in range(1, 7)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert (taus[i] * taus[j] * ~taus[i] * ~taus[j]).is_identity()

        elapsed = time.monotonic() - start_time
        assert elapsed < 300, f"pipeline took {elapsed:.0f}s"
    print(f"[acceptance] criterion 9 runtime: {time.monotonic() - start_time:.1f}s")
