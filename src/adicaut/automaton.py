"""Construction of the letter-to-letter transducers whose states realize the
affine maps u -> v + M*u on base-n digit words.

For one matrix M the state set is the offset box (coordinates in
[-||M||, ||M||-1]); the state with offset v maps an input letter x to the
digit part of v + M*x and hands the carry part to the next state.  For a
family of matrices the automata are glued as a disjoint union, never merged,
so the state count is exactly sum_i (2*||M_i||)**d.

Each coordinate of v + M*x splits into digit and carry on its own, and the
digit depends on v only mod n: build_union makes one out table per class of v
mod n, shared by its states, and zips lazy columns of next ids, one per
letter, into rows.  It, from_json and dedup pause the cyclic collector; their
tables hold no cycles.  well_definedness_check never divides: it packs vectors
into ints in a base wide enough for the offset box, takes digit(out[x]) - M*x
once per distinct out table, adds n*offset(nxt[x]) for a whole component in
one stream, compares it with v, and walks only a failing component state by
state and letter by letter.

Each state is stored once: its label (matrix index, offset) in
`Automaton.labels`, its table (out, nxt) in `Automaton.rows`, which every
reader goes through and none assigns to.  `Automaton` alone checks each state's
containers, shape and entries (from_json adds only JSON's rules: objects, keys,
list types, true and false, in one walk before the constructor reads a table),
pools equal out tables (`outs`) as they arrive and holds the letter table
(`letters`) of dense indices (base-n, first coordinate least significant);
digit tuples appear only at I/O boundaries."""

from __future__ import annotations

import gc
import json
import math
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
from operator import add, eq, itemgetter, le, mul, sub

from .linalg import (
    all_letters,
    bounded_int,
    coprime_to,
    det,
    echo,
    mat_vec,
    matrix_family,
    offset_box,
    row_sum_norm,
)

DEFAULT_ALPHABET_CAP = 4096


class BuildError(ValueError):
    "Rejected construction input (singular matrix, non-coprime base, ...)."


class AlphabetCapError(BuildError):
    "The alphabet n**d exceeds the configured cap."


class FormatError(ValueError):
    "Malformed serialized automaton."


class Automaton:
    """An invertible transducer over the alphabet {0..n-1}^d, immutable apart
    from the inverse rows `row` builds on first use.

    State `sid` has the label `labels[sid]` = (matrix index, offset v) and the
    given table `rows[sid]` = (out, nxt): reading the letter with dense index
    x (digits `letters[x]`; `letter_index`, the letter table's lookup, maps
    them back to x and raises KeyError for a tuple not in the table) it writes
    out[x] and hands the rest of the word to state nxt[x].  Equal out tables
    share the first one's tuple, and `outs` holds each distinct one once.
    There is at least one state, and `components[i]` is the half-open range of
    state ids whose matrix index is i.  n and d are ints (bounded_int's
    ValueError).  A label that is no (matrix index, offset tuple) pair, a
    matrix index that is no int in range(len(matrices)) or below the one
    before it (labels are grouped by ascending matrix index), an offset
    coordinate that is no int, a repeated label, a table that is no (out,
    next) pair of tuples, an offset without d coordinates, a row without n**d
    entries, an out table that does not permute range(n**d) or a next entry
    outside range(N) for N states, in ints (bools act as ints), raises
    ValueError naming the first such state (and letter, for a next entry),
    checked in that order state by state.  A state or its inverse is coded
    as the int `sid` or `~sid`, and `rows[c]` is the code's (letter map, row
    of next codes): `rows[sid]` is the table as given, `rows[~sid]` maps y to
    the x with out[x] = y and goes on to ~nxt[x], and is None until `row`
    builds it.  `rows` is a list only for `row` to fill in: callers must not
    assign to it.  Equality compares the labels and the given tables, never
    the inverse rows.
    """

    __slots__ = ("n", "d", "matrices", "labels", "components", "rows", "outs", "letters",
                 "letter_index", "_state_ids")

    def __init__(self, n, d, matrices, labels, tables):
        self.n, self.d = bounded_int(n, "n", 2), bounded_int(d, "d", 1)
        self.matrices = mats = matrix_family(matrices)
        if len(mats[0]) != d:  # matrix_family gave every entry entry 0's size
            raise ValueError(f"matrices[0] is {len(mats[0])}x{len(mats[0])}, expected {echo(d)}x{echo(d)}")
        self.labels = tuple(labels)
        if not self.labels:
            raise ValueError("an automaton has at least one state")
        A, N, K, key = n ** d, len(self.labels), len(mats), itemgetter(0)
        pool, self.rows, pooled = {}, [], True
        for row in tables:  # pooled as the tables arrive, so a lazy source never holds every fresh out tuple at once
            try:
                out, nxt = row
                row = pool.setdefault(out, out), nxt
            except (TypeError, ValueError):  # no (out, next) pair, or an out table that does not hash: kept for the walk
                pooled = False
            self.rows.append(row)
        if len(self.rows) != N:
            raise ValueError(f"{N} labels but {len(self.rows)} tables")
        self.outs = tuple(pool)
        # whole passes, each distinct out table once (an equal table given later shares the first one's tuple);
        # grouped labels hold every matrix index between the first and the last; next rows: a sum each, a set's min/max
        try:
            offsets, nexts = [v for _, v in self.labels], [nxt for _, nxt in self.rows]
            self._state_ids = dict(zip(self.labels, range(N)))
            valid = (pooled and type(sum(chain(map(key, self.labels), chain.from_iterable(offsets)))) is int
                     and all(map(le, map(key, self.labels), map(key, islice(self.labels, 1, None))))
                     and 0 <= self.labels[0][0] and self.labels[-1][0] < K and len(self._state_ids) == N
                     and {*map(type, chain(offsets, self.outs, nexts))} == {tuple}
                     and {*map(len, offsets)} <= {d} and {*map(len, self.outs), *map(len, nexts)} <= {A}
                     and type(sum(map(sum, nexts))) is int and 0 <= min(seen := set().union(*nexts)) and max(seen) < N
                     and {*map(type, chain.from_iterable(self.outs))} <= {int, bool}
                     and {*map(frozenset, self.outs)} <= {frozenset(range(A))})
        except (TypeError, ValueError, ArithmeticError):  # a label or table that is no pair, or cannot hash, measure or add: walk
            valid = False
        if not valid:
            first = {}  # a pass failed: name the first state that breaks a rule
            for sid, (label, row) in enumerate(zip(self.labels, self.rows)):
                if not (isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], tuple)):
                    raise ValueError(f"state {sid}: label {echo(label)} is not a (matrix index, offset tuple) pair")
                if not isinstance(label[0], int) or not 0 <= label[0] < K:
                    raise ValueError(f"state {sid}: matrix index {echo(label[0])} is not in range({K})")
                if sid and label[0] < self.labels[sid - 1][0]:
                    raise ValueError(f"state {sid}: matrix index {label[0]} follows {self.labels[sid - 1][0]}, "
                                     "but states must be grouped by ascending matrix index")
                for c in label[1]:  # before the label is hashed
                    if not isinstance(c, int):
                        raise ValueError(f"state {sid}: offset coordinate {echo(c)} is not an int")
                if first.setdefault(label, sid) != sid:
                    raise ValueError(f"state {sid} repeats the label of state {first[label]}")
                if not (isinstance(row, tuple) and len(row) == 2 and all(isinstance(t, tuple) for t in row)):
                    raise ValueError(f"state {sid}: table {echo(row)} is not an (out, next) pair of tuples")
                out, nxt = row
                for name, size, want in (("offset", len(label[1]), d), ("out", len(out), A), ("next", len(nxt), A)):
                    if size != want:
                        raise ValueError(f"state {sid}: {name} has length {size}, expected {echo(want)}")
                if {*map(type, out)} - {int, bool} or {*out} != {*range(A)}:
                    raise ValueError(f"state {sid}: out is not a permutation of range({echo(A)})")
                for x, t in enumerate(nxt):
                    if not (isinstance(t, int) and 0 <= t < N):
                        raise ValueError(f"state {sid} letter {x}: next entry {echo(t)} is not in range({N})")
        self.rows += repeat(None, N)  # the inverse rows, once the given ones pass
        # bisect by key: a temporary list of all keys fragments the heap over rebuilds
        self.components = tuple((bisect_left(self.labels, mi, key=key), bisect_left(self.labels, mi + 1, key=key))
                                for mi in range(len(self.matrices)))
        self.letters = tuple(all_letters(n, d))
        self.letter_index = {x: i for i, x in enumerate(self.letters)}.__getitem__

    @property
    def alphabet_size(self) -> int:
        return self.n ** self.d

    def state_id(self, matrix_index: int, offset) -> int:
        "Global id of the state labeled (matrix_index, offset); KeyError if absent."
        return self._state_ids[(matrix_index, tuple(offset))]

    def component_range(self, matrix_index: int):
        return self.components[matrix_index]

    def row(self, c: int) -> tuple:
        "rows[c], built on first use for an inverse code."
        row = self.rows[c]
        if row is None:
            out, nxt = self.rows[~c]
            inv = sorted(range(len(out)), key=out.__getitem__)  # out is a permutation: inv[y] is the x with out[x] = y
            row = self.rows[c] = tuple(inv), tuple([~nxt[x] for x in inv])
        return row

    def __eq__(self, other):
        if not isinstance(other, Automaton):
            return NotImplemented
        N = len(self.labels)
        return (self.n == other.n and self.d == other.d
                and self.matrices == other.matrices
                and self.labels == other.labels
                and self.rows[:N] == other.rows[:N])

    def __repr__(self):
        return (f"Automaton(n={self.n}, d={self.d}, "
                f"{len(self.matrices)} matrices, {len(self.labels)} states)")


@contextmanager
def _gc_paused():
    "No cyclic collection inside, as a table set holds no cycles; after it, the deferred young pass, if gc was on."
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)  # the deferred pass, always inside the call, where the caller's timer sees it


def state_count_bound(Ms) -> int:
    "The guaranteed ceiling 2**d * sum_i ||M_i||**d on the union's state count."
    mats = matrix_family(Ms)
    d = len(mats[0])
    return 2 ** d * sum(row_sum_norm(M) ** d for M in mats)


@_gc_paused()
def build_union(Ms, n: int, alphabet_cap: int = DEFAULT_ALPHABET_CAP) -> Automaton:
    """Disjoint union of the transducers for each matrix, in the given order.
    Identical matrices yield identical but separate components.

    Each matrix must have nonzero determinant coprime to n (otherwise the
    output tables would not permute the alphabet).  The alphabet size n**d is
    capped to keep accidental huge builds from exhausting memory.  The states
    whose offsets agree mod n share one out tuple; the collector is paused."""
    try:
        mats = matrix_family(Ms)
        bounded_int(n, "base", 2)
        bounded_int(alphabet_cap, "alphabet cap")  # a cap below 1 refuses every alphabet, as AlphabetCapError
    except ValueError as e:
        raise BuildError(str(e)) from None
    d = len(mats[0])
    if n ** d > alphabet_cap:
        raise AlphabetCapError(f"alphabet size {echo(n)}**{d} = {echo(n ** d)} exceeds the cap {echo(alphabet_cap)}; "
                               "raise the cap explicitly if this size is intended")
    for i, M in enumerate(mats):
        if not coprime_to(M, n):  # det and gcd only word the error
            if (D := det(M)) == 0:
                raise BuildError(f"matrix {i} has determinant 0")
            raise BuildError(f"determinant {echo(D)} of matrix {i} is not coprime to base {echo(n)} "
                             f"(gcd={echo(math.gcd(abs(D), n))})")

    letters = all_letters(n, d)
    bound = state_count_bound(mats)
    if bound > sys.maxsize:  # past what range() takes, long before what memory holds
        raise BuildError(f"the state count bound {echo(bound)} exceeds {sys.maxsize}")
    ids = list(range(bound))  # shared int objects keep the big tables lean

    def tables():  # a component at a time, so each one's columns are freed once the constructor has read them
        start = 0
        for M in mats:
            norm = row_sum_norm(M)
            # splits[i][k][x] = (carry, digit) of coordinate i of v + M*x for v_i = k - norm; carries[i][x][k]: carry+norm
            # v_i + (M*x)_i lies in [-n*norm, n*norm - 1], so every carry lies in [-norm, norm - 1]: in the box
            splits = [[[divmod(v + sum(map(mul, Mi, x)), n) for x in letters] for v in range(-norm, norm)] for Mi in M]
            S, c = 2 * norm, min(n, 2 * norm)  # the digit of v_i = k - norm depends on k % n < c alone
            digits = [[[r * n ** i for _, r in row] for row in per_v[:c]] for i, per_v in enumerate(splits)]
            # outs[sum_i k_i * c**i] is the one out table of every offset v with v_i = k_i - norm mod n
            outs = [tuple(map(sum, zip(*drs))) for drs in product(*digits[::-1])]
            carries = [[*zip(*[[q + norm for q, _ in row] for row in per_v])] for per_v in splits]
            # the S states whose offsets differ in coordinate 0 alone are a block of consecutive ids; over coordinates
            # d-1 down to 1, the last varying slowest as in offset_box, sum each block's class key and, letter by
            # letter, the block its states go to
            keys, heads = [0], [[0]] * len(letters)
            for i in range(d - 1, 0, -1):
                keys = [key + k % n * c ** i for key in keys for k in range(S)]
                heads = [[ids[h * S + q] for h in hs for q in qs] for hs, qs in zip(heads, carries[i])]
            blocks = [ids[b:b + S] for b in range(start, start + S ** d, S)]
            # lazy columns, coordinate 0's carries picking each next id from its target block; zip makes the rows
            columns = [chain.from_iterable(map(itemgetter(*qs), map(blocks.__getitem__, hs)))
                       for qs, hs in zip(carries[0], heads)]
            yield from zip([outs[key + k % n] for key in keys for k in range(S)], zip(*columns))
            start += S ** d

    return Automaton(n, d, mats, [(mi, v) for mi, M in enumerate(mats) for v in offset_box(M)], tables())


@dataclass(frozen=True)
class CheckFailure:
    state: int
    letter: int | None  # None when the state's offset is outside the box
    reason: str


@dataclass
class WellDefinednessReport:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return f"well-defined: {self.checked} transitions checked"
        head = "; ".join(f"state {f.state}{'' if f.letter is None else f' letter {f.letter}'}: {f.reason}"
                         for f in self.failures[:3])
        return f"NOT well-defined ({len(self.failures)} failures shown of {self.checked} checked): {head}"


MAX_FAILURES = 100


def well_definedness_check(aut: Automaton) -> WellDefinednessReport:
    """Recompose every transition from the stored tables, without dividing and
    independently of build_union: for a state with offset v in the component
    of M, digit(out[x]) + n*offset(nxt[x]) must equal v + M*x for every letter
    x.  Offsets lie in the offset box and next states in their own component;
    the constructor already holds the rest (every entry an int, every next
    entry a state).

    A component whose offsets lie in the box packs each vector w into the int
    sum_i w_i*B**i and checks all its transitions in one lazy stream: one add
    of n*pack(offset(nxt[x])) to the row of pack(digit(out[x])) - pack(M*x)
    made once per distinct out table, one int compare with pack(v) (a next
    state outside the component packs to nan).  Any other component, or one
    whose stream finds a mismatch, is walked state by state: the offset,
    then letter by letter.  At most MAX_FAILURES failures are kept.
    dedup(build_union(...)) passes too: equal maps have equal v and M, so a
    merge only empties a later twin component."""
    n, d, A = aut.n, aut.d, aut.alphabet_size
    labels, rows, letters = aut.labels, aut.rows, aut.letters  # rows[sid] for sid >= 0 only: row() is never called
    failures, checked = [], 0
    for mi, M in enumerate(aut.matrices):
        start, end = aut.component_range(mi)
        norm = row_sum_norm(M)

        def within(values, low, high):  # one pass, then min/max over the distinct values
            return low <= min(seen := {*values}) and max(seen) < high

        mxs = [mat_vec(M, x) for x in letters]
        offsets = list(map(itemgetter(1), islice(labels, start, end)))
        if start < end and within(chain.from_iterable(offsets), -norm, norm):  # the constructor made them ints
            # With v and offset(nxt[x]) in the box [-norm, norm-1]^d, every coordinate of
            # digit(out[x]) + n*offset(nxt[x]) and of v + M*x lies in [-n*norm, n*norm-1],
            # below B/2 in absolute value, so packing in base B tells such vectors apart.
            places = [(2 * n * norm + 1) ** i for i in range(d)]

            def pack(w):
                return sum(map(mul, places, w))
            p_v, p_digit, p_mx = list(map(pack, offsets)), list(map(pack, letters)), list(map(pack, mxs))
            # n times each state's packed offset, nan (equal to nothing) outside the component; per distinct out table
            # by identity, pack(digit(out[x])) - pack(M*x) (nan for a table not in aut.outs): their sum must be pack(v)
            n_packed = [math.nan] * len(labels)
            n_packed[start:end] = map(n.__mul__, p_v)
            rest = {id(out): [*map(sub, map(p_digit.__getitem__, out), p_mx)] for out in aut.outs}
            outs, nxts = zip(*islice(rows, start, end))
            recomposed = map(add, chain.from_iterable(map(rest.get, map(id, outs), repeat([math.nan] * A))),
                             map(n_packed.__getitem__, chain.from_iterable(nxts)))
            if all(map(eq, recomposed, chain.from_iterable(map(repeat, p_v, repeat(A))))):
                checked += (end - start) * A
                continue
        for sid, v, (out, nxt) in zip(range(start, end), offsets, islice(rows, start, end)):
            checked += A
            if not within(v, -norm, norm):
                failures.append(CheckFailure(sid, None, f"offset {v} outside [{-norm}, {norm - 1}]^d"))
            for x, (y, t) in enumerate(zip(out, nxt)):
                if not start <= t < end:
                    failures.append(CheckFailure(sid, x, f"next state {t!r} is not an int in {start}..{end - 1}"))
                    continue
                got, want = tuple(a + n * b for a, b in zip(letters[y], labels[t][1])), tuple(map(add, v, mxs[x]))
                if got != want:
                    failures.append(CheckFailure(sid, x, f"recomposed {got}, expected v+Mx = {want}"))
            if len(failures) >= MAX_FAILURES:
                return WellDefinednessReport(False, checked, failures[:MAX_FAILURES])
    return WellDefinednessReport(not failures, checked, failures)


def json_pieces(aut: Automaton):
    """The text of to_json(aut) in pieces, so that no writer holds the whole document:
    the head, one piece per state (each after the first led by its separator), then
    the tail.  It is json.dumps of the schema object with sorted keys, read from tables
    that rely on the constructor: every m, out and next entry is an int below the
    matrix, letter or state count, and every row's out is pooled in aut.outs."""
    # a list reads faster than a dict, which would also refuse a negative entry; True indexes as 1
    ints = [*map(str, range(max(len(aut.labels), aut.alphabet_size, len(aut.matrices))))]
    outs = {id(out): ", ".join(map(ints.__getitem__, out)) for out in aut.outs}
    # offset coordinates have no bound, so a dict of the distinct ones; int.__repr__ writes True as 1
    coords = {c: int.__repr__(c) for c in {*chain.from_iterable(map(itemgetter(1), aut.labels))}}
    yield f'{{"d": {aut.d}, "matrices": {json.dumps(aut.matrices)}, "n": {aut.n}, "states": ['
    sep = ""
    for (m, v), (out, nxt) in zip(aut.labels, aut.rows):
        yield (f'{sep}{{"m": {ints[m]}, "next": [{", ".join(map(ints.__getitem__, nxt))}], '
               f'"out": [{outs[id(out)]}], "v": [{", ".join(map(coords.__getitem__, v))}]}}')
        sep = ", "
    yield "]}"


def to_json(aut: Automaton) -> str:
    """Serialize to the documented schema:
    {"n":int, "d":int, "matrices":[[[int]]], "states":[{"m","v","out","next"}]}
    with out/next indexed by dense letter index.  Component boundaries are the
    runs of equal "m".  The text is json.dumps(obj, sort_keys=True) of that
    object, byte for byte, joined from json_pieces."""
    return "".join(json_pieces(aut))


class _NumberText(str):
    "A JSON float, NaN or Infinity as its text: no int rule takes it, and echo shows it as spelled."
    __repr__ = str.__str__


def _loads(text: str):
    "json.loads(text) with each number that is no int kept as its text, and every way to fail raised as a FormatError."
    try:
        return json.loads(text, parse_float=_NumberText, parse_constant=_NumberText)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an int literal past the digit limit, nesting past the recursion limit
        raise FormatError(f"invalid JSON: {e}") from None


def _matrices(value) -> tuple:
    "A nonempty list of row-major matrices of one size; the first bad entry's error names its index."
    if not isinstance(value, list) or not value:
        raise FormatError("matrices must be a nonempty list")

    def rows(i, m):
        if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
            raise FormatError(f"matrices[{i}]: matrix must be a list of rows")
        return m
    try:
        return matrix_family(rows(i, m) for i, m in enumerate(value))
    except ValueError as e:  # a FormatError from rows() keeps its message
        raise FormatError(str(e)) from None


def read_matrices(text: str) -> tuple:
    "Parse a matrix file: a nonempty JSON list of square integer matrices, row-major."
    return _matrices(_loads(text))


@_gc_paused()
def from_json(text: str) -> Automaton:
    """Parse and validate the schema written by to_json; round-trips exactly.
    One walk names the first fault JSON adds, in document order (an entry that
    is no object or lacks a key, a field that is no list, true or false if the
    text holds either); the Automaton, fed the tables lazily, names any other."""
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise FormatError("top level must be an object")
    for key in ("n", "d", "matrices", "states"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}")
    try:  # JSON true/false are bools, not 1/0
        n, d = bounded_int(obj["n"], "n", 2), bounded_int(obj["d"], "d", 1)
    except ValueError as e:
        raise FormatError(str(e)) from None
    mats = _matrices(obj["matrices"])
    if not isinstance(obj["states"], list) or not obj["states"]:
        raise FormatError("states must be a nonempty list")
    # each state lists all n**d letters, so n**d <= len(text); decided without forming n**d
    if d * (n.bit_length() - 1) > len(text).bit_length():
        raise FormatError(f"an alphabet of n**d letters (d = {echo(d)}) cannot fit in a {len(text)}-character document")

    states, alphabet = obj["states"], n ** d
    bools, fields, labels = "true" in text or "false" in text, itemgetter("m", "v", "out", "next"), []
    for si, entry in enumerate(states):  # every JSON fault before any of the constructor's
        try:
            m, v, out, nxt = fields(entry)
        except (TypeError, KeyError) as e:  # an entry that is no object, or one without a key
            raise FormatError(f"states[{si}] missing key {e.args[0]!r}" if isinstance(e, KeyError)
                              else f"states[{si}] must be an object") from None
        if bools and type(m) is bool:  # JSON's true and false, which the constructor would take as ints
            raise FormatError(f"states[{si}].m = {echo(m)} is not a matrix index")
        if not isinstance(v, list) or bools and bool in map(type, v):
            raise FormatError(f"states[{si}].v must be a list of {d} integers")
        if not isinstance(out, list):
            raise FormatError(f"states[{si}].out must be a list of {alphabet} entries")
        if bools and bool in map(type, out):
            x = [*map(type, out)].index(bool)
            raise FormatError(f"states[{si}].out[{x}] = {echo(out[x])} out of range [0, {alphabet})")
        if not isinstance(nxt, list):
            raise FormatError(f"states[{si}].next must be a list of {alphabet} entries")
        if bools and bool in map(type, nxt):
            x = [*map(type, nxt)].index(bool)
            raise FormatError(f"states[{si}].next[{x}] = {echo(nxt[x])} out of range [0, {len(states)})")
        labels.append((m, tuple(v)))
    try:  # the tables lazily: the constructor pools each fresh out tuple as it arrives, and no list holds them all
        return Automaton(n, d, mats, labels, ((tuple(e["out"]), tuple(e["next"])) for e in states))
    except ValueError as e:
        raise FormatError(str(e)) from None


@_gc_paused()
def dedup(aut: Automaton) -> Automaton:
    """Merge behaviorally equivalent states by partition refinement (equal out
    tables, then equal successor classes, to a fixed point): one hash per out
    tuple, then one (n**d + 1)-tuple per state per round.  Returns the first
    state of each class, in state order, with the class numbers as the new
    ids, or `aut` itself when no two states merge.  Library only, kept while
    the benchmark times it.  A build_union component equal to an earlier one
    merges whole: the check passes, but the emptied component's labels name
    no state (`no state m[1]:(0,0) ...`)."""
    labels, tables = aut.labels, aut.rows[:len(aut.labels)]
    sigs = {}
    cls = [sigs.setdefault(out, len(sigs)) for out, _ in tables]
    count = 0
    while count < len(sigs) < len(tables):  # no class split, or only singletons left: a fixed point
        count = len(sigs)
        sigs = {}
        cls = [sigs.setdefault((c, *map(cls.__getitem__, nxt)), len(sigs)) for c, (_, nxt) in zip(cls, tables)]
    if len(sigs) == len(tables):  # every class a singleton, numbered in state order: the rebuild would equal aut
        return aut

    reps = {}  # class -> its first state: each round numbers the classes in the order of their first states
    for sid, k in enumerate(cls):
        reps.setdefault(k, sid)
    return Automaton(aut.n, aut.d, aut.matrices, [labels[sid] for sid in reps.values()],
                     [(tables[sid][0], tuple(map(cls.__getitem__, tables[sid][1]))) for sid in reps.values()])
