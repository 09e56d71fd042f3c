"""Construction of the letter-to-letter transducers whose states realize the
affine maps u -> v + M*u on base-n digit words.

For one matrix M the state set is the offset box (coordinates in
[-||M||, ||M||-1]); the state with offset v maps an input letter x to the
digit part of v + M*x and hands the carry part to the next state.  For a
family of matrices the automata are glued as a disjoint union, never merged,
so the state count is exactly sum_i (2*||M_i||)**d.

Each coordinate of v + M*x splits into digit and carry on its own, so
build_union sums one digit row and one carry row per coordinate into each
state's tables.  well_definedness_check never divides: it packs each vector
into one int, in a base wide enough for the offset box, recomposes
digit(out[x]) + n*offset(nxt[x]) for all of a component's transitions in one
stream and compares it with v + M*x; only a component that fails is walked
state by state and letter by letter.

Each state is stored once: its label (matrix index, offset) in
`Automaton.labels` and its table (out, nxt) in `Automaton.rows`, the one
transition store every reader goes through; `Automaton` alone pools equal
out tables (`outs`) and holds the letter table (`letters`).  to_json writes
the JSON text itself, the text of each int and of each distinct out table
made once.  Letters are stored as dense indices (base-n expansion of the
index, first coordinate least significant); digit tuples appear only at I/O
boundaries.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, pairwise, repeat
from operator import add, eq, itemgetter, mul, sub

from .linalg import (
    Vector,
    all_letters,
    bounded_int,
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
    """A transducer over the alphabet {0..n-1}^d, immutable apart from the
    inverse rows `row` builds on first use.

    State `sid` has the label `labels[sid]` = (matrix index, offset v) and the
    given table `rows[sid]` = (out, nxt): reading the letter with dense index
    x (digits `letters[x]`) it writes out[x] and hands the rest of the word to
    state nxt[x].  Equal out tables share the first one's tuple, and `outs`
    holds each distinct one once.  Labels must be grouped by ascending matrix
    index, each in range(len(matrices)); `components[i]` is the half-open
    range of state ids whose matrix index is i.  A state or its inverse is
    coded as the int `sid` or `~sid`, and `rows[c]` is the code's (letter map,
    row of next codes): `rows[sid]` is the table as given, `rows[~sid]` maps y
    to the x with out[x] = y and goes on to ~nxt[x], and is None until `row`
    builds it.  Equality compares the labels and the given tables, never the
    inverse rows.
    """

    __slots__ = ("n", "d", "matrices", "labels", "components", "rows", "outs", "letters",
                 "_index", "_state_ids")

    def __init__(self, n, d, matrices, labels, tables):
        self.n = n
        self.d = d
        self.matrices = mats = matrix_family(matrices)
        if len(mats[0]) != d:  # matrix_family gave every entry entry 0's size
            raise ValueError(f"matrices[0] is {len(mats[0])}x{len(mats[0])}, expected {echo(d)}x{echo(d)}")
        self.labels = tuple(labels)
        pool = {}  # pooled as the tables arrive, so a lazy source never holds every fresh out tuple at once
        self.rows = [(pool.setdefault(out, out), nxt) for out, nxt in tables] + [None] * len(self.labels)
        self.outs = tuple(pool)
        if len(self.rows) != 2 * len(self.labels):
            raise ValueError(f"{len(self.labels)} labels but {len(self.rows) - len(self.labels)} tables")
        if any(a[0] > b[0] for a, b in pairwise(self.labels)):
            raise ValueError("states must be grouped by ascending matrix index")
        for m in (self.labels[0][0], self.labels[-1][0]) if self.labels else ():  # grouped: these bound every index
            if not 0 <= m < len(self.matrices):
                raise ValueError(f"matrix index {echo(m)} of a state is not in range({len(self.matrices)})")
        key = itemgetter(0)  # a temporary list of all keys fragments the heap over rebuilds
        self.components = tuple((bisect_left(self.labels, mi, key=key), bisect_left(self.labels, mi + 1, key=key))
                                for mi in range(len(self.matrices)))
        self.letters = tuple(all_letters(n, d))
        self._index = {x: i for i, x in enumerate(self.letters)}
        self._state_ids = {label: sid for sid, label in enumerate(self.labels)}

    @property
    def alphabet_size(self) -> int:
        return self.n ** self.d

    def letter_index(self, x: Vector) -> int:
        "Dense index of a digit tuple (first coordinate least significant)."
        return self._index[x]

    def state_id(self, matrix_index: int, offset) -> int:
        "Global id of the state labeled (matrix_index, offset); KeyError if absent."
        return self._state_ids[(matrix_index, tuple(offset))]

    def component_range(self, matrix_index: int):
        return self.components[matrix_index]

    def row(self, c: int) -> tuple:
        "rows[c], built on first use for an inverse code; ValueError if its state's out is not a permutation."
        row = self.rows[c]
        if row is None:
            out, nxt = self.rows[~c]
            inv = [-1] * len(out)
            if out and 0 <= min(out) and max(out) < len(out):  # else a negative entry would index inv from its end
                for x, y in enumerate(out):
                    inv[y] = x
            if -1 in inv:
                raise ValueError(f"output table of state {~c} is not a permutation")
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


def state_count_bound(Ms) -> int:
    "The guaranteed ceiling 2**d * sum_i ||M_i||**d on the union's state count."
    mats = matrix_family(Ms)
    d = len(mats[0])
    return 2 ** d * sum(row_sum_norm(M) ** d for M in mats)


def build_union(Ms, n: int, alphabet_cap: int = DEFAULT_ALPHABET_CAP) -> Automaton:
    """Disjoint union of the transducers for each matrix, in the given order.
    Identical matrices yield identical but separate components.

    Each matrix must have nonzero determinant coprime to n (otherwise the
    output tables would not permute the alphabet).  The alphabet size n**d is
    capped to keep accidental huge builds from exhausting memory.
    """
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
        D = det(M)
        if D == 0:
            raise BuildError(f"matrix {i} has determinant 0")
        g = math.gcd(abs(D), n)
        if g != 1:
            raise BuildError(f"determinant {echo(D)} of matrix {i} is not coprime to base {echo(n)} (gcd={echo(g)})")

    letters = all_letters(n, d)
    bound = state_count_bound(mats)
    if bound > sys.maxsize:  # past what range() takes, long before what memory holds
        raise BuildError(f"the state count bound {echo(bound)} exceeds {sys.maxsize}")
    ids = list(range(bound))  # shared int objects keep the big tables lean

    def tables_of(level, row0):  # arguments, as a generator in the loop would read the last component's rows
        # lazy, so Automaton pools each out as it is made; tuple([...]) is allocated once, tuple(map(...)) resizes
        return ((tuple([*map(add, o, dr)]), tuple([ids[t] for t in map(add, c, cr)]))
                for o, c in level for dr, cr in row0)

    labels, tables = [], []
    base = 0
    for mi, M in enumerate(mats):
        box = offset_box(M)
        norm = row_sum_norm(M)
        side = range(-norm, norm)
        # splits[i][k][x] = (carry, digit) of coordinate i of v + M*x for v_i = side[k]
        splits = [[[divmod(v + sum(map(mul, Mi, x)), n) for x in letters] for v in side] for Mi in M]
        if not all(-norm <= q < norm for per_v in splits for row in per_v for q, _ in row):
            raise BuildError("internal error: a carry left the offset box")
        rows = [[([r * n ** i for _, r in row], [(q + norm) * (2 * norm) ** i for q, _ in row])
                 for row in per_v] for i, per_v in enumerate(splits)]
        # (out, next) sums over coordinates d-1 down to 1, the last varying slowest as in box
        level = [([0] * len(letters), [ids[base]] * len(letters))]
        for per_v in rows[:0:-1]:
            level = [(list(map(add, o, dr)), [ids[t] for t in map(add, c, cr)]) for o, c in level for dr, cr in per_v]
        tables.append(tables_of(level, rows[0]))
        labels += [(mi, v) for v in box]
        base += len(box)
    return Automaton(n, d, mats, labels, chain.from_iterable(tables))


@dataclass(frozen=True)
class CheckFailure:
    state: int
    letter: int | None  # None when the state's label or the length of its row is bad
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
    x.  Offsets must have d coordinates in the offset box and label their own
    state, rows have one entry per letter, next states lie in their own
    component.

    A component whose offsets, row lengths and entry ranges all hold packs
    each vector w into the int sum_i w_i*B**i and compares all its
    transitions in one lazy stream, one int compare each.  Any other
    component, or one whose stream finds a mismatch, is walked state by state:
    the label, then the row lengths, then letter by letter.  At most
    MAX_FAILURES failures are kept.  dedup(build_union(...)) passes too: equal
    maps have equal v and M, so a merge only empties a later twin component."""
    n, d, A = aut.n, aut.d, aut.alphabet_size
    labels, rows, letters = aut.labels, aut.rows, aut.letters  # rows[sid] for sid >= 0 only: row() is never called
    n_packed = [0] * len(labels)  # n times the packed offset of each state, written a component at a time
    failures, checked = [], 0
    for mi, M in enumerate(aut.matrices):
        start, end = aut.component_range(mi)
        norm = row_sum_norm(M)

        def entries(k):  # every out (k=0) or next (k=1) entry of the component, in state order
            return chain.from_iterable(map(itemgetter(k), islice(rows, start, end)))

        def within(k, low, high):  # one pass, then min/max over the distinct entries only
            seen = {*entries(k)}
            return low <= min(seen) and max(seen) < high

        mxs = [mat_vec(M, x) for x in letters]
        offsets = list(map(itemgetter(1), islice(labels, start, end)))
        # every offset inside the box, a pass at a time; False for a component without states, which walks none
        if ({*map(len, offsets)} == {d} and -norm <= min(chain.from_iterable(offsets))
                and max(chain.from_iterable(offsets)) < norm
                and all(map(eq, map(aut.state_id, repeat(mi), offsets), range(start, end)))
                and {*map(len, chain.from_iterable(islice(rows, start, end)))} == {A}
                and within(0, 0, A) and within(1, start, end)):
            # With v and offset(nxt[x]) in the box [-norm, norm-1]^d, every coordinate of
            # digit(out[x]) + n*offset(nxt[x]) and of v + M*x lies in [-n*norm, n*norm-1],
            # below B/2 in absolute value, so packing in base B tells such vectors apart.
            places = [(2 * n * norm + 1) ** i for i in range(d)]

            def pack(w):
                return sum(map(mul, places, w))
            p_v, p_digit, p_mx = list(map(pack, offsets)), list(map(pack, letters)), list(map(pack, mxs))
            n_packed[start:end] = map(n.__mul__, p_v)
            # pack(digit(out[x]) + n*offset(nxt[x]) - M*x), x cycling through the letters, against pack(v)
            recomposed = map(sub, map(add, map(p_digit.__getitem__, entries(0)), map(n_packed.__getitem__, entries(1))),
                             cycle(p_mx))
            if all(map(eq, recomposed, chain.from_iterable(map(repeat, p_v, repeat(A))))):
                checked += (end - start) * A
                continue
        for sid, v, (out, nxt) in zip(range(start, end), offsets, islice(rows, start, end)):
            checked += A
            if len(v) != d or not all(-norm <= c < norm for c in v) or aut.state_id(mi, v) != sid:
                failures.append(CheckFailure(sid, None, f"offset {v} outside [{-norm}, {norm - 1}]^d or not unique"))
            if len(out) != A or len(nxt) != A:
                failures += [CheckFailure(sid, None, f"{name} has {len(t)} entries, expected {A}")
                             for name, t in (("out", out), ("next", nxt)) if len(t) != A]
            else:
                for x, (y, t) in enumerate(zip(out, nxt)):
                    if not (0 <= y < A and start <= t < end):
                        failures.append(CheckFailure(sid, x, f"output {y} or next state {t} outside {start}..{end - 1}"))
                        continue
                    got, want = tuple(a + n * b for a, b in zip(letters[y], labels[t][1])), tuple(map(add, v, mxs[x]))
                    if got != want:
                        failures.append(CheckFailure(sid, x, f"recomposed {got}, expected v+Mx = {want}"))
            if len(failures) >= MAX_FAILURES:
                return WellDefinednessReport(False, checked, failures[:MAX_FAILURES])
    return WellDefinednessReport(not failures, checked, failures)


class _Memo(dict):
    "self[key] is fn(key), computed on first use and kept: right for every key, negative or large ints included."

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def json_pieces(aut: Automaton):
    """The text of to_json(aut) in pieces: the head, one piece per state (each
    after the first led by its separator), then the tail.  Writing them one
    by one never holds the whole document.

    The text is json.dumps of the schema object with sorted keys, written
    directly: each int's text is made once, and so is the text of each
    distinct out table.  Every table entry, label and matrix entry must be
    an int."""
    ints = _Memo(int.__repr__)  # True == 1 shares its key, so each int is written as the JSON int it acts as

    def items(t):
        return ", ".join(map(ints.__getitem__, t))
    outs = _Memo(items)
    yield f'{{"d": {aut.d}, "matrices": {json.dumps(aut.matrices)}, "n": {aut.n}, "states": ['
    sep = ""
    for (m, v), (out, nxt) in zip(aut.labels, aut.rows):
        yield f'{sep}{{"m": {ints[m]}, "next": [{items(nxt)}], "out": [{outs[out]}], "v": [{items(v)}]}}'
        sep = ", "
    yield "]}"


def to_json(aut: Automaton) -> str:
    """Serialize to the documented schema:
    {"n":int, "d":int, "matrices":[[[int]]], "states":[{"m","v","out","next"}]}
    with out/next indexed by dense letter index.  Component boundaries are the
    runs of equal "m".  The text is json.dumps(obj, sort_keys=True) of that
    object, byte for byte, joined from json_pieces."""
    return "".join(json_pieces(aut))


def _loads(text: str):
    "json.loads, with every way the text can fail to decode raised as a FormatError."
    try:
        return json.loads(text)
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


def _columns(states: list, d: int, alphabet: int):
    """(labels, tables) of a states list whose field types and lengths and next
    entries pass, in a fixed number of passes over whole columns; else None."""
    try:  # TypeError: an entry that is not an object; KeyError: one without the four keys
        ms, vs, outs, nxts = zip(*map(itemgetter("m", "v", "out", "next"), states))
    except (TypeError, KeyError):
        return None
    if not ({*map(type, vs), *map(type, outs), *map(type, nxts)} == {list}
            # by type, never by value: True == 1 and 1.0 == 1 hash alike
            and {*map(type, chain(ms, *map(chain.from_iterable, (vs, outs, nxts))))} == {int}
            and {*map(len, vs)} == {d} and {*map(len, outs), *map(len, nxts)} == {alphabet}):
        return None
    seen_next = {*chain.from_iterable(nxts)}
    if 0 <= min(seen_next) and max(seen_next) < len(states):
        return zip(ms, map(tuple, vs)), zip(map(tuple, outs), map(tuple, nxts))
    return None


def from_json(text: str) -> Automaton:
    """Parse and validate the schema written by to_json; round-trips exactly.
    The states are checked, and loaded, in whole-list passes and one Automaton
    construction, whose labels must then be unique and whose distinct out
    tables must be permutations.  A document that fails any step is walked
    state by state only to name the first failing state; it loads nothing."""
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
    if len(mats[0]) != d:  # _matrices gave every entry entry 0's size
        raise FormatError(f"matrices[0] is {len(mats[0])}x{len(mats[0])}, expected {echo(d)}x{echo(d)}")
    if not isinstance(obj["states"], list) or not obj["states"]:
        raise FormatError("states must be a nonempty list")
    # each state lists all n**d letters, so n**d <= len(text); decided without forming n**d
    if d * (n.bit_length() - 1) > len(text).bit_length():
        raise FormatError(f"an alphabet of n**d letters (d = {echo(d)}) cannot fit in a {len(text)}-character document")

    states, alphabet = obj["states"], n ** d
    columns = _columns(states, d, alphabet)
    try:
        aut = columns and Automaton(n, d, mats, *columns)
    except ValueError:  # labels out of range or not grouped
        aut = None
    # with every entry an int, equal out tables are equal entry by entry: each distinct one is checked once
    if aut and len(aut._state_ids) == len(states) and {*map(frozenset, aut.outs)} == {frozenset(range(alphabet))}:
        return aut
    # a pass failed: the walk raises the first failure in document order
    total, seen_labels, last_m = len(states), set(), 0
    for si, entry in enumerate(states):
        where = f"states[{si}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        for key in ("m", "v", "out", "next"):
            if key not in entry:
                raise FormatError(f"{where} missing key {key!r}")
        m = entry["m"]
        if type(m) is not int or not 0 <= m < len(mats):
            raise FormatError(f"{where}.m = {echo(m)} is not a matrix index")
        if m < last_m:
            raise FormatError(f"{where}.m = {m} breaks the component grouping (states must be grouped by matrix)")
        last_m = m
        v = entry["v"]
        if not isinstance(v, list) or len(v) != d or not all(type(c) is int for c in v):
            raise FormatError(f"{where}.v must be a list of {d} integers")
        label = (m, tuple(v))
        if label in seen_labels:
            raise FormatError(f"{where} duplicates the state label m[{m}]:({','.join(map(echo, v))})")
        seen_labels.add(label)
        out, nxt = entry["out"], entry["next"]
        for name, table, limit in (("out", out, alphabet), ("next", nxt, total)):
            if not isinstance(table, list) or len(table) != alphabet:
                raise FormatError(f"{where}.{name} must be a list of {alphabet} entries")
            for x, t in enumerate(table):
                if type(t) is not int or not 0 <= t < limit:
                    raise FormatError(f"{where}.{name}[{x}] = {echo(t)} out of range [0, {limit})")
        if len(set(out)) != alphabet:
            raise FormatError(f"{where}.out is not a permutation of the {alphabet} letters")
    raise FormatError("internal error: the whole-list passes refused a states list that every per-state check passes")


def dedup(aut: Automaton) -> Automaton:
    """Merge behaviorally equivalent states by partition refinement (equal
    output tables, then equal successor classes, iterated to a fixed point).
    Library only, with no CLI flag: it stays while the benchmark still times
    it.  The plain construction always keeps components disjoint.  Merged
    automata keep one label per class; in a build_union automaton a component
    equal to an earlier one merges whole, so the check still passes but the
    emptied component's labels name no state (`no state m[1]:(0,0) ...`)."""
    labels, tables = aut.labels, aut.rows[:len(aut.labels)]
    sigs = {}
    cls = [sigs.setdefault(out, len(sigs)) for out, _ in tables]
    count = 0
    while count < len(sigs) < len(tables):  # no class split, or only singletons left: a fixed point
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
