"""Construction of the letter-to-letter transducers whose states realize the
affine maps u -> v + M*u on base-n digit words.

For one matrix M the state set is the offset box (coordinates in
[-||M||, ||M||-1]); the state with offset v maps an input letter x to the
digit part of v + M*x and hands the carry part to the next state.  For a
family of matrices the automata are glued as a disjoint union, never merged,
so the state count is exactly sum_i (2*||M_i||)**d.

Each coordinate of v + M*x splits into digit and carry on its own, and the
digit depends on v only mod n: build_union makes one out table per class of v
mod n, shared by its states, and sums one carry row per coordinate into each
next row.  It, from_json and dedup pause the cyclic collector; their tables
hold no cycles.  well_definedness_check never divides: it packs vectors into
ints in a base wide enough for the offset box, recomposes digit(out[x]) +
n*offset(nxt[x]) for a whole component in one stream, compares it with v +
M*x, and walks only a failing component state by state and letter by letter.

Each state is stored once: its label (matrix index, offset) in
`Automaton.labels`, its table (out, nxt) in `Automaton.rows`, which every
reader goes through.  `Automaton` alone checks each state's shape, pools equal
out tables (`outs`) and holds the letter table (`letters`) of dense indices
(base-n, first coordinate least significant); digit tuples appear only at I/O
boundaries.  to_json writes each int's text and each distinct out table's once."""

from __future__ import annotations

import gc
import json
import math
import sys
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, pairwise, product, repeat
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
    """An invertible transducer over the alphabet {0..n-1}^d, immutable apart
    from the inverse rows `row` builds on first use.

    State `sid` has the label `labels[sid]` = (matrix index, offset v) and the
    given table `rows[sid]` = (out, nxt): reading the letter with dense index
    x (digits `letters[x]`) it writes out[x] and hands the rest of the word to
    state nxt[x].  Equal out tables share the first one's tuple, and `outs`
    holds each distinct one once.  Labels must be grouped by ascending matrix
    index, each in range(len(matrices)); `components[i]` is the half-open
    range of state ids whose matrix index is i.  A repeated label, an offset
    without d coordinates, a row without n**d entries or an out table that
    does not permute range(n**d) in ints (bools act as ints) raises ValueError
    naming the first such state.  A state or its inverse is coded as the int
    `sid` or `~sid`, and `rows[c]` is the code's (letter map, row of next
    codes): `rows[sid]` is the table as given, `rows[~sid]` maps y to the x
    with out[x] = y and goes on to ~nxt[x], and is None until `row` builds
    it.  Equality compares the labels and the given tables, never the
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
        self._state_ids = {label: sid for sid, label in enumerate(self.labels)}
        A, N = n ** d, len(self.labels)
        # whole passes, each distinct out table once: an equal table given later shares the first one's tuple
        if not (len(self._state_ids) == N and {*map(len, map(itemgetter(1), self.labels))} <= {d}
                and {*map(len, self.outs), *map(len, map(itemgetter(1), islice(self.rows, N)))} <= {A}
                and {*map(type, chain.from_iterable(self.outs))} <= {int, bool}
                and {*map(frozenset, self.outs)} <= {frozenset(range(A))}):
            first = {}  # a pass failed: name the first state that breaks a rule
            for sid, (label, (out, nxt)) in enumerate(zip(self.labels, self.rows)):
                if first.setdefault(label, sid) != sid:
                    raise ValueError(f"state {sid} repeats the label of state {first[label]}")
                for name, size, want in (("offset", len(label[1]), d), ("out", len(out), A), ("next", len(nxt), A)):
                    if size != want:
                        raise ValueError(f"state {sid}: {name} has length {size}, expected {echo(want)}")
                if {*map(type, out)} - {int, bool} or {*out} != {*range(A)}:
                    raise ValueError(f"state {sid}: out is not a permutation of range({echo(A)})")
        key = itemgetter(0)  # a temporary list of all keys fragments the heap over rebuilds
        self.components = tuple((bisect_left(self.labels, mi, key=key), bisect_left(self.labels, mi + 1, key=key))
                                for mi in range(len(self.matrices)))
        self.letters = tuple(all_letters(n, d))
        self._index = {x: i for i, x in enumerate(self.letters)}

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

    def tables_of(outs, level, row0):  # arguments, as a generator in the loop would read the last component's rows
        # lazy, so each (out, next) pair is freed once pooled; tuple([...]) is allocated once, tuple(map(...)) resizes
        return ((outs[key + r], tuple([ids[t] for t in map(add, nx, cr)])) for key, nx in level for r, cr in row0)

    labels, tables = [], []
    for mi, M in enumerate(mats):
        norm = row_sum_norm(M)
        # splits[i][k][x] = (carry, digit) of coordinate i of v + M*x for v_i = k - norm
        splits = [[[divmod(v + sum(map(mul, Mi, x)), n) for x in letters] for v in range(-norm, norm)] for Mi in M]
        if not all(-norm <= q < norm for per_v in splits for row in per_v for q, _ in row):
            raise BuildError("internal error: a carry left the offset box")
        c = min(n, 2 * norm)  # a digit depends on v_i mod n only: k - norm and k % n - norm agree mod n, k % n < c
        digits = [[[r * n ** i for _, r in row] for row in per_v[:c]] for i, per_v in enumerate(splits)]
        # outs[sum_i k_i * c**i] is the one out table of every offset v with v_i = k_i - norm mod n
        outs = [tuple(map(sum, zip(*drs))) for drs in product(*digits[::-1])]
        rows = [[(k % n * c ** i, [(q + norm) * (2 * norm) ** i for q, _ in row]) for k, row in enumerate(per_v)]
                for i, per_v in enumerate(splits)]
        # (class key, next) sums over coordinates d-1 down to 1, the last varying slowest as in offset_box
        level = [(0, [ids[len(labels)]] * len(letters))]
        for per_v in rows[:0:-1]:
            level = [(key + r, [ids[t] for t in map(add, nx, cr)]) for key, nx in level for r, cr in per_v]
        tables.append(tables_of(outs, level, rows[0]))
        labels += [(mi, v) for v in offset_box(M)]
    return Automaton(n, d, mats, labels, chain.from_iterable(tables))


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
    x.  Offsets lie in the offset box and next states are ints of their own
    component; the constructor already holds the rest of the shape.

    A component whose offsets and next entries all hold packs each vector w
    into the int sum_i w_i*B**i and compares all its transitions in one lazy
    stream, one int compare each.  Any other component, or one whose stream
    finds a mismatch, is walked state by state: the offset, then letter by
    letter.  At most MAX_FAILURES failures are kept.  dedup(build_union(...))
    passes too: equal maps have equal v and M, so a merge only empties a
    later twin component."""
    n, d, A = aut.n, aut.d, aut.alphabet_size
    labels, rows, letters = aut.labels, aut.rows, aut.letters  # rows[sid] for sid >= 0 only: row() is never called
    n_packed = [0] * len(labels)  # n times the packed offset of each state, written a component at a time
    failures, checked = [], 0
    for mi, M in enumerate(aut.matrices):
        start, end = aut.component_range(mi)
        norm = row_sum_norm(M)

        def entries(k):  # every out (k=0) or next (k=1) entry of the component, in state order
            return chain.from_iterable(map(itemgetter(k), islice(rows, start, end)))

        def within(low, high):  # every next entry: one pass, then min/max over the distinct entries only
            seen = {*entries(1)}
            return low <= min(seen) and max(seen) < high

        mxs = [mat_vec(M, x) for x in letters]
        offsets = list(map(itemgetter(1), islice(labels, start, end)))
        # offsets in the box, next entries ints of the component: every entry's type, as a set hides 1.0 behind 1
        if (start < end and -norm <= min(chain.from_iterable(offsets)) and max(chain.from_iterable(offsets)) < norm
                and {*map(type, entries(1))} <= {int, bool} and within(start, end)):
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
            if not all(-norm <= c < norm for c in v):
                failures.append(CheckFailure(sid, None, f"offset {v} outside [{-norm}, {norm - 1}]^d"))
            for x, (y, t) in enumerate(zip(out, nxt)):
                if not (isinstance(t, int) and start <= t < end):
                    failures.append(CheckFailure(sid, x, f"next state {t!r} is not an int in {start}..{end - 1}"))
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


def _columns(states: list):
    """(labels, tables) of a states list whose field types and next entries
    pass, in a fixed number of passes over whole columns; else None."""
    try:  # TypeError: an entry that is not an object; KeyError: one without the four keys
        ms, vs, outs, nxts = zip(*map(itemgetter("m", "v", "out", "next"), states))
    except (TypeError, KeyError):
        return None
    if not ({*map(type, vs), *map(type, outs), *map(type, nxts)} == {list}
            # by type, never by value: True == 1 and 1.0 == 1 hash alike
            and {*map(type, chain(ms, *map(chain.from_iterable, (vs, outs, nxts))))} == {int}):
        return None
    seen_next = {*chain.from_iterable(nxts)}
    if 0 <= min(seen_next, default=0) and max(seen_next, default=0) < len(states):
        return zip(ms, map(tuple, vs)), zip(map(tuple, outs), map(tuple, nxts))
    return None


@_gc_paused()
def from_json(text: str) -> Automaton:
    """Parse and validate the schema written by to_json; round-trips exactly.
    The states are checked, and loaded, in whole-list passes (_columns) and
    one Automaton construction, which checks labels, lengths and out tables.
    A document that fails any step is walked state by state only to name the
    first failing state; it loads nothing."""
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
    if columns := _columns(states):
        with suppress(ValueError):  # a rule the constructor refuses: the walk names it in the document's terms
            return Automaton(n, d, mats, *columns)
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


@_gc_paused()
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
