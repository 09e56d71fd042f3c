"""Construction of the letter-to-letter transducers whose states realize the
affine maps u -> v + M*u on base-n digit words.

For one matrix M the state set is the offset box (coordinates in
[-||M||, ||M||-1]); the state with offset v maps an input letter x to the
digit part of v + M*x and hands the carry part to the next state.  For a
family of matrices the automata are glued as a disjoint union, never merged,
so the state count is exactly sum_i (2*||M_i||)**d.

Each coordinate of v + M*x splits into digit and carry on its own, so
build_union sums one digit row and one carry row per coordinate into each
state's tables; well_definedness_check never divides, but recomposes
digit_i(out[x]) + n*offset_i(nxt[x]) and compares it row by row with v_i + (M*x)_i.

Each state is stored once: its label (matrix index, offset) in
`Automaton.labels` and its table (out, nxt) in `Automaton.rows`, the one
transition store every reader goes through.  Letters are stored as dense
indices (base-n expansion of the index, first coordinate least significant);
digit tuples appear only at I/O boundaries.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import pairwise
from operator import add, itemgetter, mul

from .linalg import (
    Vector,
    all_letters,
    det,
    format_letter,
    mat_vec,
    matrix,
    row_sum_norm,
    vec_add,
)

DEFAULT_ALPHABET_CAP = 4096


class BuildError(ValueError):
    "Rejected construction input (singular matrix, non-coprime base, ...)."


class AlphabetCapError(BuildError):
    "The alphabet n**d exceeds the configured cap."


class FormatError(ValueError):
    "Malformed serialized automaton."


class Automaton:
    """An immutable transducer over the alphabet {0..n-1}^d.

    State `sid` has the label `labels[sid]` = (matrix index, offset v) and the
    table `tables[sid]` = (out, nxt): reading letter x it writes the letter
    with dense index out[x] and hands the rest of the word to state nxt[x].
    Labels must be grouped by ascending matrix index; `components[i]` is the
    half-open range of state ids whose matrix index is i.  A state or its
    inverse is coded as the int `sid` or `~sid`, and `rows[c]` is the code's
    (letter map, row of next codes): `rows[sid]` is the table as given,
    `rows[~sid]` maps y to the x with out[x] = y and goes on to ~nxt[x], and
    is None until `row` builds it.  Equality compares the labels and the given
    tables, never the inverse rows.
    """

    __slots__ = ("n", "d", "matrices", "labels", "components", "rows",
                 "_index", "_state_ids", "_letters")

    def __init__(self, n, d, matrices, labels, tables):
        self.n = n
        self.d = d
        self.matrices = tuple(matrices)
        self.labels = tuple(labels)
        self.rows = [*tables, *[None] * len(self.labels)]
        if len(self.rows) != 2 * len(self.labels):
            raise ValueError(f"{len(self.labels)} labels but {len(self.rows) - len(self.labels)} tables")
        if any(a[0] > b[0] for a, b in pairwise(self.labels)):
            raise ValueError("states must be grouped by ascending matrix index")
        key = itemgetter(0)  # a temporary list of all keys fragments the heap over rebuilds
        self.components = tuple((bisect_left(self.labels, mi, key=key), bisect_left(self.labels, mi + 1, key=key))
                                for mi in range(len(self.matrices)))
        self._letters = all_letters(n, d)
        self._index = {x: i for i, x in enumerate(self._letters)}
        self._state_ids = {label: sid for sid, label in enumerate(self.labels)}

    @property
    def alphabet_size(self) -> int:
        return self.n ** self.d

    def letter_index(self, x: Vector) -> int:
        "Dense index of a digit tuple (first coordinate least significant)."
        return self._index[x]

    def letter_digits(self, i: int) -> Vector:
        return self._letters[i]

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
    d = len(Ms[0])
    return 2 ** d * sum(row_sum_norm(matrix(M)) ** d for M in Ms)


def _box_rows(side, rows, v, out, nxt):
    """(offset, out row, next row) for each offset ending in v, in offset_box order, one at a
    time; rows[i][k] is coordinate i's share of the letter index and next state id at side[k]."""
    if not rows:
        return [(v, out, nxt)]
    return (t for x, (dr, cr) in zip(side, rows[-1])
            for t in _box_rows(side, rows[:-1], (x,) + v, list(map(add, out, dr)), list(map(add, nxt, cr))))


def build_union(Ms, n: int, alphabet_cap: int = DEFAULT_ALPHABET_CAP) -> Automaton:
    """Disjoint union of the transducers for each matrix, in the given order.
    Identical matrices yield identical but separate components.

    Each matrix must have nonzero determinant coprime to n (otherwise the
    output tables would not permute the alphabet).  The alphabet size n**d is
    capped to keep accidental huge builds from exhausting memory.
    """
    mats = [matrix(M) for M in Ms]
    if not mats:
        raise BuildError("need at least one matrix")
    d = len(mats[0])
    for i, M in enumerate(mats):
        if len(M) != d:
            raise BuildError(f"matrix {i} is {len(M)}x{len(M)}, expected {d}x{d}")
    if not isinstance(n, int) or n < 2:
        raise BuildError(f"base must be an integer >= 2, got {n!r}")
    if n ** d > alphabet_cap:
        raise AlphabetCapError(
            f"alphabet size {n}**{d} = {n ** d} exceeds the cap {alphabet_cap}; "
            f"raise the cap explicitly if this size is intended")
    for i, M in enumerate(mats):
        D = det(M)
        if D == 0:
            raise BuildError(f"matrix {i} has determinant 0")
        g = math.gcd(abs(D), n)
        if g != 1:
            raise BuildError(f"determinant {D} of matrix {i} is not coprime to base {n} (gcd={g})")

    letters = all_letters(n, d)
    ids = list(range(sum((2 * row_sum_norm(M)) ** d for M in mats)))  # shared int objects keep the big tables lean

    labels, tables = [], []
    base = 0
    for mi, M in enumerate(mats):
        norm = row_sum_norm(M)
        side = range(-norm, norm)
        # splits[i][k][x] = (carry, digit) of coordinate i of v + M*x for v_i = side[k]
        splits = [[[divmod(v + sum(map(mul, Mi, x)), n) for x in letters] for v in side] for Mi in M]
        if not all(-norm <= q < norm for per_v in splits for row in per_v for q, _ in row):
            raise BuildError("internal error: a carry left the offset box")
        rows = [[([r * n ** i for _, r in row], [(q + norm) * (2 * norm) ** i for q, _ in row])
                 for row in per_v] for i, per_v in enumerate(splits)]
        for v, o, c in _box_rows(side, rows, (), [0] * len(letters), [base] * len(letters)):
            labels.append((mi, v))
            tables.append((tuple(o), tuple([ids[t] for t in c])))
        base += len(side) ** d
    return Automaton(n, d, mats, labels, tables)


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
    of M, digit_i(out[x]) + n*offset_i(nxt[x]) must equal v_i + (M*x)_i for
    every coordinate i and letter x, compared a whole row at a time.  Offsets
    must lie in the offset box and label their own state, rows have one entry
    per letter, next states lie in their own component.  Only failing rows are
    walked letter by letter; at most MAX_FAILURES failures are kept.  Not for
    deduplicated automata."""
    n, d, A = aut.n, aut.d, aut.alphabet_size
    labels, rows = aut.labels, aut.rows  # rows[sid] for sid >= 0 are the tables as given; row() is never called
    letters = [aut.letter_digits(y) for y in range(A)]
    digit = [[y[i] for y in letters] for i in range(d)]
    n_offset = [[n * v[i] for _, v in labels] for i in range(d)]
    failures = []
    checked = 0
    for mi, M in enumerate(aut.matrices):
        norm = row_sum_norm(M)
        start, end = aut.component_range(mi)
        mxs = [mat_vec(M, x) for x in letters]
        expected = [{c: [c + mx[i] for mx in mxs] for c in range(-norm, norm)} for i in range(d)]
        for sid in range(start, end):
            v = labels[sid][1]
            out, nxt = rows[sid]
            checked += A
            if not all(-norm <= c < norm for c in v) or aut.state_id(mi, v) != sid:
                failures.append(CheckFailure(sid, None, f"offset {v} outside [{-norm}, {norm - 1}]^d or not unique"))
            if len(out) != A or len(nxt) != A:
                failures += [CheckFailure(sid, None, f"{name} has {len(t)} entries, expected {A}")
                             for name, t in (("out", out), ("next", nxt)) if len(t) != A]
            elif (0 <= min(out) and max(out) < A and start <= min(nxt) and max(nxt) < end
                    and all(list(map(add, map(digit[i].__getitem__, out), map(n_offset[i].__getitem__, nxt)))
                            == expected[i].get(v[i]) for i in range(d))):
                continue
            else:
                for x, (y, t) in enumerate(zip(out, nxt)):
                    if not (0 <= y < A and start <= t < end):
                        failures.append(CheckFailure(sid, x, f"output {y} or next state {t} outside {start}..{end - 1}"))
                        continue
                    got = tuple(a + n * b for a, b in zip(letters[y], labels[t][1]))
                    if got != vec_add(v, mxs[x]):
                        failures.append(CheckFailure(sid, x, f"recomposed {got}, expected v+Mx = {vec_add(v, mxs[x])}"))
            if len(failures) >= MAX_FAILURES:
                return WellDefinednessReport(False, checked, failures[:MAX_FAILURES])
    return WellDefinednessReport(not failures, checked, failures)


def to_json(aut: Automaton) -> str:
    """Serialize to the documented schema:
    {"n":int, "d":int, "matrices":[[[int]]], "states":[{"m","v","out","next"}]}
    with out/next indexed by dense letter index.  Component boundaries are the
    runs of equal "m".  The stored tuples go to json as they are, which
    writes them as arrays."""
    obj = {
        "n": aut.n,
        "d": aut.d,
        "matrices": aut.matrices,
        "states": [{"m": m, "v": v, "out": out, "next": nxt}
                   for (m, v), (out, nxt) in zip(aut.labels, aut.rows)],
    }
    return json.dumps(obj, sort_keys=True)


def _loads(text: str):
    "json.loads, with every way the text can fail to decode raised as a FormatError."
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an int literal past the digit limit, nesting past the recursion limit
        raise FormatError(f"invalid JSON: {e}") from None


def _matrices(value) -> tuple:
    "A nonempty list of row-major matrices; an entry's error names its index."
    if not isinstance(value, list) or not value:
        raise FormatError("matrices must be a nonempty list")
    mats = []
    for i, m in enumerate(value):
        if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
            raise FormatError(f"matrices[{i}]: matrix must be a list of rows")
        try:
            mats.append(matrix(m))
        except (ValueError, TypeError) as e:
            raise FormatError(f"matrices[{i}]: {e}") from None
    return tuple(mats)


def read_matrices(text: str) -> tuple:
    "Parse a matrix file: a nonempty JSON list of square integer matrices, row-major."
    return _matrices(_loads(text))


def from_json(text: str) -> Automaton:
    "Parse and validate the schema written by to_json; round-trips exactly."
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise FormatError("top level must be an object")
    for key in ("n", "d", "matrices", "states"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}")
    n, d = obj["n"], obj["d"]
    if type(n) is not int or n < 2:  # JSON true/false are bools, not 1/0
        raise FormatError(f"n must be an integer >= 2, got {obj['n']!r}")
    if type(d) is not int or d < 1:
        raise FormatError(f"d must be an integer >= 1, got {obj['d']!r}")
    mats = _matrices(obj["matrices"])
    for i, M in enumerate(mats):
        if len(M) != d:
            raise FormatError(f"matrices[{i}] is {len(M)}x{len(M)}, expected {d}x{d}")
    if not isinstance(obj["states"], list) or not obj["states"]:
        raise FormatError("states must be a nonempty list")
    # each state lists all n**d letters, so n**d <= len(text); decided without forming n**d
    if d * (n.bit_length() - 1) > len(text).bit_length():
        raise FormatError(f"an alphabet of n**d letters (d = {d}) cannot fit in a {len(text)}-character document")

    alphabet = n ** d
    total = len(obj["states"])
    labels, tables = [], []
    seen_labels = set()
    last_m = 0
    for si, entry in enumerate(obj["states"]):
        where = f"states[{si}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        for key in ("m", "v", "out", "next"):
            if key not in entry:
                raise FormatError(f"{where} missing key {key!r}")
        m = entry["m"]
        if type(m) is not int or not 0 <= m < len(mats):
            raise FormatError(f"{where}.m = {m!r} is not a matrix index")
        if m < last_m:
            raise FormatError(f"{where}.m = {m} breaks the component grouping (states must be grouped by matrix)")
        last_m = m
        v = entry["v"]
        if not isinstance(v, list) or len(v) != d or not all(type(c) is int for c in v):
            raise FormatError(f"{where}.v must be a list of {d} integers")
        label = (m, tuple(v))
        if label in seen_labels:
            raise FormatError(f"{where} duplicates the state label m[{m}]:({format_letter(tuple(v))})")
        seen_labels.add(label)
        out, nxt = entry["out"], entry["next"]
        for name, table, limit in (("out", out, alphabet), ("next", nxt, total)):
            if not isinstance(table, list) or len(table) != alphabet:
                raise FormatError(f"{where}.{name} must be a list of {alphabet} entries")
            for x, t in enumerate(table):
                if type(t) is not int or not 0 <= t < limit:
                    raise FormatError(f"{where}.{name}[{x}] = {t!r} out of range [0, {limit})")
        if len(set(out)) != alphabet:
            raise FormatError(f"{where}.out is not a permutation of the {alphabet} letters")
        labels.append(label)
        tables.append((tuple(out), tuple(nxt)))
    return Automaton(n, d, mats, labels, tables)


def to_dot(aut: Automaton) -> str:
    """GraphViz digraph: one node per state labeled `m[i]:(v)`, one edge per
    (state, letter) labeled `x|y` (input|output) in digit-tuple syntax."""
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for sid, (m, v) in enumerate(aut.labels):
        lines.append(f'  s{sid} [label="m[{m}]:({format_letter(v)})"];')
    for sid, (out, nxt) in enumerate(aut.rows[:len(aut.labels)]):
        for li in range(aut.alphabet_size):
            x = format_letter(aut.letter_digits(li))
            y = format_letter(aut.letter_digits(out[li]))
            lines.append(f'  s{sid} -> s{nxt[li]} [label="{x}|{y}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dedup(aut: Automaton) -> Automaton:
    """Merge behaviorally equivalent states by partition refinement (equal
    output tables, then equal successor classes, iterated to a fixed point).
    Library only, with no CLI flag: it stays while the benchmark still times
    it.  The plain construction always keeps components disjoint.  Merged
    automata keep one representative label per class, so label lookups and
    the structural well-definedness check no longer apply to them."""
    labels, tables = aut.labels, aut.rows[:len(aut.labels)]
    sigs = {}
    cls = [sigs.setdefault(out, len(sigs)) for out, _ in tables]
    count = 0
    while len(sigs) > count:  # a pass that splits no class has reached the fixed point
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
