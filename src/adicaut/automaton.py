"""Construction of the letter-to-letter transducers whose states realize the
affine maps u -> v + M*u on base-n digit words.

For one matrix M the state set is the offset box (coordinates in
[-||M||, ||M||-1]); the state with offset v maps an input letter x to the
digit part of v + M*x and hands the carry part to the next state.  For a
family of matrices the automata are glued as a disjoint union, never merged,
so the state count is exactly sum_i (2*||M_i||)**d.

Letters are stored as dense indices (base-n expansion of the index, first
coordinate least significant); digit tuples appear only at I/O boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .linalg import (
    Vector,
    all_letters,
    det,
    format_letter,
    mat_vec,
    matrix,
    matrix_from_lists,
    matrix_to_lists,
    mod_div,
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


@dataclass(frozen=True, slots=True)
class AutomatonState:
    """One transducer state: `out[x]` is the dense index of the letter written
    when reading letter x, `nxt[x]` the global id of the state that handles
    the rest of the word."""

    matrix_index: int
    offset: Vector
    out: tuple
    nxt: tuple


class Automaton:
    """An immutable transducer over the alphabet {0..n-1}^d.

    `components[i]` is the half-open range of state ids built from
    `matrices[i]`.  Equality is structural.
    """

    __slots__ = ("n", "d", "matrices", "states", "components",
                 "_weights", "_state_ids", "_inv_out", "_letters")

    def __init__(self, n, d, matrices, states, components):
        self.n = n
        self.d = d
        self.matrices = tuple(matrices)
        self.states = tuple(states)
        self.components = tuple(components)
        self._weights = tuple(n ** i for i in range(d))
        self._letters = all_letters(n, d)
        self._state_ids = {(st.matrix_index, st.offset): sid for sid, st in enumerate(self.states)}
        self._inv_out = {}

    @property
    def alphabet_size(self) -> int:
        return self.n ** self.d

    def letter_index(self, x: Vector) -> int:
        "Dense index of a digit tuple (first coordinate least significant)."
        return sum(c * w for c, w in zip(x, self._weights, strict=True))

    def letter_digits(self, i: int) -> Vector:
        return self._letters[i]

    def state_id(self, matrix_index: int, offset) -> int:
        "Global id of the state labeled (matrix_index, offset); KeyError if absent."
        return self._state_ids[(matrix_index, tuple(offset))]

    def component_range(self, matrix_index: int):
        return self.components[matrix_index]

    def inv_out(self, sid: int) -> tuple:
        "Inverse of a state's output permutation, cached."
        cached = self._inv_out.get(sid)
        if cached is None:
            out = self.states[sid].out
            inv = [-1] * len(out)
            for x, y in enumerate(out):
                inv[y] = x
            if -1 in inv:
                raise ValueError(f"output table of state {sid} is not a permutation")
            cached = self._inv_out[sid] = tuple(inv)
        return cached

    def __eq__(self, other):
        if not isinstance(other, Automaton):
            return NotImplemented
        return (self.n == other.n and self.d == other.d
                and self.matrices == other.matrices
                and self.states == other.states
                and self.components == other.components)

    def __repr__(self):
        return (f"Automaton(n={self.n}, d={self.d}, "
                f"{len(self.matrices)} matrices, {len(self.states)} states)")


def state_count_bound(Ms) -> int:
    "The guaranteed ceiling 2**d * sum_i ||M_i||**d on the union's state count."
    d = len(Ms[0])
    return 2 ** d * sum(row_sum_norm(matrix(M)) ** d for M in Ms)


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
    weights = tuple(n ** i for i in range(d))
    sizes = [(2 * row_sum_norm(M)) ** d for M in mats]
    ids = list(range(sum(sizes)))  # shared int objects keep the big tables lean

    states = []
    components = []
    base = 0
    for mi, M in enumerate(mats):
        norm = row_sum_norm(M)
        offsets = offset_box(M)
        index_of = {v: k for k, v in enumerate(offsets)}
        mxs = [mat_vec(M, x) for x in letters]
        lo = -norm * n
        dm = [divmod(s, n) for s in range(lo, norm * n)]
        for v in offsets:
            out_row = []
            nxt_row = []
            for mx in mxs:
                idx = 0
                q = []
                for a, b, w in zip(v, mx, weights):
                    qq, r = dm[a + b - lo]
                    idx += r * w
                    q.append(qq)
                out_row.append(idx)
                t = index_of.get(tuple(q))
                if t is None:
                    raise BuildError("internal error: transition left the offset box")
                nxt_row.append(ids[base + t])
            states.append(AutomatonState(mi, v, tuple(out_row), tuple(nxt_row)))
        components.append((base, base + len(offsets)))
        base += len(offsets)
    return Automaton(n, d, tuple(mats), tuple(states), tuple(components))


def build_single(M, n: int, alphabet_cap: int = DEFAULT_ALPHABET_CAP) -> Automaton:
    "Transducer for a single matrix; states indexed by the offset box order."
    return build_union([M], n, alphabet_cap)


@dataclass(frozen=True)
class CheckFailure:
    state: int
    letter: int
    reason: str


@dataclass
class WellDefinednessReport:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return f"well-defined: {self.checked} transitions checked"
        head = "; ".join(f"state {f.state} letter {f.letter}: {f.reason}" for f in self.failures[:3])
        return f"NOT well-defined ({len(self.failures)} failures shown of {self.checked} checked): {head}"


def well_definedness_check(aut: Automaton, max_failures: int = 100) -> WellDefinednessReport:
    """Recompute every transition from scratch and compare with the stored
    tables: for each state offset v and letter x, v + M*x must have all
    coordinates in [-||M||*n, ||M||*n - 1], its carry part must lie in the
    offset box again, and the tables must record exactly its digit and carry
    parts.  Applies to automata in as-built layout (not deduplicated ones,
    whose state labels no longer cover the full box)."""
    n = aut.n
    failures = []
    checked = 0
    letters = [aut.letter_digits(i) for i in range(aut.alphabet_size)]
    for mi, M in enumerate(aut.matrices):
        norm = row_sum_norm(M)
        lo, hi = -norm * n, norm * n - 1
        mxs = [mat_vec(M, x) for x in letters]
        start, end = aut.component_range(mi)
        for sid in range(start, end):
            st = aut.states[sid]
            v = st.offset
            for li, mx in enumerate(mxs):
                if len(failures) >= max_failures:
                    return WellDefinednessReport(False, checked, failures)
                checked += 1
                w = tuple(a + b for a, b in zip(v, mx))
                if not all(lo <= c <= hi for c in w):
                    failures.append(CheckFailure(sid, li, f"v+Mx = {w} outside [{lo}, {hi}]^d"))
                    continue
                r, q = mod_div(w, n)
                if not all(-norm <= c <= norm - 1 for c in q):
                    failures.append(CheckFailure(sid, li, f"carry {q} left the offset box"))
                    continue
                if st.out[li] != aut.letter_index(r):
                    failures.append(CheckFailure(sid, li, f"output table says {st.out[li]}, digit part is {aut.letter_index(r)}"))
                elif st.nxt[li] != aut._state_ids.get((mi, q), -1):
                    failures.append(CheckFailure(sid, li, f"next table says {st.nxt[li]}, carry part is state {(mi, q)}"))
    return WellDefinednessReport(not failures, checked, failures)


def _component_ranges(states, count: int):
    """Half-open state-id range of each of `count` matrix indices, for states
    already grouped by ascending matrix index."""
    ranges = []
    start = 0
    for mi in range(count):
        end = start
        while end < len(states) and states[end].matrix_index == mi:
            end += 1
        ranges.append((start, end))
        start = end
    return tuple(ranges)


def to_json(aut: Automaton, indent=None) -> str:
    """Serialize to the documented schema:
    {"n":int, "d":int, "matrices":[[[int]]], "states":[{"m","v","out","next"}]}
    with out/next indexed by dense letter index.  Component boundaries are the
    runs of equal "m"."""
    obj = {
        "n": aut.n,
        "d": aut.d,
        "matrices": [matrix_to_lists(M) for M in aut.matrices],
        "states": [
            {"m": st.matrix_index, "v": list(st.offset), "out": list(st.out), "next": list(st.nxt)}
            for st in aut.states
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=indent)


def from_json(text: str) -> Automaton:
    "Parse and validate the schema written by to_json; round-trips exactly."
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise FormatError("top level must be an object")
    for key in ("n", "d", "matrices", "states"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}")
    n, d = obj["n"], obj["d"]
    if not isinstance(n, int) or n < 2:
        raise FormatError(f"n must be an integer >= 2, got {obj['n']!r}")
    if not isinstance(d, int) or d < 1:
        raise FormatError(f"d must be an integer >= 1, got {obj['d']!r}")
    try:
        mats = tuple(matrix_from_lists(m) for m in obj["matrices"])
    except (ValueError, TypeError) as e:
        raise FormatError(f"matrices: {e}") from None
    for i, M in enumerate(mats):
        if len(M) != d:
            raise FormatError(f"matrices[{i}] is {len(M)}x{len(M)}, expected {d}x{d}")

    alphabet = n ** d
    total = len(obj["states"])
    states = []
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
        if not isinstance(m, int) or not 0 <= m < len(mats):
            raise FormatError(f"{where}.m = {m!r} is not a matrix index")
        if m < last_m:
            raise FormatError(f"{where}.m = {m} breaks the component grouping (states must be grouped by matrix)")
        last_m = m
        v = entry["v"]
        if not isinstance(v, list) or len(v) != d or not all(isinstance(c, int) for c in v):
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
                if not isinstance(t, int) or not 0 <= t < limit:
                    raise FormatError(f"{where}.{name}[{x}] = {t!r} out of range [0, {limit})")
        if len(set(out)) != alphabet:
            raise FormatError(f"{where}.out is not a permutation of the {alphabet} letters")
        states.append(AutomatonState(m, tuple(v), tuple(out), tuple(nxt)))
    return Automaton(n, d, mats, tuple(states), _component_ranges(states, len(mats)))


def export(aut: Automaton, format: str = "json") -> str:
    "Dispatch to to_json / to_dot."
    if format == "json":
        return to_json(aut)
    if format == "dot":
        return to_dot(aut)
    raise ValueError(f"unknown export format {format!r} (expected 'json' or 'dot')")


def to_dot(aut: Automaton) -> str:
    """GraphViz digraph: one node per state labeled `m[i]:(v)`, one edge per
    (state, letter) labeled `x|y` (input|output) in digit-tuple syntax."""
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for sid, st in enumerate(aut.states):
        label = f"m[{st.matrix_index}]:({format_letter(st.offset)})"
        lines.append(f'  s{sid} [label="{label}"];')
    for sid, st in enumerate(aut.states):
        for li in range(aut.alphabet_size):
            x = format_letter(aut.letter_digits(li))
            y = format_letter(aut.letter_digits(st.out[li]))
            lines.append(f'  s{sid} -> s{st.nxt[li]} [label="{x}|{y}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dedup(aut: Automaton) -> Automaton:
    """Optional post-pass that merges behaviorally equivalent states by
    partition refinement (equal output tables, then equal successor classes,
    iterated to a fixed point).  This is an extension: the plain construction
    always keeps components disjoint.  Merged automata keep one representative
    label per class, so label lookups and the structural well-definedness
    check no longer apply to them."""
    states = aut.states
    cls = {}
    keys = {}
    for sid, st in enumerate(states):
        k = keys.setdefault(st.out, len(keys))
        cls[sid] = k
    while True:
        sigs = {}
        new_cls = {}
        for sid, st in enumerate(states):
            sig = (cls[sid], tuple(cls[t] for t in st.nxt))
            k = sigs.setdefault(sig, len(sigs))
            new_cls[sid] = k
        if len(sigs) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls

    reps = {}
    for sid in range(len(states)):
        reps.setdefault(cls[sid], sid)
    ordered = sorted(reps.values(), key=lambda sid: (states[sid].matrix_index, sid))
    new_id = {cls[sid]: i for i, sid in enumerate(ordered)}

    new_states = []
    for sid in ordered:
        st = states[sid]
        nxt = tuple(new_id[cls[t]] for t in st.nxt)
        new_states.append(AutomatonState(st.matrix_index, st.offset, st.out, nxt))
    return Automaton(aut.n, aut.d, aut.matrices, tuple(new_states),
                     _component_ranges(new_states, len(aut.matrices)))
