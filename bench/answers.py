"""Known answers for the benchmark, derived without the code under test.

Every answer the workloads check comes from the exact integer arithmetic in
this file: a group word over the automaton states is an affine map on
`Z_n^d` (the state `m[i]:(v)` is `u -> v + M_i*u`, the translation `t[j]` is
`u -> u + e_j`), so a word is the identity exactly when its composed map is
`(I, 0)`, and its image of a digit word is the low digits of `A*u + c`.
Nothing here imports `adicaut`; the workloads compare the library's outputs
against these values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


class InconsistentAnswer(Exception):
    "Two independent derivations of an expected answer disagree."


# --- exact integer linear algebra -------------------------------------------

def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


def mat_vec(A, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in A)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def inverse(A):
    "Inverse of an integer matrix by Gauss-Jordan over the rationals; it must be integral."
    d = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(A)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inv = tuple(tuple(row[d:]) for row in rows)
    if any(x.denominator != 1 for row in inv for x in row):
        raise InconsistentAnswer(f"matrix {A} has no integral inverse")
    return tuple(tuple(int(x) for x in row) for row in inv)


def row_sum_norm(A):
    return max(sum(abs(x) for x in row) for row in A)


def sanov_matrices(d):
    """The Sanov pair [[1,2],[0,1]], [[1,0],[2,1]] padded with an identity
    block to d x d: diag(I_{d-2}, lower)."""
    def block(lower):
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for i in range(2):
            for j in range(2):
                rows[d - 2 + i][d - 2 + j] = lower[i][j]
        return tuple(map(tuple, rows))
    return block(((1, 2), (0, 1))), block(((1, 0), (2, 1)))


def offset_box(A):
    "State offsets of one component: every coordinate in [-N, N-1], N the row-sum norm."
    norm = row_sum_norm(A)
    side = 2 * norm
    d = len(A)
    return [tuple(k // side ** i % side - norm for i in range(d)) for k in range(side ** d)]


def letters(n, d):
    "Digit tuples in dense order: index i has the base-n digits of i, first coordinate lowest."
    return [tuple(k // n ** i % n for i in range(d)) for k in range(n ** d)]


# --- digit words ------------------------------------------------------------

def decode(word, n):
    "Integer vector of a digit word, least significant letter first."
    d = len(word[0])
    coords = [0] * d
    weight = 1
    for x in word:
        for i, c in enumerate(x):
            coords[i] += c * weight
        weight *= n
    return tuple(coords)


def encode(u, n, length):
    "Low `length` base-n digits of each coordinate, as a tuple of letters."
    rest = [c % n ** length for c in u]
    out = []
    for _ in range(length):
        out.append(tuple(c % n for c in rest))
        rest = [c // n for c in rest]
    return tuple(out)


def image(f, word, n):
    "Image of a digit word under the affine map f = (A, c)."
    A, c = f
    return encode(vec_add(mat_vec(A, decode(word, n)), c), n, len(word))


# --- words and their affine maps ---------------------------------------------

@dataclass(frozen=True)
class State:
    "The factor m[comp]:(offset)^exp, exp = +-1."
    comp: int
    offset: tuple
    exp: int = 1

    def text(self):
        tok = f"m[{self.comp}]:({','.join(map(str, self.offset))})"
        return tok if self.exp == 1 else tok + "^-1"


@dataclass(frozen=True)
class Translation:
    "The factor t[axis]^power, built from component 0."
    axis: int
    power: int

    def text(self):
        return f"t[{self.axis}]" if self.power == 1 else f"t[{self.axis}]^{self.power}"


def word_text(factors):
    return " ".join(f.text() for f in factors if not (isinstance(f, Translation) and f.power == 0))


class Family:
    "The Sanov block pair over base n in dimension d, with its exact inverses."

    def __init__(self, d, n=2):
        self.d = d
        self.n = n
        self.mats = sanov_matrices(d)
        self.invs = tuple(inverse(M) for M in self.mats)
        for M, Mi in zip(self.mats, self.invs):
            if mat_mul(M, Mi) != identity(d):
                raise InconsistentAnswer(f"inverse of {M} does not check")
        self.zero = (0,) * d

    @property
    def states(self):
        "State count of the union: sum_i (2*||M_i||)^d."
        return sum((2 * row_sum_norm(M)) ** self.d for M in self.mats)

    @property
    def transitions(self):
        return self.states * self.n ** self.d

    def unit(self, axis, k=1):
        return tuple(k if i == axis - 1 else 0 for i in range(self.d))

    def factor_map(self, f):
        "The affine map (A, c) of one factor."
        if isinstance(f, Translation):
            return identity(self.d), self.unit(f.axis, f.power)
        if f.exp == 1:
            return self.mats[f.comp], f.offset
        Mi = self.invs[f.comp]
        return Mi, tuple(-x for x in mat_vec(Mi, f.offset))

    def affine(self, factors):
        "Composed map of a word; the rightmost factor acts first."
        A, c = identity(self.d), self.zero
        for f in factors:
            B, b = self.factor_map(f)
            A, c = mat_mul(A, B), vec_add(mat_vec(A, b), c)
        return A, c

    def is_identity(self, factors):
        return self.affine(factors) == (identity(self.d), self.zero)

    def ladder(self, comps, axis):
        """C * t[axis] * C^-1 * rhs^-1 with C the product of the zero-offset
        states of `comps`: conjugating a translation by a linear map L gives
        the translation by column `axis` of L, which rhs spells out."""
        L = identity(self.d)
        for i in comps:
            L = mat_mul(L, self.mats[i])
        fs = [State(i, self.zero) for i in comps] + [Translation(axis, 1)]
        fs += [State(i, self.zero, -1) for i in reversed(comps)]
        fs += [Translation(i + 1, -L[i][axis - 1]) for i in reversed(range(self.d)) if L[i][axis - 1]]
        return fs

    def expanded_length(self, factors):
        """Factor count of the freely reduced word over states, with t[j]^k
        spelled out as k copies of m[0]:(0) * m[0]:(-e_j)^-1."""
        out = []
        for f in factors:
            if isinstance(f, State):
                seq = [(f.comp, f.offset, f.exp)]
            else:
                neg = self.unit(f.axis, -1)
                pair = [(0, self.zero, 1), (0, neg, -1)] if f.power > 0 else [(0, neg, 1), (0, self.zero, -1)]
                seq = pair * abs(f.power)
            for comp, v, e in seq:
                if out and out[-1] == (comp, v, -e):
                    out.pop()
                else:
                    out.append((comp, v, e))
        return len(out)

    def witness(self, factors, max_length=64):
        """Shortest digit word, among the zero word and the unit vectors, whose
        image under the word differs from itself: (length, word)."""
        f = self.affine(factors)
        for length in range(1, max_length + 1):
            for u in [self.zero] + [self.unit(j) for j in range(1, self.d + 1)]:
                word = encode(u, self.n, length)
                if image(f, word, self.n) != word:
                    return length, word
        return None


# --- the workloads' inputs -----------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One word-problem query and its expected outcome.  `budget` is set for
    queries meant to exhaust their node budget (expected exit code 4)."""
    family: str
    text: str
    length: int
    identity: bool
    witness_length: int = 0
    budget: int = 0


def make_query(fam, family, factors, identity):
    """A query whose verdict by construction must match its composed affine
    map; a nontrivial one must also have a witness."""
    if fam.is_identity(factors) != identity:
        raise InconsistentAnswer(f"{family}: affine map disagrees with the construction: {word_text(factors)}")
    wl = 0
    if not identity:
        found = fam.witness(factors)
        if found is None:
            raise InconsistentAnswer(f"{family}: no witness for a nontrivial word")
        wl = found[0]
    return Query(family, word_text(factors), fam.expanded_length(factors), identity, wl)


def wp_queries(fam, rng):
    """One pass of the word-problem mix.  Every query whose cost sits near
    the median or above is fixed, so a pass costs the same for every seed;
    the seed picks the cheap commutators, the budget probe and the order.
    The pass length is odd, so alternating traced and untraced ops sees
    every query both ways.  Six queries per pass cost far more than the rest
    (three mixed_k4, then mixed_k3, conjugation k=12 and deep_m8), and the
    commutators pad the pass to 45, so the p90 rank of whole passes falls in
    the middle of the second three rather than on the largest of them."""
    d = fam.d
    qs = []

    def add(family, factors, identity):
        qs.append(make_query(fam, family, factors, identity))

    for k in range(1, 5):
        for j in range(1, d + 1):
            add(f"mixed_k{k}", fam.ladder([0, 1] * k, j), True)
    for k in range(2, 13, 2):
        # M_0 moves only the last axis, so that is the axis worth conjugating
        add("conjugation", fam.ladder([0] * k, d), True)
    for i, (k, m) in enumerate(((1, 4), (1, 8), (2, 5), (2, 7), (3, 6), (3, 8))):
        j = 1 + i % d
        add(f"deep_m{m}", fam.ladder([0, 1] * k, j) + [Translation(j, 2 ** m)], False)
        if qs[-1].witness_length != m + 1:
            raise InconsistentAnswer(f"deep_m{m}: first difference at length {qs[-1].witness_length}, expected {m + 1}")
    for _ in range(20):
        i, j = rng.sample(range(1, d + 1), 2)
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        add("commutator", [Translation(i, a), Translation(j, b), Translation(i, -a), Translation(j, -b)], True)
    # The budget probe is a cheap identity ladder; the workload sets its
    # budget below the closure size once that size is known.
    add("budget", fam.ladder([0, 1] * rng.randint(1, 2), rng.randint(1, d)), True)
    rng.shuffle(qs)
    return qs


def probe_queries(fam):
    "Three cheap queries for workloads whose own loop does not decide words."
    d = fam.d
    return [make_query(fam, "conjugation", fam.ladder([0, 0], d), True),
            make_query(fam, "commutator",
                       [Translation(1, 3), Translation(2, 5), Translation(1, -3), Translation(2, -5)], True),
            make_query(fam, "deep_m4", fam.ladder([0], d) + [Translation(d, 16)], False)]


@dataclass(frozen=True)
class ActCase:
    "One act op: a word, a digit word, and the image they must produce."
    text: str
    factors: tuple
    word: tuple
    expected: tuple
    steps: int


def random_state(fam, rng):
    comp = rng.randrange(2)
    norm = row_sum_norm(fam.mats[comp])
    return State(comp, tuple(rng.randint(-norm, norm - 1) for _ in range(fam.d)), rng.choice((1, -1)))


def act_cases(fam, rng, count=41, max_power=1000, min_length=64, max_length=1024, max_states=40):
    """One pass of the act mix.  Powers, digit-word lengths and state counts
    sit on fixed grids paired in a fixed order, so a pass costs the same for
    every seed; the seed picks the states, axes, signs, positions and digits."""
    cases = []
    n = fam.n
    for i in range(count):
        power = round(max_power ** ((i + 0.5) / count))
        length = round(min_length * (max_length / min_length) ** (((7 * i) % count + 0.5) / count))
        factors = [random_state(fam, rng) for _ in range((13 * i) % (max_states + 1))]
        factors.insert(rng.randint(0, len(factors)), Translation(rng.randint(1, fam.d), rng.choice((1, -1)) * power))
        word = tuple(tuple(rng.randrange(n) for _ in range(fam.d)) for _ in range(length))
        expected = image(fam.affine(factors), word, n)
        cases.append(ActCase(word_text(factors), tuple(factors), word, expected,
                             fam.expanded_length(factors) * length))
    rng.shuffle(cases)
    return cases


def oracle_samples(fam, rng, count=100, max_length=8):
    "Single-state words on short digit words, for the pipeline's oracle step."
    out = []
    for _ in range(count):
        f = random_state(fam, rng)
        length = rng.randint(1, max_length)
        word = tuple(tuple(rng.randrange(fam.n) for _ in range(fam.d)) for _ in range(length))
        out.append(ActCase(f.text(), (f,), word, image(fam.factor_map(f), word, fam.n), length))
    return out


def seeded(seed, stream):
    "Independent generator per input stream, so adding one stream leaves the others unchanged."
    return random.Random(f"{seed}:{stream}")
