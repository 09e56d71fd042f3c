"""Block-diagonal extensions, a stock free pair of 2x2 matrices, and group
presentations read off a matrix family.

The presentation for matrices M_1..M_m over dimension d has commuting
generators a_1..a_d (the coordinate translations) and one stable letter per
matrix, with each stable letter conjugating a_j to the product of the a_i
raised to the j-th column entries of its matrix.  When every matrix is
invertible over the integers these are defining relators of a semidirect
product; otherwise the same relators present an ascending HNN extension and
the emitted presentation is tagged as one-sided.

`relator_check` is the one relation checker: it turns each relator into a
word over the automaton states and reads `decide`'s result as its outcome,
so budget exhaustion is an outcome too.  `adicaut relations` checks the
column relators in one call and prints a row per (matrix, axis);
`verify_relation` is one such row, kept while the benchmark calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import Automaton
from .linalg import Matrix, block_diag, echo, is_unimodular, mat_mul, matrix_family, identity, inverse_unimodular
from .treeaction import DEFAULT_NODE_BUDGET, GroupWord, decide, translation_word


def block_extend(uppers, lowers):
    """Pair up one list of (d-2)x(d-2) matrices with one list of 2x2 matrices
    into block-diagonal d x d matrices diag(upper, lower).  The outputs map
    onto the group generated by the lower blocks, so a free lower family
    keeps the extended family free."""
    ups, lows = matrix_family(uppers), matrix_family(lowers)
    if len(ups) != len(lows):
        raise ValueError(f"got {len(ups)} upper blocks but {len(lows)} lower blocks")
    if len(lows[0]) != 2:
        raise ValueError(f"lower blocks must be 2x2, got {len(lows[0])}x{len(lows[0])}")
    return [block_diag(u, l) for u, l in zip(ups, lows)]


def sanov_pair():
    """The classical pair of unimodular 2x2 matrices generating a free group
    of rank 2: [[1,2],[0,1]] and [[1,0],[2,1]].  Freeness is evidenced at
    desk scale by the word-distinctness enumeration in the tests, not proven
    here."""
    return ((1, 2), (0, 1)), ((1, 0), (2, 1))


def word_matrix(word, mats) -> Matrix:
    """Evaluate a word of signed codes (`i` for mats[i], `~i` for its
    inverse) as a matrix product; inverses must be integral.  A code that is
    not an int in [-len(mats), len(mats)) is a ValueError."""
    ms = matrix_family(mats)
    factors = {}
    result = identity(len(ms[0]))
    for c in word:
        if type(c) is not int or not -len(ms) <= c < len(ms):
            raise ValueError(f"code {echo(c)} is not an int in range (got {len(ms)} matrices)")
        if c not in factors:
            factors[c] = ms[c] if c >= 0 else inverse_unimodular(ms[~c])
        result = mat_mul(result, factors[c])
    return result


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with commuting generators plus stable letters.

    Relators are freely reduced (name, exponent) words.  `ascending_hnn` is
    set when some matrix is not invertible over the integers; the relators
    then hold only in the one-sided (ascending) form."""

    abelian_generators: tuple
    stable_generators: tuple
    relators: tuple
    ascending_hnn: bool

    def format(self) -> str:
        "Plain text `< gens | relators >`; commutators print as [x,y]."
        gens = ", ".join(self.abelian_generators + self.stable_generators)
        rels = ", ".join(self.format_relator(r) for r in self.relators)
        return f"< {gens} | {rels} >"

    @staticmethod
    def format_relator(relator) -> str:
        if (len(relator) == 4
                and relator[0][1] == relator[1][1] == 1
                and relator[2] == (relator[0][0], -1)
                and relator[3] == (relator[1][0], -1)):
            return f"[{relator[0][0]},{relator[1][0]}]"
        parts = []
        for name, e in relator:
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)


def presentation_for(Ms) -> Presentation:
    """Presentation of the group generated by the coordinate translations and
    the given matrices: translations commute, and each stable letter t_k
    conjugates a_j to a_1^{m_1j} ... a_d^{m_dj} read off column j of M_k."""
    mats = matrix_family(Ms)
    d = len(mats[0])
    a = tuple(f"a{i}" for i in range(1, d + 1))
    if len(mats) == 1:
        t = ("t",)
    else:
        t = tuple(f"t{k}" for k in range(1, len(mats) + 1))
    relators = []
    for i in range(d):
        for j in range(i + 1, d):
            relators.append(((a[i], 1), (a[j], 1), (a[i], -1), (a[j], -1)))
    for k, M in enumerate(mats):
        for j in range(d):
            # neighbouring factors never share a name, so dropping zero exponents leaves it reduced
            powers = tuple((a[i], -M[i][j]) for i in reversed(range(d)) if M[i][j])
            relators.append(((t[k], 1), (a[j], 1), (t[k], -1)) + powers)
    ascending = any(not is_unimodular(M) for M in mats)
    return Presentation(a, t, tuple(relators), ascending)


@dataclass
class RelatorResult:
    relator: str
    outcome: str  # "pass" | "fail" | "budget-exceeded"
    visited: int

    @property
    def ok(self) -> bool:
        return self.outcome == "pass"


@dataclass
class RelatorCheckReport:
    ok: bool
    results: list


def relator_check(aut: Automaton, pres: Presentation,
                  budget: int = DEFAULT_NODE_BUDGET) -> RelatorCheckReport:
    """Rewrite every relator into a word over the automaton states and decide
    it through the word problem.  t_k is the zero-offset state of component
    k; a_j is the axis-j translation of the component of the relator's first
    stable letter (component 0 when it has none, as in the commutators).
    An identity is the outcome "pass", a nontrivial word "fail", and budget
    exhaustion is recorded per relator as "budget-exceeded"."""
    d = aut.d
    if len(pres.abelian_generators) != d:
        raise ValueError(f"presentation has {len(pres.abelian_generators)} translation generators, automaton dimension is {d}")
    if len(pres.stable_generators) != len(aut.matrices):
        raise ValueError(f"presentation has {len(pres.stable_generators)} stable letters, automaton has {len(aut.matrices)} components")
    axes = {name: j for j, name in enumerate(pres.abelian_generators, start=1)}
    stable = {name: k for k, name in enumerate(pres.stable_generators)}

    results = []
    for relator in pres.relators:
        k = next((stable[name] for name, _ in relator if name in stable), 0)
        w = GroupWord(aut)
        for name, e in relator:
            if name in stable:
                # m[k]:(0) is the first factor of component k's translation words
                g = GroupWord(aut, translation_word(aut, stable[name], 1).codes[:1])
            elif name in axes:
                g = translation_word(aut, k, axes[name])
            else:
                raise ValueError(f"relator uses unknown generator {echo(name)}")
            w = w * g ** e
        decision = decide(w, budget)
        outcome = {"identity": "pass", "nontrivial": "fail"}.get(decision.result, decision.result)
        results.append(RelatorResult(Presentation.format_relator(relator), outcome, decision.visited))
    return RelatorCheckReport(all(r.ok for r in results), results)


def verify_relation(aut: Automaton, matrix_index: int, axis: int,
                    budget: int = DEFAULT_NODE_BUDGET) -> RelatorResult:
    """The column relator t_k a_j t_k^-1 = a_1^{M_k[1][j]} ... a_d^{M_k[d][j]}
    of `presentation_for(aut.matrices)` for k = `matrix_index` and j = `axis`
    (1-based), checked by `relator_check`: its `outcome` is "pass", "fail" or
    "budget-exceeded"."""
    translation_word(aut, matrix_index, axis)  # rejects a component or an axis out of range
    pres = presentation_for(aut.matrices)
    # presentation_for lists the d(d-1)/2 commutators, then d column relators per matrix
    column = pres.relators[aut.d * (aut.d - 1) // 2 + matrix_index * aut.d + axis - 1]
    return relator_check(aut, replace(pres, relators=(column,)), budget).results[0]
