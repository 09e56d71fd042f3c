"""Words in automaton states acting as tree automorphisms.

A group word is a freely reduced tuple of signed codes over one automaton:
`sid` stands for the state `sid` and `~sid` for its inverse, so two
neighbours cancel when they sum to -1.  A word acts on digit words letter
by letter, the leftmost code applied last.  Products and inverses decompose
by wreath recursion: the root permutation of a product composes
outermost-first, and the section of a product below a letter is the product
of the factor sections along the letters each suffix produces.  Inverse
codes act without being expanded: reading through a state backwards just
means inverting its output permutation before stepping.

The word problem is decided by closing a word under sections: a word acts
trivially on the whole tree exactly when every word reachable from it by
taking sections has the identity root permutation.  Sections never have more
factors than their parent and draw states from a finite set, so the closure
is finite and the search terminates.  `decide` returns a `Decision`: the
result "identity", "nontrivial" or "budget-exceeded" (a node budget guards
against pathological blowup, and running out of it is a result, never an
answer) and the number of words visited.  Its first 256 visited words cost
the sum of len*n^d letter steps; past them the sum of ceil(len/4)*n^d block
joins plus 4*n^d steps per distinct block.

`act`, the sections and the closure all read the automaton's one signed
table, `rows[c]` = (letter map, row of next codes), and have `row` build an
inverse entry they find missing.  They walk a word one letter at a time and
freely reduce each section on a stack as they build it; the closure keeps its
words rightmost code first, the order the letters walk them in.  `act` keeps
the stack only while sections shrink: after a letter or stretch that kept the
section's length it walks a stretch twice as long (from 2) factor by factor
and reduces the stretch's end states once, in at most twice the steps.  Past
256 words the closure walks each distinct block of 4 codes once per call
instead and pushes each block's reduced section onto the stack whole, code by
code only where it cancels into the top; free reduction is confluent, so the
sections are the same.

`act` looks up one letter per input letter (`letter_index`, KeyError if
absent) and reads the letter table back once per output letter, so it does
not check the image's letters again.  `parse_word` costs one match and one
label lookup per token, concatenates the powers and freely reduces the whole
word once; the axis translations `t[j]@i` it reads come from
`translation_word`, and so do the relators `constructions` decides.  Both
resolve a missing label through one lookup, which names the component or
state; error messages show a token, label coordinate or number through `echo`.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import add

from .automaton import Automaton
from .linalg import bounded_int, echo, format_letter
from .nadic import DigitWord

DEFAULT_NODE_BUDGET = 10 ** 6
# the most codes a power or parse_word expands a word to, and the longest
# digit word `adicaut verify --depth` draws
MAX_WORD_CODES = 10 ** 6


class WordError(ValueError):
    "Malformed word: bad syntax, unknown state, or mismatched automaton."


class BudgetExceededError(RuntimeError):
    "Raised by the `GroupWord.is_identity` shim when the closure's node budget runs out."

    def __init__(self, visited: int):
        super().__init__(f"word-problem search exhausted its node budget after {visited} words")
        self.visited = visited


def _word(aut, reduced_codes) -> "GroupWord":
    w = object.__new__(GroupWord)
    w.aut = aut
    w.codes = reduced_codes
    return w


class GroupWord:
    """A freely reduced word over the states of one automaton.

    `codes` holds the ints `sid` for a state and `~sid` for its inverse;
    every code must lie in [-N, N) for N states, and adjacent inverse pairs
    are cancelled on construction, so the empty word is the identity.  Words
    are tied to their automaton instance; mixing instances is rejected.
    `==` is structural (same codes); decide `w1 * ~w2` for equality as
    group elements.
    """

    __slots__ = ("aut", "codes")

    def __init__(self, aut: Automaton, codes=()):
        nstates = len(aut.labels)
        codes = tuple(codes)
        for c in codes:
            if type(c) is not int or not -nstates <= c < nstates:
                raise WordError(f"code {echo(c)} is not an int in range (automaton has {nstates} states)")
        self.aut = aut
        self.codes = _cancel(codes)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return self.aut is other.aut and self.codes == other.codes

    def __hash__(self):
        return hash((id(self.aut), self.codes))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.aut is not other.aut:
            raise WordError("cannot multiply words over different automata")
        return _word(self.aut, _cancel(self.codes + other.codes))

    def __invert__(self) -> "GroupWord":
        return _word(self.aut, tuple([~c for c in reversed(self.codes)]))

    def __pow__(self, k: int) -> "GroupWord":
        "The k-th power; WordError if it expands past MAX_WORD_CODES codes before free reduction."
        bounded_int(k, "exponent")
        if not self.codes:
            return self
        if len(self.codes) * abs(k) > MAX_WORD_CODES:
            raise WordError(f"a power of a {len(self.codes)}-code word expands past {MAX_WORD_CODES} codes")
        base = self if k >= 0 else ~self
        return _word(self.aut, _cancel(base.codes * abs(k)))

    def __repr__(self):
        return f"GroupWord({self.format() or '<identity>'})"

    def format(self) -> str:
        """Word in the `m[i]:(v)` token grammar, runs collapsed to powers,
        factors joined with ` * `.  The identity formats as the empty string."""
        parts = []
        for c, run in groupby(self.codes):
            exp = len(list(run))
            if c < 0:
                c, exp = ~c, -exp
            mi, v = self.aut.labels[c]
            parts.append(f"m[{mi}]:({format_letter(v)})" + (f"^{exp}" if exp != 1 else ""))
        return " * ".join(parts)

    def act(self, u: DigitWord) -> DigitWord:
        """Image of a digit word, same length, by wreath recursion.  A letter
        walks the current section right to left while the next section is freely
        reduced on a stack.  After a letter or stretch whose section kept its
        length, the next stretch, twice as long (from 2), is walked factor by
        factor without a stack and its end states are reduced once; a cancelling
        pair's sections cancel again, so the image is the same.  A stretch that
        shrank the section sends the walk back to single letters, so the cost is
        at most twice the sum of the reduced section lengths.  An empty section
        leaves the rest of the digit word as it is.  One lookup per input letter,
        one table read per image letter; the image's letters are not checked again."""
        aut = self.aut
        if u.base != aut.n or u.dim != aut.d:
            raise WordError(f"word over base {aut.n} dim {aut.d} cannot act on a digit word of base {echo(u.base)} dim {echo(u.dim)}")
        rows, build = aut.rows, aut.row
        seq = [*map(aut.letter_index, u.letters)]  # rewritten in place into the image
        word = self.codes[::-1]  # a section is kept rightmost code first
        i, m = 0, 1  # the next letter and the stretch length
        while word and i < len(seq):
            end = min(i + m, len(seq))
            if m == 1:
                x, section, top = seq[i], [], None
                for c in word:
                    letter_map, row = rows[c] or build(c)
                    c, x = row[x], letter_map[x]
                    if top == ~c:
                        section.pop()
                        top = section[-1] if section else None
                    else:
                        section.append(c)
                        top = c
                seq[i] = x
            else:
                ends = []
                for c in word:
                    for j in range(i, end):
                        letter_map, row = rows[c] or build(c)
                        x = seq[j]
                        seq[j] = letter_map[x]
                        c = row[x]
                    ends.append(c)
                section = _cancel(tuple(ends))
            m = 2 * m if len(section) == len(word) else 1
            i, word = end, section
        image = object.__new__(DigitWord)  # u's base and dim, letters from aut.letters: DigitWord's check cannot fail
        image.__dict__.update(letters=tuple(map(aut.letters.__getitem__, seq)), base=u.base, dim=u.dim)
        return image

    def root_and_sections(self):
        """The permutation this word induces on first letters, and the reduced
        word acting below each letter (dense-indexed).  Every section has at
        most as many factors as this word."""
        perm, sections = _sections(self.aut, self.codes[::-1])
        return perm, [_word(self.aut, s[::-1]) for s in sections]

    def is_identity(self, budget: int = DEFAULT_NODE_BUDGET) -> bool:
        """`decide(self, budget)` as a bool, kept for the benchmark's replay:
        raises BudgetExceededError(visited) when the budget runs out, so
        exhaustion is never reported as False.  New code calls `decide`."""
        d = decide(self, budget)
        if d.result == "budget-exceeded":
            raise BudgetExceededError(d.visited)
        return d.result == "identity"


def _cancel(codes):
    "Free reduction of a tuple of signed codes; a reduced tuple comes back as is."
    if -1 not in map(add, codes, codes[1:]):
        return codes
    out = []
    for c in codes:
        if out and out[-1] == ~c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _sections(aut, word):
    """Root permutation of a code tuple given rightmost code first, and its
    freely reduced sections, one per letter and each rightmost code first:
    every letter walks the word's rows while a stack reduces its section."""
    rows, build = aut.rows, aut.row
    steps = [rows[c] or build(c) for c in word]
    perm, sections = [], []
    for x in range(aut.alphabet_size):
        section, top = [], None
        for letter_map, row in steps:
            c, x = row[x], letter_map[x]
            if top == ~c:
                section.pop()
                top = section[-1] if section else None
            else:
                section.append(c)
                top = c
        perm.append(x)
        sections.append(tuple(section))
    return tuple(perm), sections


@dataclass(frozen=True)
class Decision:
    """The outcome of `decide`: `result` is "identity", "nontrivial" or
    "budget-exceeded", and `visited` is how many distinct words the closure
    under sections visited (the budget itself when it ran out)."""
    result: str
    visited: int


def decide(w: GroupWord, budget: int = DEFAULT_NODE_BUDGET) -> Decision:
    """Decide whether `w` acts trivially by closing it under sections.  The
    result is "budget-exceeded" once more than `budget` words would be
    visited; a budget that is not an int of at least 1 is a ValueError.
    Past 256 visited words, each distinct 4-code block is walked once per
    call; the sections, result and count stay those of whole-word walks."""
    bounded_int(budget, "the node budget", 1)
    aut = w.aut
    letters = range(aut.alphabet_size)
    idperm = tuple(letters)
    queue = deque([w.codes[::-1]])  # words rightmost code first, as _sections takes and gives them
    visited = set(queue)
    memo = {}  # 4-code block -> per letter (reduced section, exit letter, ~section[0])
    shared = {}  # one copy of each distinct piece: blocks share most of them
    while queue:
        word = queue.popleft()
        if len(visited) < 256:  # small closures repeat too few blocks to repay the memo
            perm, sections = _sections(aut, word)
        else:
            blocks = []
            for i in range(0, len(word), 4):
                block = word[i:i + 4]
                pieces = memo.get(block)
                if pieces is None:
                    pieces = memo[block] = [shared.setdefault(piece, piece) for piece in
                                            [(sec, y, ~sec[0] if sec else None) for y, sec in zip(*_sections(aut, block))]]
                blocks.append(pieces)
            perm, sections = [], []
            for x in letters:
                stack = []
                for pieces in blocks:
                    piece, x, head = pieces[x]
                    if stack and stack[-1] == head:  # the piece cancels into the stack
                        for c in piece:
                            if stack and stack[-1] == ~c:
                                stack.pop()
                            else:
                                stack.append(c)
                    else:
                        stack += piece
                perm.append(x)
                sections.append(tuple(stack))
            perm = tuple(perm)
        if perm != idperm:
            return Decision("nontrivial", len(visited))
        for s in sections:
            if s and s not in visited:
                if len(visited) >= budget:
                    return Decision("budget-exceeded", len(visited))
                visited.add(s)
                queue.append(s)
    return Decision("identity", len(visited))


def translation_word(aut: Automaton, matrix_index: int, axis: int) -> GroupWord:
    """The two-factor word m_0 * m_{-e_axis}^-1 from the given component; it
    acts on digit words as +1 on coordinate `axis` (1-based), carries
    included.  Both states exist in every component of a `build_union` automaton."""
    d = aut.d
    a = _state(aut, matrix_index, (0,) * d)
    if type(axis) is not int or not 1 <= axis <= d:  # 1.5 and True compare like ints
        raise WordError(f"axis {echo(axis)} out of range 1..{d}")
    b = _state(aut, matrix_index, tuple(-1 if i == axis - 1 else 0 for i in range(d)))
    return _word(aut, (a, ~b))  # distinct states, so already reduced


def _state(aut: Automaton, matrix_index: int, offset, token: str = "") -> int:
    """The id of the state labeled (matrix_index, offset).  A missing label raises
    WordError naming the component outside the automaton (or not an int), else the
    offset's wrong length (quoting `token`, the word token naming it), else the absent state."""
    if type(matrix_index) is not int or not 0 <= matrix_index < len(aut.matrices):
        raise WordError(f"no component {echo(matrix_index)} in this automaton")
    if len(offset) != aut.d:
        raise WordError(f"state offset {echo(token)} has {len(offset)} coordinates, expected {aut.d}")
    try:
        return aut.state_id(matrix_index, offset)
    except KeyError:
        raise WordError(f"no state m[{matrix_index}]:({','.join(map(echo, offset))}) in this automaton") from None


_STATE_TOKEN = re.compile(r"m\[(\d+)\]:\((-?\d+(?:,-?\d+)*)\)(?:\^(-?\d+))?$", re.ASCII)
_TRANS_TOKEN = re.compile(r"t\[(\d+)\](?:@(\d+))?(?:\^(-?\d+))?$", re.ASCII)


def parse_word(aut: Automaton, text: str) -> GroupWord:
    """Parse the word grammar, numbers in ASCII digits: `m[i]:(v1,...,vd)`
    names the state with offset v in component i, `t[j]` the axis-j
    translation (component 0 unless a `@i` suffix picks another), either with
    an optional `^k` power; factors separated by whitespace or `*`.  Empty
    text is the identity.  The powers are concatenated and the whole word
    freely reduced once; past MAX_WORD_CODES codes it is refused unbuilt."""
    codes, state_id = [], aut.state_id
    for tok in text.replace("*", " ").split():
        m = _STATE_TOKEN.match(tok) or _TRANS_TOKEN.match(tok)
        if not m:
            raise WordError(f"cannot parse word token {echo(tok)}")
        # m[i]:(rest) is component i at offset rest; t[i]@rest[0] is axis i of component rest[0]
        i, rest, k = m.groups()
        try:  # int() fails only on a digit group past the interpreter's conversion limit
            i, rest, k = int(i), tuple(map(int, (rest or "0").split(","))), int(k or 1)
        except ValueError:
            raise WordError(f"word token {echo(tok)} has a number too long to convert") from None
        try:
            base = translation_word(aut, rest[0], i).codes if m.re is _TRANS_TOKEN else (state_id(i, rest),)
        except KeyError:  # from state_id: _state raises the WordError naming what is missing
            base = (_state(aut, i, rest, tok),)
        if len(codes) + len(base) * abs(k) > MAX_WORD_CODES:
            raise WordError(f"word token {echo(tok)} expands the word past {MAX_WORD_CODES} codes")
        codes += base * k if k >= 0 else tuple([~c for c in reversed(base)]) * -k
    return _word(aut, _cancel(tuple(codes)))
