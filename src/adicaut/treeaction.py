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
is finite and the search terminates (a node budget still guards against
pathological blowup and is reported, never treated as an answer).  Its
first 256 visited words cost the sum of len*n^d letter steps; past them the
sum of ceil(len/4)*n^d block joins plus 4*n^d steps per distinct block.

`act`, the sections and the closure all read the automaton's one signed
table, `rows[c]` = (letter map, row of next codes), and have `row` build an
inverse entry they find missing.  Both walk a word one letter at a time and
freely reduce each section on a stack as they build it; the closure keeps its
words rightmost code first, the order the letters walk them in.  Past 256
words the closure walks each distinct block of 4 codes once per call instead
and pushes each block's reduced section onto the stack whole, code by code
only where it cancels into the top; free reduction is confluent, so the
sections are the same.

`translation_word` builds the axis translations `t[j]@i` that `parse_word`
reads; the relators of a presentation are built from them and decided in
`constructions`.  Both resolve a state label through one lookup, which names
a missing component or state; error messages show a token, label coordinate
or number through `echo`.
"""

from __future__ import annotations

import re
from collections import deque
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
    "The word-problem closure ran out of nodes before reaching an answer."

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
        """Image of a digit word, same length, by wreath recursion: each letter
        walks the current section right to left while the next section is freely
        reduced on a stack, so the cost is the sum of the reduced section lengths."""
        aut = self.aut
        if u.base != aut.n or u.dim != aut.d:
            raise WordError(f"word over base {aut.n} dim {aut.d} cannot act on a digit word of base {echo(u.base)} dim {echo(u.dim)}")
        rows, build, letters = aut.rows, aut.row, aut.letters
        word = self.codes[::-1]  # a section is kept rightmost code first
        image = []
        for x in map(aut.letter_index, u.letters):
            section, top = [], None
            for c in word:
                letter_map, row = rows[c] or build(c)
                c, x = row[x], letter_map[x]
                if top == ~c:
                    section.pop()
                    top = section[-1] if section else None
                else:
                    section.append(c)
                    top = c
            image.append(letters[x])
            word = section
        return DigitWord(tuple(image), u.base, u.dim)

    def root_and_sections(self):
        """The permutation this word induces on first letters, and the reduced
        word acting below each letter (dense-indexed).  Every section has at
        most as many factors as this word."""
        perm, sections = _sections(self.aut, self.codes[::-1])
        return perm, [_word(self.aut, s[::-1]) for s in sections]

    def is_identity(self, budget: int = DEFAULT_NODE_BUDGET) -> bool:
        """Decide whether this word acts trivially on every digit word, by
        exhausting the closure of the word under sections.  Raises
        BudgetExceededError when the closure exceeds `budget` visited words;
        exhaustion is an explicit outcome, never reported as False."""
        return decide_identity(self, budget)[0]


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


def decide_identity(w: GroupWord, budget: int = DEFAULT_NODE_BUDGET):
    """Decide whether `w` acts trivially, returning (answer, visited): the
    verdict and how many distinct words the closure under sections visited.
    Raises BudgetExceededError once more than `budget` words would be
    visited, and ValueError for a budget that is not an int of at least 1.
    Past 256 visited words, each distinct 4-code block is walked once per
    call; the sections, verdict and count stay those of whole-word walks."""
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
            return False, len(visited)
        for s in sections:
            if s and s not in visited:
                if len(visited) >= budget:
                    raise BudgetExceededError(len(visited))
                visited.add(s)
                queue.append(s)
    return True, len(visited)


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


def conjugacy_search_bounded(w1: GroupWord, w2: GroupWord, max_length: int,
                             budget: int = DEFAULT_NODE_BUDGET):
    """Breadth-first search for a conjugator c with c * w1 * c^-1 = w2 among
    freely reduced words of at most max_length factors over all states.

    Returns the first conjugator certified by `decide_identity`, or None
    when no candidate within the bounds checks out.  This is a bounded
    semi-decision procedure: None only means the search was inconclusive and
    never certifies that the two words are non-conjugate.  Candidates whose
    check exhausts the node budget are skipped.  Words over different
    automata raise WordError before any closure runs."""
    aut, inv_w2 = w1.aut, ~w2
    for codes in reduced_words(len(aut.labels), max_length):
        c = _word(aut, codes)  # reduced and in range by construction
        try:
            if decide_identity(c * w1 * ~c * inv_w2, budget)[0]:
                return c
        except BudgetExceededError:
            continue
    return None


def reduced_words(rank: int, max_length: int):
    """All freely reduced words of at most `max_length` factors over `rank`
    generators and their inverses, as tuples of signed codes (`i` and `~i`),
    shortest first.  Both bounds are ints of at least 0."""
    bounded_int(rank, "rank", 0)
    bounded_int(max_length, "max_length", 0)
    gens = [c for i in range(rank) for c in (i, ~i)]
    for length in range(max_length + 1):
        # one lazy generator per factor: a level is never held whole
        words = iter([()])
        for _ in range(length):
            words = (w + (g,) for w in words for g in gens if not (w and w[-1] == ~g))
        yield from words


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


_STATE_TOKEN = re.compile(r"m\[(\d+)\]:\((-?\d+(?:,-?\d+)*)\)(?:\^(-?\d+))?$")
_TRANS_TOKEN = re.compile(r"t\[(\d+)\](?:@(\d+))?(?:\^(-?\d+))?$")


def parse_word(aut: Automaton, text: str) -> GroupWord:
    """Parse the word grammar: `m[i]:(v1,...,vd)` names the state with offset
    v in component i, `t[j]` the axis-j translation (component 0 unless a
    `@i` suffix picks another), either with an optional `^k` power; factors
    separated by whitespace or `*`.  Empty text is the identity; a word whose
    powers expand past MAX_WORD_CODES codes is refused before it is built."""
    codes = []
    for tok in text.replace("*", " ").split():
        m = _STATE_TOKEN.match(tok) or _TRANS_TOKEN.match(tok)
        if not m:
            raise WordError(f"cannot parse word token {echo(tok)}")
        # m[i]:(rest) is component i at offset rest; t[i]@rest[0] is axis i of component rest[0]
        try:  # int() fails only on a digit group past the interpreter's conversion limit
            i = int(m.group(1))
            rest = tuple(int(p) for p in (m.group(2) or "0").split(","))
            k = int(m.group(3) or 1)
        except ValueError:
            raise WordError(f"word token {echo(tok)} has a number too long to convert") from None
        if m.re is _STATE_TOKEN:
            base = _word(aut, (_state(aut, i, rest, tok),))
        else:
            base = translation_word(aut, rest[0], i)
        if len(codes) + len(base.codes) * abs(k) > MAX_WORD_CODES:
            raise WordError(f"word token {echo(tok)} expands the word past {MAX_WORD_CODES} codes")
        codes += (base ** k).codes
    return _word(aut, _cancel(tuple(codes)))
