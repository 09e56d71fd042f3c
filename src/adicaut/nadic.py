"""Affine maps u -> v + M*u evaluated on truncated base-n digit expansions.

A digit word x1 x2 ... xk stands for the integer vector sum_i xi * n**(i-1),
coordinatewise: the first letter is the least significant digit.  Applying an
affine map to a length-k word means computing v + M*u and keeping the low k
digits, i.e. reducing mod n**k.

This module is the ground truth the transition-table code is verified
against, so it deliberately works with big integers and modular reduction
only and never consults an automaton.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    Matrix,
    Vector,
    bounded_int,
    echo,
    format_letter,
    mat_mul,
    mat_vec,
    matrix,
    mod_div,
    parse_letter,
    vec_add,
    vector,
)


@dataclass(frozen=True)
class DigitWord:
    """A finite word over the letters {0..n-1}^d, least significant first.

    Syntax for parsing and printing: letters separated by spaces, each letter
    a comma-joined digit tuple (`2,0 1,1` for d=2); for d=1 the commas are
    dropped (`2 1`).
    """

    letters: tuple
    base: int
    dim: int

    def __post_init__(self):
        bounded_int(self.base, "base", 2)
        bounded_int(self.dim, "dimension", 1)
        letters = tuple(map(tuple, self.letters))
        for x in letters:
            if len(x) != self.dim:
                raise ValueError(f"letter {echo(x)} does not have dimension {echo(self.dim)}")
            for c in x:
                if type(c) is not int or not 0 <= c < self.base:
                    raise ValueError(f"digit {echo(c)} out of range for base {echo(self.base)}")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def prefix(self, k: int) -> "DigitWord":
        return DigitWord(self.letters[:bounded_int(k, "length", 0)], self.base, self.dim)

    def format(self) -> str:
        return " ".join(format_letter(x) for x in self.letters)

    @classmethod
    def parse(cls, text: str, base: int, dim: int) -> "DigitWord":
        "Parse the space/comma syntax; empty or whitespace text is the empty word."
        letters = tuple(parse_letter(tok) for tok in text.split())
        return cls(letters, base, dim)


@dataclass(frozen=True)
class AffineMap:
    "The map u -> offset + matrix * u."

    matrix: Matrix
    offset: Vector

    def __post_init__(self):
        m = matrix(self.matrix)
        v = vector(self.offset)
        if len(v) != len(m):
            raise ValueError(f"offset of dimension {len(v)} does not match a {len(m)}x{len(m)} matrix")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", v)

    def __call__(self, u: Vector) -> Vector:
        if len(u) != len(self.offset):
            raise ValueError(f"map of dimension {len(self.offset)} cannot act on a vector of dimension {len(u)}")
        return vec_add(self.offset, mat_vec(self.matrix, u))


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    "The map f after g: u -> f.offset + f.matrix * g(u)."
    return AffineMap(mat_mul(f.matrix, g.matrix), f(g.offset))


def encode(u: Vector, n: int, k: int) -> DigitWord:
    """Base-n digits of a nonnegative vector, least significant first, padded
    to exactly k letters.  Fails when a coordinate needs more than k digits."""
    bounded_int(n, "base", 2)
    bounded_int(k, "length", 0)
    for c in u:
        if c < 0:
            raise ValueError(f"coordinate {echo(c)} is negative; only vectors in [0, n**k)^d have digit expansions")
        if c >= n ** k:
            raise ValueError(f"coordinate {echo(c)} does not fit in {echo(k)} base-{echo(n)} digits")
    letters = []
    rest = tuple(u)
    for _ in range(k):
        r, rest = mod_div(rest, n)
        letters.append(r)
    return DigitWord(tuple(letters), n, len(u))


def decode(w: DigitWord) -> Vector:
    "The integer vector sum_i x_i * n**(i-1); the empty word decodes to 0."
    coords = [0] * w.dim
    weight = 1
    for x in w.letters:
        for i, c in enumerate(x):
            coords[i] += c * weight
        weight *= w.base
    return tuple(coords)


def affine_apply_prefix(f: AffineMap, w: DigitWord) -> DigitWord:
    """Image of a length-k digit word under f, i.e. the low k digits of
    f(decode(w)).  Computed entirely with big integers: decode, apply the
    map, reduce each coordinate mod n**k, re-encode."""
    if len(f.offset) != w.dim:
        raise ValueError(f"map of dimension {len(f.offset)} cannot act on a word of dimension {echo(w.dim)}")
    k = len(w)
    modulus = w.base ** k
    image = tuple(c % modulus for c in f(decode(w)))
    return encode(image, w.base, k)


def affine_apply_digitwise(f: AffineMap, w: DigitWord) -> DigitWord:
    """Same image as affine_apply_prefix, computed digit by digit: each step
    splits offset + matrix*x into an output letter and a carry offset for the
    rest of the word.  Kept as a second, independently coded route."""
    if len(f.offset) != w.dim:
        raise ValueError(f"map of dimension {len(f.offset)} cannot act on a word of dimension {echo(w.dim)}")
    out = []
    v = f.offset
    for x in w.letters:
        r, v = mod_div(vec_add(v, mat_vec(f.matrix, x)), w.base)
        out.append(r)
    return DigitWord(tuple(out), w.base, w.dim)
