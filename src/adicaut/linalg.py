"""Exact integer vectors and matrices, plus the digit/carry arithmetic the
automaton construction is built on.

Vectors are tuples of ints and matrices are tuples of row tuples, so every
value is immutable, hashable, and arbitrary precision.  Nothing here uses
floating point, and nothing can overflow.  `matrix_family` is the one check
of every construction's input: a nonempty family of matrices of one size.
`bounded_int` is the one check of every base, dimension, length, exponent
and node budget: an int, never a float or a bool, within its bounds.  `echo`
is the only way any module puts an outside value into an error message, cut
to 40 characters so that no file, word or flag can make a message grow.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from itertools import product

Vector = tuple
Matrix = tuple


def vector(coords) -> Vector:
    "Freeze a coordinate sequence as an integer vector."
    v = tuple(coords)
    if not v:
        raise ValueError("vectors must have dimension >= 1")
    for c in v:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"vector coordinate {echo(c)} is not an int")
    return v


def matrix(rows) -> Matrix:
    "Freeze a row sequence as a square integer matrix."
    m = tuple(vector(row) for row in rows)
    if not m:
        raise ValueError("matrices must have dimension >= 1")
    for row in m:
        if len(row) != len(m):
            raise ValueError(f"matrix is not square: {len(m)} rows, row of length {len(row)}")
    return m


def matrix_family(Ms) -> tuple:
    "Freeze a nonempty family of square integer matrices of entry 0's size; an entry's error names its index."
    mats = []
    for i, M in enumerate(Ms):
        try:
            mats.append(matrix(M))
        except (ValueError, TypeError) as e:
            raise ValueError(f"matrices[{i}]: {e}") from None
        k, d = len(mats[i]), len(mats[0])
        if k != d:
            raise ValueError(f"matrices[{i}] is {k}x{k}, expected {d}x{d}")
    if not mats:
        raise ValueError("need at least one matrix")
    return tuple(mats)


def echo(x) -> str:
    """A value as an error message shows it: an int by its digits, anything else by
    its repr, cut to the first 40 characters and `...`.  A longer int is first cut
    to its leading digits, as str() refuses one past the interpreter's conversion
    limit: 0.30102999 < log10(2), so dividing by 10**(that times the bit length,
    less 40) keeps at least 41 of them.  echo never raises: a value whose repr
    fails, such as a tuple holding an int past that limit, shows as its type."""
    if type(x) is int and not -10 ** 39 < x < 10 ** 40:
        lead = abs(x) // 10 ** max(0, (abs(x).bit_length() - 1) * 30102999 // 10 ** 8 - 40)
        text = ("-" if x < 0 else "") + str(lead)
    else:
        try:
            text = repr(x)
        except Exception:  # showing the value must not lose the message it is part of
            text = f"<{type(x).__name__}>"
    return text if len(text) <= 40 else f"{text[:40]}..."


def bounded_int(x, name: str, low: int | None = None, high: int | None = None) -> int:
    "x itself when it is an int, not a bool, in [low, high] (no end where a bound is None); else ValueError naming it."
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {echo(x)}")
    if low is not None and x < low:
        raise ValueError(f"{name} must be at least {low}, got {echo(x)}")
    if high is not None and x > high:
        raise ValueError(f"{name} must be at most {high}, got {echo(x)}")
    return x


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def mat_vec(M: Matrix, v: Vector) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, v, strict=True)) for row in M)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


def block_diag(A: Matrix, B: Matrix) -> Matrix:
    "Block-diagonal matrix with A in the upper-left and B in the lower-right."
    da, db = len(A), len(B)
    top = tuple(row + (0,) * db for row in A)
    bottom = tuple((0,) * da + row for row in B)
    return top + bottom


def mod_div(v: Vector, n: int):
    """Split v coordinatewise as v = r + n*q with every coordinate of r in
    [0, n).  Uses floored division, so remainders are never negative; the
    range constraint makes the pair (r, q) unique."""
    bounded_int(n, "base", 2)
    rs = []
    qs = []
    for c in v:
        q, r = divmod(c, n)
        rs.append(r)
        qs.append(q)
    return tuple(rs), tuple(qs)


def row_sum_norm(M: Matrix) -> int:
    "Maximum absolute row sum, max_i sum_j |m_ij|."
    return max(sum(abs(e) for e in row) for row in M)


def offset_box(M: Matrix):
    """All integer vectors with every coordinate in [-N, N-1] where N is the
    row-sum norm of M.  These vectors label the automaton states for M.

    Order is fixed: the first coordinate varies fastest (mixed radix with
    coordinate 0 least significant), so state indices are stable across runs
    and serializations.  The box holds (2N)**d vectors."""
    norm = row_sum_norm(M)
    if norm == 0:
        raise ValueError("zero matrix has an empty offset box")
    d = len(M)
    side = range(-norm, norm)
    return [t[::-1] for t in product(side, repeat=d)]


def all_letters(n: int, d: int):
    """Digit tuples in {0..n-1}^d in dense order: the letter at index i has
    digits given by the base-n expansion of i, first coordinate least
    significant."""
    bounded_int(n, "base", 2)
    bounded_int(d, "dimension", 1)
    return [t[::-1] for t in product(range(n), repeat=d)]


def det(M: Matrix) -> int:
    "Exact determinant by fraction-free (Bareiss) elimination."
    d = len(M)
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                # division is exact at every step of Bareiss elimination
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[d - 1][d - 1]


def is_unimodular(M: Matrix) -> bool:
    return det(M) in (1, -1)


def coprime_to(M: Matrix, n: int) -> bool:
    "True when det(M) is nonzero and shares no factor with n."
    D = det(M)
    return D != 0 and math.gcd(abs(D), n) == 1


def _minor(M: Matrix, i: int, j: int) -> Matrix:
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i)


def inverse_unimodular(M: Matrix) -> Matrix:
    "Integer inverse of a matrix with determinant +-1, via the adjugate."
    D = det(M)
    if D not in (1, -1):
        raise ValueError(f"matrix with determinant {echo(D)} has no integer inverse")
    d = len(M)
    if d == 1:
        return ((D,),)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            c = det(_minor(M, j, i))
            if (i + j) % 2:
                c = -c
            row.append(D * c)
        rows.append(tuple(row))
    return tuple(rows)


def format_letter(x: Vector) -> str:
    "Comma-joined digit tuple; a single digit prints bare."
    return ",".join(str(c) for c in x)


_LETTER = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_letter(text: str) -> Vector:
    "Inverse of format_letter: comma-joined ints in ASCII digits."
    if _LETTER.fullmatch(text):
        with suppress(ValueError):  # int() fails only on a digit group past the interpreter's conversion limit
            return tuple(map(int, text.split(",")))
    raise ValueError(f"cannot parse letter {echo(text)}")

