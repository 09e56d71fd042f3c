"""Exact integer vectors and matrices, plus the digit/carry arithmetic the
automaton construction is built on.

Vectors are tuples of ints and matrices are tuples of row tuples, so every
value is immutable, hashable, and arbitrary precision.  Nothing here uses
floating point, and nothing can overflow.
"""

from __future__ import annotations

import math
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
            raise TypeError(f"vector coordinate {c!r} is not an int")
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


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def unit_vector(d: int, axis: int) -> Vector:
    "Standard basis vector along `axis` (1-based)."
    if not 1 <= axis <= d:
        raise ValueError(f"axis {axis} out of range 1..{d}")
    return tuple(1 if i == axis - 1 else 0 for i in range(d))


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
    if n < 2:
        raise ValueError(f"base must be >= 2, got {n}")
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
    if n < 2:
        raise ValueError(f"base must be >= 2, got {n}")
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
        raise ValueError(f"matrix with determinant {D} has no integer inverse")
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


def parse_letter(text: str) -> Vector:
    "Inverse of format_letter."
    parts = text.split(",")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse letter {text!r}") from None

