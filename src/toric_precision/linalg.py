"""Exact linear algebra over the rationals, run in integers.

One Gauss–Jordan elimination serves every routine here.  It scales each
row to integers once and keeps every row primitive (divided by the gcd of
its entries) after each step, so no fraction is formed while eliminating,
in the spirit of Bareiss's fraction-free elimination (Math. Comp. 22,
1968).  A pivot row divided by its pivot entry is the row of the reduced
row echelon form, so the results are those of rational elimination.
Matrix sizes here are small (hundreds of rows at most).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries; a zero row stays zero."""
    g = gcd(*row) or 1
    return [x // g for x in row]


def _integer_row(row: Sequence[int | Fraction]) -> list[int]:
    """The primitive integer multiple of a rational row, signs kept."""
    scale = lcm(*[x.denominator for x in row])
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def _echelon(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced echelon rows, one per pivot, and the pivot columns.

    Row r is zero in every pivot column but ``pivots[r]``; divided by its
    entry there it is row r of the reduced row echelon form.
    """
    m = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = _primitive([p * a - f * b for a, b in zip(row, top)])
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    return len(_echelon(rows)[1])


def independent_rows(rows: Sequence[Sequence[int | Fraction]]) -> list[int]:
    """Indices of a basis of the row space: each row not in the span of those before it."""
    return _echelon(list(zip(*rows)))[1]


def in_row_span(rows: Sequence[Sequence[int | Fraction]], vector: Sequence[int | Fraction]) -> bool:
    base = rank(rows)
    return rank(list(rows) + [list(vector)]) == base


def solve(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when the system is infeasible.

    Free variables are set to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    if not rows:
        return []
    reduced, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    n_cols = len(rows[0])
    if n_cols in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for row, c in zip(reduced, pivots):
        solution[c] = Fraction(row[n_cols], row[c])
    return solution


def nullspace(rows: Sequence[Sequence[int | Fraction]], n_cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    if n_cols is None:
        if not rows:
            raise ValueError("empty matrix needs an explicit column count")
        n_cols = len(rows[0])
    reduced, pivots = _echelon(rows)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis


def primitive_integer(vector: Sequence[Fraction | int]) -> list[int]:
    """Scale a nonzero rational vector to coprime integers, first nonzero entry positive."""
    ints = _integer_row(vector)
    if not any(ints):
        raise ValueError("zero vector has no primitive representative")
    return ints if next(x for x in ints if x) > 0 else [-x for x in ints]


def integer_kernel_basis(rows: Sequence[Sequence[int]], n_cols: int | None = None) -> list[list[int]]:
    """Primitive integer scalings of a rational kernel basis."""
    return [primitive_integer(v) for v in nullspace(rows, n_cols)]
