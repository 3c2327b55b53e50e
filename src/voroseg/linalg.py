"""Exact rational linear algebra over tuple-based vectors and matrices.

Vectors are tuples of Fractions (`vec`), or of ints where every entry is
integral (`exact_vec`); matrices are tuples of row tuples, and nothing in
here ever rounds.  Every row reduction (`rank`, `integer_rref`,
`solve_linear`, `adjugate` and `null_space`) runs one integer kernel,
fraction-free Gauss-Jordan elimination: a rational row is first scaled to
integers by the lcm of its own denominators (`scale_to_integers`).
`integer_rref` and `null_space` return integer rows and form no Fraction;
the face spaces of `polytope` are built from them.  `independent_rows` is
the one incremental reduction: it picks the first integer rows that span
and stops as soon as they do, which settles `hpolytope`'s span check and
the basis choices of the double description's seed cone and `dual_set`.
`inner` is the product that keeps integer vectors in integers: the facet
normals are int tuples and an integral segment direction e is kept as one,
so the products with e are ints.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class LinAlgError(Exception):
    pass


class DimensionMismatchError(LinAlgError):
    pass


class InconsistentSystemError(LinAlgError):
    """The system has no solution."""


class UnderdeterminedSystemError(LinAlgError):
    """The system has more than one solution."""


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def exact_vec(entries: Iterable) -> tuple:
    """The entries as ints when all are integral, else as Fractions (`vec`)."""
    v = vec(entries)
    return tuple(int(x) for x in v) if all(x.denominator == 1 for x in v) else v


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatchError("ragged rows")
    return m


def identity(d: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def inner(u: Sequence, v: Sequence):
    """<u, v> in the entries' own arithmetic: integer vectors give an int."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"product of lengths {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def vscale(c, u: Sequence) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vneg(u: Sequence) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_symmetric(m: Mat) -> bool:
    return all(len(r) == len(m) for r in m) and m == transpose(m)


def scale_to_integers(v: Sequence) -> tuple[tuple[int, ...], int]:
    """(den * v, den) for the lcm den of the denominators of the rationals in v."""
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def _integer_rows(m: Sequence[Sequence]) -> list[list[int]]:
    """Each rational row times the lcm of its own denominators (an int row as is); its RREF stays the same."""
    return [list(row) if all(type(x) is int for x in row) else list(scale_to_integers(row)[0]) for row in m]


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows, in place.

    Any shape and rank.  Returns (pivots, p, sign): row r ends as the r-th
    pivot row, zero in every other pivot column, and the rows past
    len(pivots) end zero.  Every division is exact and every pivot ends
    equal to p, so the first len(pivots) rows over p are the RREF.  sign is
    the parity of the row swaps; a square input of full rank has
    determinant sign * p.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        pr = rows[r]
        pk = pr[c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(pk * x - f * y) // prev for x, y in zip(rows[i], pr)]
        prev = pk
        pivots.append(c)
    return pivots, prev, sign


def rank(m: Mat) -> int:
    return len(_bareiss(_integer_rows(m))[0])


def independent_rows(m: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the integer rows that are not in the span of the rows before them.

    One pass of incremental fraction-free elimination: each row is reduced
    against the rows kept so far, in the order they were kept, and is kept
    when a nonzero entry remains.  The pass stops once the kept rows span
    the whole space, so rows past that point are never read.
    """
    kept: list[tuple[int, list[int]]] = []  # (pivot column, primitive reduced row)
    out: list[int] = []
    width = len(m[0]) if m else 0
    for i, row in enumerate(m):
        if len(out) == width:
            break
        v = list(row)
        for c, r in kept:
            if v[c]:
                f, g = r[c], v[c]
                v = [f * x - g * y for x, y in zip(v, r)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            g = gcd(*v)
            kept.append((c, [x // g for x in v]))
            out.append(i)
    return out


def integer_rref(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The RREF of integer rows, computed and returned in integers.

    Zero rows are dropped and each row is scaled to the primitive integer
    row with a positive pivot, so, like the RREF, the result depends only on
    the row space, and its length is the rank.
    """
    rows = [list(r) for r in m]
    pivots, _, _ = _bareiss(rows)
    out = []
    for r, c in zip(rows, pivots):
        g = gcd(*r) if r[c] > 0 else -gcd(*r)
        out.append(tuple(x // g for x in r))
    return tuple(out)


def solve_linear(m: Mat, rhs: Sequence) -> Vec:
    """Solve m x = rhs exactly for square m.

    Raises InconsistentSystemError when no solution exists and
    UnderdeterminedSystemError when the solution is not unique.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("solve_linear needs a square matrix")
    if len(rhs) != n:
        raise DimensionMismatchError(f"rhs length {len(rhs)} != {n}")
    rows = _integer_rows([tuple(r) + (Fraction(t),) for r, t in zip(m, rhs)])
    pivots, p, _ = _bareiss(rows)
    if pivots and pivots[-1] == n:
        raise InconsistentSystemError("0 = nonzero row in elimination")
    if len(pivots) < n:
        raise UnderdeterminedSystemError(f"rank {len(pivots)} < {n}")
    return tuple(Fraction(r[n], p) for r in rows)


def adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """adj(m) and det(m) of a nonsingular integer matrix, in integers only.

    Eliminating [m | I] leaves p I on the left and p m^-1 on the right, where
    p = det(P m) and P is the row permutation of the pivoting.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("adjugate of non-square matrix")
    if any(x.denominator != 1 for r in m for x in r):
        raise LinAlgError("adjugate needs an integer matrix")
    rows = [[int(x) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    pivots, p, sign = _bareiss(rows)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("adjugate needs a nonsingular matrix")
    return tuple(tuple(sign * x for x in r[n:]) for r in rows), sign * p


def ldl(m: Mat) -> tuple[Mat, Vec]:
    """LDL^T factorisation of a symmetric positive-definite matrix.

    Returns (L, diag) with L unit lower triangular so that m = L diag L^T.
    """
    n = len(m)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        s = m[j][j] - sum((L[j][k] * L[j][k] * D[k] for k in range(j)), Fraction(0))
        if s <= 0:
            raise LinAlgError("matrix is not positive definite")
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            t = m[i][j] - sum((L[i][k] * L[j][k] * D[k] for k in range(j)), Fraction(0))
            L[i][j] = t / s
    return tuple(tuple(row) for row in L), tuple(D)


def null_space(m: Sequence[Sequence], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Integer basis (as rows) of the right null space of m, one row per free column of the RREF.

    The RREF is the eliminated integer rows over p, so p times the RREF's
    null vector for free column f is p at f, minus each pivot row's entry at
    f at that row's pivot, and 0 elsewhere.
    """
    rows = _integer_rows(m)
    pivots, p, _ = _bareiss(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = p
        for r, c in zip(rows, pivots):
            x[c] = -r[f]
        basis.append(tuple(x))
    return tuple(basis)


def parse_rational(s: int | str) -> Fraction:
    """An int, or a string such as "-7/3": an optional sign, ASCII digits, an optional "/" and digits.

    Anything else raises ValueError, a zero denominator too: a float or a
    bool (1e-400 would read as 0, true as 1), and a decimal or exponent
    string such as "1e5000", whose Fraction has thousands of digits.
    """
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str) or not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s.strip()):
        raise ValueError(f"{s!r} is not an integer or a string such as \"-7/3\"")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None
