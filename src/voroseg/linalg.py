"""Exact linear algebra over tuple-based vectors and matrices.

Vectors are tuples of ints and Fractions and matrices tuples of row
tuples, and nothing in here ever rounds.  Exact input takes int or
Fraction entries only (`exact_entries`): a float or a bool would pass for
a value it is not.  The kernels take and return integers: `ldl` gives an
integer Gram's leading minors and scaled factors, `adjugate` refuses any
entry that is not an int, and `independent_rows` picks the first integer
rows that span, stopping once they do (`hpolytope`'s span check, the
seed parallelepiped's rows of a double description, and the basis of
`dual_set`).  The H-side hands them int normals only, and its
supports stay ints over one denominator (`polytope.HPolytope`), so no
rational vector reaches `polytope`.  Only
`parse_rational`, `dot` and `solve_linear` form a Fraction.  `dot`,
`solve_linear` and `rank` have no caller in the package and stay while the
bench counts their calls; the last two scale a rational row by the lcm of
its own denominators (`scale_to_integers`, which also makes
`check_theorem`'s rational e an int vector) and, like `adjugate`, run one
kernel, fraction-free Gauss-Jordan elimination (`_bareiss`).  There is no
null-space routine: a belt's direction space is written down from two
normals' minors in `polytope`.  `inner` keeps integer vectors in integers:
with int facet normals and an int e, the products with e are ints.
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


# the entry types of exact input: Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True) is 1
_EXACT = frozenset((int, Fraction))


def exact_entries(v: Iterable, what: str, named: object = None) -> tuple:
    """v as a tuple; an entry that is no int or Fraction, a float or a bool included, raises ValueError.

    The error names `what` and `named`, by default v itself.
    """
    v = tuple(v)
    if not _EXACT.issuperset(map(type, v)):
        raise ValueError(f"{what} {v if named is None else named!r}: give int or Fraction entries")
    return v


def identity(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


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


def vneg(u: Sequence) -> Vec:
    return tuple(-a for a in u)


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
    if any(type(x) is not int for r in m for x in r):
        raise LinAlgError("adjugate needs an integer matrix: give int entries")
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    pivots, p, sign = _bareiss(rows)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("adjugate needs a nonsingular matrix")
    return tuple(tuple(sign * x for x in r[n:]) for r in rows), sign * p


def ldl(g: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The LDL^T factors of a symmetric positive-definite integer matrix g, fraction-free (Bareiss 1968).

    Returns (low, delta): delta = (1, Delta_1, ..., Delta_n) are g's leading
    minors and low[i][j] = Delta_{j+1} L_ij for j < i, with L the unit lower
    triangular factor of g = L D L^T, D_j = Delta_{j+1} / Delta_j.  So
    <v, g v> = sum_j t_j^2 / (Delta_j Delta_{j+1}), where
    t_j = Delta_{j+1} v_j + sum_{i>j} low[i][j] v_i.  The lower triangle is
    eliminated without pivoting, column j's pivot is Delta_{j+1}, and a
    pivot <= 0 raises.
    """
    a = [list(row[: i + 1]) for i, row in enumerate(g)]
    delta = [1]
    for j in range(len(a)):
        p, prev, col = a[j][j], delta[-1], [r[j] for r in a[j + 1 :]]
        if p <= 0:
            raise LinAlgError("matrix is not positive definite")
        for r in a[j + 1 :]:
            r[j + 1 :] = [(p * x - r[j] * y) // prev for x, y in zip(r[j + 1 :], col)]
        delta.append(p)
    return tuple(tuple(r[:i]) for i, r in enumerate(a)), tuple(delta)


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
