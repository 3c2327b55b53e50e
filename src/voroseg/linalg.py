"""Exact rational linear algebra over tuple-based vectors and matrices.

All arithmetic uses `fractions.Fraction`; nothing in here ever rounds.
Vectors are tuples of Fractions, matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class LinAlgError(Exception):
    pass


class DimensionMismatchError(LinAlgError):
    pass


class NonSymmetricError(LinAlgError):
    pass


class InconsistentSystemError(LinAlgError):
    """The system has no solution."""


class UnderdeterminedSystemError(LinAlgError):
    """The system has more than one solution."""


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


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


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Sequence) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vneg(u: Sequence) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_symmetric(m: Mat) -> bool:
    return all(len(r) == len(m) for r in m) and m == transpose(m)


def _eliminate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Forward elimination to row echelon form, in place; returns the rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return rows


def rref(m: Mat) -> Mat:
    """Reduced row echelon form with zero rows dropped (canonical row basis)."""
    if not m:
        return ()
    rows = _eliminate([list(r) for r in m])
    return tuple(tuple(r) for r in rows if any(x != 0 for x in r))


def rank(m: Mat) -> int:
    return len(rref(m))


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det of non-square matrix")
    rows = [list(r) for r in m]
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


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
    aug = [list(r) + [Fraction(rhs[i])] for i, r in enumerate(m)]
    aug = _eliminate(aug)
    pivots = []
    for row in aug:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        if lead == n:
            raise InconsistentSystemError("0 = nonzero row in elimination")
        pivots.append(lead)
    if len(pivots) < n:
        raise UnderdeterminedSystemError(f"rank {len(pivots)} < {n}")
    x = [Fraction(0)] * n
    for row in aug:
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is not None and lead < n:
            x[lead] = row[n]
    return tuple(x)


def invert(m: Mat) -> Mat:
    n = len(m)
    cols = [solve_linear(m, tuple(Fraction(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return transpose(mat(cols))


def is_positive_definite(m: Mat) -> bool:
    """Exact test: the LDL^T pivots, ratios of leading principal minors, are all positive."""
    if not is_symmetric(m):
        raise NonSymmetricError("positive-definiteness test needs a symmetric matrix")
    try:
        ldl(m)
    except LinAlgError:  # ldl's only failure on a symmetric matrix: a pivot <= 0
        return False
    return True


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


def null_space(m: Mat, ncols: int) -> Mat:
    """Basis (as rows) of the right null space of m, from the RREF."""
    r = rref(m)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in r]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -r[i][f]
        basis.append(tuple(x))
    return tuple(basis)


def coords_in_basis(basis: Mat, x: Sequence) -> Vec:
    """Coefficients c with sum_i c_i basis[i] = x; raises if x is outside."""
    if not basis:
        if any(Fraction(t) != 0 for t in x):
            raise InconsistentSystemError("nonzero vector in empty span")
        return ()
    r = rref(basis)
    pivots = [next(j for j, v in enumerate(row) if v != 0) for row in r]
    sq = tuple(tuple(row[p] for p in pivots) for row in basis)
    c = solve_linear(transpose(sq), tuple(Fraction(x[p]) for p in pivots))
    recon = tuple(
        sum((ci * bi for ci, bi in zip(c, col)), Fraction(0))
        for col in zip(*basis)
    )
    if recon != tuple(Fraction(t) for t in x):
        raise InconsistentSystemError("vector not in the span of the basis")
    return c


def primitive_direction(v: Sequence) -> tuple[tuple[int, ...], Fraction]:
    """Scale a nonzero rational vector to its primitive integer direction.

    Returns (p, c) with p primitive (integer entries, gcd 1, orientation kept)
    and v = c * p, c > 0.
    """
    from math import gcd

    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no direction")
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    p = tuple(x // g for x in ints)
    return p, Fraction(g, den)


def parse_rational(s: str) -> Fraction:
    return Fraction(str(s).strip())
