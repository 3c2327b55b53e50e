"""Quadratic forms on Z^d, lattice catalog, and parity-class minimal vectors.

The lattice model is canonical: L = Z^d with the standard scalar product,
all metric data lives in the rational Gram matrix A, and the form is
a(p) = <p, A p>.  Parity classes are the cosets of L/2L; the minimal
vectors of the nonzero classes are the contact vectors, and the classes
whose minimum is attained by a single +/- pair contribute facet normals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

from . import linalg
from .linalg import Mat, Vec

IntVec = tuple[int, ...]

DEFAULT_DIM_CAP = 8

# Forms whose minima stay memoized: a `check` asks for 1 + len(b) forms and a
# `report` for one per lattice, so no single command should evict its own.
MINIMA_CACHE_SIZE = 256


class LatticeError(Exception):
    pass


class NotSymmetricError(LatticeError):
    pass


class NotPositiveDefiniteError(LatticeError):
    pass


class DimensionCapError(LatticeError):
    pass


class NonIntegralLayerError(LatticeError):
    pass


class NotContactVectorError(LatticeError):
    pass


class UnknownLatticeError(LatticeError):
    pass


@dataclass(frozen=True)
class QuadForm:
    """Positive-definite rational quadratic form a(p) = <p, A p>."""

    dim: int
    gram: Mat

    def __call__(self, p) -> Fraction:
        return eval_form(self, p)


def make_form(gram) -> QuadForm:
    """Validate a Gram matrix and wrap it as a form.

    Degenerate (positive semidefinite but singular) input is rejected:
    the cell machinery needs a full-dimensional bounded cell.
    """
    m = linalg.mat(gram)
    d = len(m)
    if d == 0 or any(len(r) != d for r in m):
        raise NotSymmetricError("Gram matrix must be square and nonempty")
    if not linalg.is_symmetric(m):
        raise NotSymmetricError("Gram matrix must be symmetric")
    if not linalg.is_positive_definite(m):
        raise NotPositiveDefiniteError("Gram matrix must be positive definite")
    return QuadForm(dim=d, gram=m)


def eval_form(a: QuadForm, p) -> Fraction:
    if len(p) != a.dim:
        raise linalg.DimensionMismatchError(f"vector length {len(p)} != dim {a.dim}")
    return linalg.dot(p, linalg.mat_vec(a.gram, p))


@dataclass(frozen=True)
class ClassMinima:
    """Minimal vectors of one nonzero parity class."""

    parity: IntVec
    min_norm: Fraction
    minima: tuple[IntVec, ...]  # closed under negation, sorted
    relevant: bool              # exactly one +/- pair


@dataclass(frozen=True)
class ContactVectorSet:
    dim: int
    classes: tuple[ClassMinima, ...]  # in increasing binary order of parity

    def contact_vectors(self) -> tuple[IntVec, ...]:
        out: list[IntVec] = []
        for cl in self.classes:
            out.extend(cl.minima)
        return tuple(sorted(out))

    def facet_normals(self) -> tuple[IntVec, ...]:
        out: list[IntVec] = []
        for cl in self.classes:
            if cl.relevant:
                out.extend(cl.minima)
        return tuple(sorted(out))

    def class_of(self, p: IntVec) -> ClassMinima | None:
        key = tuple(x % 2 for x in p)
        for cl in self.classes:
            if cl.parity == key:
                return cl
        return None


def _floor_sqrt_shift(t: Fraction, s: Fraction) -> int:
    """floor(sqrt(t) - s) for t >= 0, computed exactly (no floating point)."""
    n = t.numerator * t.denominator
    approx = Fraction(isqrt(n), t.denominator) - s
    x = approx.numerator // approx.denominator
    # x <= sqrt(t) - s  iff  x + s <= 0 or (x + s)^2 <= t
    while (x + 1 + s) <= 0 or (x + 1 + s) * (x + 1 + s) <= t:
        x += 1
    while (x + s) > 0 and (x + s) * (x + s) > t:
        x -= 1
    return x


def _class_start_bound(a: QuadForm, parity: IntVec) -> Fraction:
    """Upper bound for the class minimum: greedy descent from the 0/1 rep."""
    d = a.dim
    rep = list(parity)
    val = eval_form(a, rep)
    improved = True
    while improved:
        improved = False
        for j in range(d):
            for step in (2, -2):
                rep[j] += step
                v = eval_form(a, rep)
                if v < val:
                    val = v
                    improved = True
                else:
                    rep[j] -= step
    return val


def _enumerate_class_minima(
    L: Mat, D: Vec, parity: IntVec, bound: Fraction
) -> tuple[Fraction, list[IntVec]]:
    """All minimum-norm vectors of a parity class, by exact LDL enumeration.

    Uses <v, A v> = sum_i D_i (v_i + s_i)^2 with s_i = sum_{j>i} L_ji v_j.
    Coordinates are fixed from the last down; only representatives whose
    trailing nonzero coordinate is positive are visited, mirrors are added
    by the caller.  The bound shrinks as better vectors appear.
    """
    d = len(D)
    best: list[Fraction] = [bound]
    best_norm: list[Fraction | None] = [None]
    found: list[IntVec] = []
    coords = [0] * d

    def descend(i: int, partial: Fraction, svec: tuple[Fraction, ...], all_zero: bool) -> None:
        if i < 0:
            norm = partial
            if best_norm[0] is None or norm < best_norm[0]:
                best_norm[0] = norm
                best[0] = norm
                found.clear()
                found.append(tuple(coords))
            elif norm == best_norm[0]:
                found.append(tuple(coords))
            return
        budget = best[0] - partial
        if budget < 0:
            return
        t = budget / D[i]
        s = svec[i]
        hi = _floor_sqrt_shift(t, s)
        lo = -_floor_sqrt_shift(t, -s)
        if all_zero and lo < 0:
            lo = 0
        if (lo - parity[i]) % 2:
            lo += 1
        x = lo
        while x <= hi:
            w = x + s
            nxt = partial + D[i] * w * w
            if nxt <= best[0]:
                coords[i] = x
                row = L[i]
                descend(
                    i - 1,
                    nxt,
                    tuple(svec[k] + row[k] * x for k in range(i)),
                    all_zero and x == 0,
                )
                coords[i] = 0
            elif w > 0:
                break  # products only grow to the right of the window
            x += 2

    descend(d - 1, Fraction(0), (Fraction(0),) * d, True)
    if best_norm[0] is None:
        raise LatticeError(f"no vector of parity {parity} within the start bound {bound}")
    full = sorted(set(found) | {tuple(-x for x in v) for v in found})
    return best_norm[0], full


@functools.lru_cache(maxsize=MINIMA_CACHE_SIZE)
def coset_minima(a: QuadForm, cap: int = DEFAULT_DIM_CAP) -> ContactVectorSet:
    """Minimal vectors of every nonzero parity class of Z^d under the form a.

    Complete by construction: per class the enumeration radius starts at the
    norm of a feasible representative and only shrinks.
    """
    d = a.dim
    if d > cap:
        raise DimensionCapError(f"dimension {d} exceeds enumeration cap {cap}")
    L, D = linalg.ldl(a.gram)
    classes = []
    for bits in range(1, 2 ** d):
        parity = tuple((bits >> (d - 1 - k)) & 1 for k in range(d))
        bound = _class_start_bound(a, parity)
        norm, minima = _enumerate_class_minima(L, D, parity, bound)
        classes.append(
            ClassMinima(
                parity=parity,
                min_norm=norm,
                minima=tuple(minima),
                relevant=len(minima) == 2,
            )
        )
    classes.sort(key=lambda cl: cl.parity)
    return ContactVectorSet(dim=d, classes=tuple(classes))


def commensurate(a: QuadForm, p) -> Vec:
    """2Ap, the translation joining the cell center to the neighbor across F(p)."""
    pt = tuple(int(x) for x in p)
    cs = coset_minima(a)
    cl = cs.class_of(pt)
    if cl is None or pt not in cl.minima:
        raise NotContactVectorError(f"{pt} is not a contact vector of the form")
    return linalg.vscale(2, linalg.mat_vec(a.gram, linalg.vec(pt)))


def layer_index(e, v) -> int:
    """The integer z with <e, v> = z; rejects non-integral products."""
    prod = linalg.dot(linalg.vec(e), linalg.vec(v))
    if prod.denominator != 1:
        raise NonIntegralLayerError(f"<e,v> = {prod} is not an integer")
    return int(prod)


# --- lattice catalog -------------------------------------------------------

def _gram_from_edges(n: int, edges: list[tuple[int, int]]) -> Mat:
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(2)
    for i, j in edges:
        g[i - 1][j - 1] = Fraction(-1)
        g[j - 1][i - 1] = Fraction(-1)
    return tuple(tuple(row) for row in g)


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def _dn_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]


def _en_edges(n: int) -> list[tuple[int, int]]:
    chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
    return [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(2, 4)]


CATALOG_NAMES = ("Zn", "An", "An*", "Dn", "Dn*", "E6", "E6*", "E7", "E7*", "E8")

_FIXED_DIMS = {"E6": 6, "E6*": 6, "E7": 7, "E7*": 7, "E8": 8}


def catalog(name: str, n: int | None = None) -> QuadForm:
    """Standard rational Gram matrix of a named lattice.

    Root lattices use their Cartan matrices as Grams; starred names are the
    dual lattices, whose Gram (in the dual basis) is the inverse matrix.
    """
    if name not in CATALOG_NAMES:
        raise UnknownLatticeError(f"unknown lattice {name!r}; known: {CATALOG_NAMES}")
    if name in _FIXED_DIMS:
        want = _FIXED_DIMS[name]
        if n is not None and n != want:
            raise UnknownLatticeError(f"{name} has dimension {want}, got n={n}")
        n = want
    if n is None:
        raise UnknownLatticeError(f"{name} needs a dimension parameter n")
    if name == "Zn":
        if n < 1:
            raise UnknownLatticeError("Zn needs n >= 1")
        return make_form(linalg.identity(n))
    if name in ("An", "An*"):
        if n < 1:
            raise UnknownLatticeError("An needs n >= 1")
        g = _gram_from_edges(n, _chain_edges(n))
    elif name in ("Dn", "Dn*"):
        if n < 3:
            raise UnknownLatticeError("Dn needs n >= 3")
        g = _gram_from_edges(n, _dn_edges(n))
    else:
        g = _gram_from_edges(n, _en_edges(n))
    if name.endswith("*"):
        g = linalg.invert(g)
    return make_form(g)


def catalog_entries(max_dim: int = 4) -> Iterator[tuple[str, int, QuadForm]]:
    """All catalog instances with dim <= max_dim, in a fixed order."""
    for n in range(2, max_dim + 1):
        yield "Zn", n, catalog("Zn", n)
    for n in range(2, max_dim + 1):
        yield "An", n, catalog("An", n)
        yield "An*", n, catalog("An*", n)
    for n in range(3, max_dim + 1):
        yield "Dn", n, catalog("Dn", n)
        yield "Dn*", n, catalog("Dn*", n)
    for name, d in _FIXED_DIMS.items():
        if d <= max_dim:
            yield name, d, catalog(name)
