"""Quadratic forms on Z^d, lattice catalog, and parity-class minimal vectors.

The lattice model is canonical: L = Z^d with the standard scalar product,
all metric data lives in the rational Gram matrix A, and the form is
a(p) = <p, A p>.  Parity classes are the cosets of L/2L; the minimal
vectors of the nonzero classes are the contact vectors, and the classes
whose minimum is attained by a single +/- pair contribute facet normals
(Voronoi's criterion).  All 2^d - 1 classes are searched by one
Fincke-Pohst tree in integers, whose nodes serve every class that shares
their fixed parity bits.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator

from . import linalg
from .linalg import Mat, Vec

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]

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


class UnknownLatticeError(LatticeError):
    pass


@dataclass(frozen=True)
class QuadForm:
    """Positive-definite rational quadratic form a(p) = <p, A p>."""

    dim: int
    gram: Mat

    def __call__(self, p) -> Fraction:
        return eval_form(self, p)

    @functools.cached_property
    def integer_gram(self) -> tuple[IntMat, int]:
        """(den A, den) for the lcm den of the Gram's denominators."""
        den = _lcm_denominator(x for row in self.gram for x in row)
        return tuple(tuple(int(x * den) for x in row) for row in self.gram), den

    @functools.cached_property
    def ldl(self) -> tuple[Mat, Vec]:
        """(L, D) with A = L D L^T, factored once per form; `make_form` tests positive definiteness here."""
        try:
            return linalg.ldl(self.gram)
        except linalg.LinAlgError:  # ldl's only failure on a symmetric matrix: a pivot <= 0
            raise NotPositiveDefiniteError("Gram matrix must be positive definite") from None


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
    a = QuadForm(dim=d, gram=m)
    a.ldl  # raises NotPositiveDefiniteError; coset_minima reads the factors
    return a


def eval_form(a: QuadForm, p) -> Fraction:
    """a(p) = <p, G p> / den over the integer Gram G = den A."""
    if len(p) != a.dim:
        raise linalg.DimensionMismatchError(f"vector length {len(p)} != dim {a.dim}")
    g, den = a.integer_gram
    return Fraction(sum(x * sum(map(operator.mul, row, p)) for x, row in zip(p, g)), den)


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


def _lcm_denominator(entries) -> int:
    return lcm(*(x.denominator for x in entries))


def _class_start_bound(g: IntMat, parity: IntVec) -> int:
    """Upper bound for the class minimum under g: greedy descent from the 0/1 rep.

    g is the integer Gram den * A and the bound is in its units.  A step
    p -> p + s e_j changes the norm by 2s (gp)_j + s^2 g_jj, so each trial
    costs O(1) with gp = g p kept up to date; p itself is not needed.
    """
    d = len(g)
    gp = [sum(row[k] for k in range(d) if parity[k]) for row in g]
    val = sum(gp[k] for k in range(d) if parity[k])
    improved = True
    while improved:
        improved = False
        for j in range(d):
            for step in (2, -2):
                delta = 2 * step * gp[j] + step * step * g[j][j]
                if delta < 0:
                    val += delta
                    gp = [x + step * y for x, y in zip(gp, g[j])]
                    improved = True
    return val


def _enumerate_minima(lm: IntMat, w: IntVec, m: int, bounds: list[int]) -> list[list[IntVec]]:
    """Minimum-norm vectors of every parity class, by one exact LDL enumeration in integers.

    With A = L D L^T, m a common denominator of L and K one of D, the scaled
    norm K m^2 <v, A v> = sum_i w_i (m v_i + S_i)^2, where w_i = K D_i,
    lm = m L and S_i = sum_{j>i} lm_ji v_j are all integers.  Coordinates are
    fixed from the last down, so a node that has fixed v_{d-1}, ..., v_i
    has fixed the low d - i bits of its class index (v_j is bit d-1-j) and
    serves every class that agrees there.  Only representatives whose
    trailing nonzero coordinate is positive are visited.  bounds[c] starts
    at a feasible norm of class c (-1 for class 0, which is skipped) and is
    shrunk in place to the class minimum; mx[l][r] is the largest bound
    among the classes whose low l bits are r, and a node's radius is the
    mx of the classes it serves.
    """
    d = len(w)
    mx = [bounds]
    for l in range(d - 1, -1, -1):
        up = mx[0]
        mx.insert(0, [max(up[r], up[r | 1 << l]) for r in range(1 << l)])
    found: list[list[IntVec]] = [[] for _ in bounds]
    coords = [0] * d
    rows = [row[:i] for i, row in enumerate(lm)]

    def shrink(c: int, norm: int) -> None:
        bounds[c] = norm
        for l in range(d - 1, -1, -1):
            r = c & ((1 << l) - 1)
            top = max(mx[l + 1][r], mx[l + 1][r | 1 << l])
            if mx[l][r] == top:
                return  # the maxima above are unchanged too
            mx[l][r] = top

    def descend(i: int, r: int, partial: int, svec: list[int], all_zero: bool) -> None:
        l = d - 1 - i
        here, up, bit = mx[l], mx[l + 1], 1 << l
        budget = here[r] - partial
        if budget < 0:
            return
        wi, s, row = w[i], svec[i], rows[i]
        # w_i (m x + s)^2 <= budget  iff  |m x + s| <= rad, as m x + s is an integer
        rad = isqrt(budget // wi)
        lo = 0 if all_zero else -((rad + s) // m)
        for x in range(lo, (rad - s) // m + 1):
            t = m * x + s
            nxt = partial + wi * t * t
            c = r | bit if x & 1 else r
            if nxt <= up[c]:
                coords[i] = x
                if i:
                    descend(i - 1, c, nxt, [a + b * x for a, b in zip(svec, row)], all_zero and not x)
                elif found[c] and nxt == bounds[c]:
                    found[c].append(tuple(coords))
                else:
                    found[c] = [tuple(coords)]
                    if nxt < bounds[c]:
                        shrink(c, nxt)
            elif t > 0 and nxt > here[r]:
                break  # costs only grow to the right, and this one is past both children's bounds

    descend(d - 1, 0, 0, [0] * d, True)
    return found


@functools.lru_cache(maxsize=MINIMA_CACHE_SIZE)
def coset_minima(a: QuadForm) -> ContactVectorSet:
    """Minimal vectors of every nonzero parity class of Z^d under the form a.

    One depth-first search serves all classes (`_enumerate_minima`): a
    node is cut only when its partial norm exceeds the current bound of
    every class it can still reach, and each bound starts at the norm of a
    feasible representative and only shrinks toward its class minimum, so
    no minimal vector is ever cut.  The search runs in integers over the
    Gram scaled by the lcm of its denominators; only the returned minimum
    norms are Fractions.  Above DEFAULT_DIM_CAP, the one dimension cap of
    every minima search, it raises DimensionCapError.
    """
    d = a.dim
    if d > DEFAULT_DIM_CAP:
        raise DimensionCapError(f"dimension {d} exceeds enumeration cap {DEFAULT_DIM_CAP}")
    g, den = a.integer_gram
    L, D = a.ldl
    m = _lcm_denominator(x for row in L for x in row)
    k = _lcm_denominator(D)
    lm = tuple(tuple(int(x * m) for x in row) for row in L)
    w = tuple(int(x * k) for x in D)
    scale = k * m * m
    parities = [tuple((bits >> (d - 1 - j)) & 1 for j in range(d)) for bits in range(2 ** d)]
    # every vector's scaled norm is an integer, so this division is exact
    bounds = [-1] + [_class_start_bound(g, par) * scale // den for par in parities[1:]]
    found_all = _enumerate_minima(lm, w, m, bounds)  # shrinks bounds to the class minima
    classes = []
    for par, norm, found in zip(parities[1:], bounds[1:], found_all[1:]):
        if not found:
            raise LatticeError(f"no vector of parity {par} within the start bound")
        minima = tuple(sorted(set(found) | {tuple(-x for x in v) for v in found}))
        classes.append(ClassMinima(par, Fraction(norm, scale), minima, relevant=len(minima) == 2))
    return ContactVectorSet(dim=d, classes=tuple(classes))


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
    if n is not None and (not isinstance(n, int) or isinstance(n, bool)):
        raise UnknownLatticeError(f"{name} needs an integer dimension n, got {n!r}")
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
        adj, det = linalg.adjugate(g)
        g = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
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
