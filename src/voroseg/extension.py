"""Segment directions, dual sets, and Minkowski sums of cells with segments.

A direction e is "free" for a cell when its products with every facet
normal lie in {0, +1, -1}; the set of all such integer vectors is the dual
set of the facet normals.  For free directions the sum of the cell with
the segment b*[-e, e] equals the Voronoi cell of the rank-1-perturbed form
(Gram A + b e e^T); for all other directions of an irreducible cell the
sum is not a parallelotope.  Both constructions and the equivalence check
live here.  An integral e is kept as ints (`Direction`), so with the
integer facet normals every product <p, e> is an int; `sum_with_segment`
forms one per inequality and reads from that list the shifted supports,
the transversal ridges and the weights of the new normals, which stay
integer.  A rational e, possible only through the library, runs the same
code in Fractions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg, lattice, polytope
from .lattice import IntVec, QuadForm, coset_minima, eval_form
from .linalg import Vec
from .polytope import (
    HPolytope,
    ParallelotopeVerdict,
    VPolytope,
    build_cell,
    enumerate_vertices,
    is_parallelotope,
    prune_to_facets,
    voronoi_cell,
)


class ExtensionError(Exception):
    pass


class CannotNormalizeError(ExtensionError):
    """The direction has two distinct nonzero |products| with facet normals."""

    def __init__(
        self, witnesses: tuple[tuple[IntVec, int | Fraction], tuple[IntVec, int | Fraction]]
    ):
        self.witnesses = witnesses
        (p1, w1), (p2, w2) = witnesses
        super().__init__(
            f"no scaling works: |<{p1}, e>| = {w1} but |<{p2}, e>| = {w2}"
        )


class NotInDualSetError(ExtensionError):
    pass


@dataclass(frozen=True)
class Direction:
    """A segment direction e with weight b > 0 (segment = b * [-e, e]).

    An integral e is kept as ints, so its products with the integer facet
    normals are ints; any other e is kept as Fractions.
    """

    e: IntVec | Vec
    b: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "e", linalg.exact_vec(self.e))
        object.__setattr__(self, "b", Fraction(self.b))
        if linalg.is_zero_vec(self.e):
            raise ValueError("direction vector must be nonzero")
        if self.b <= 0:
            raise ValueError("segment weight b must be positive")


def perturbed_form(a: QuadForm, dir: Direction) -> QuadForm:
    g = tuple(
        tuple(a.gram[i][j] + dir.b * dir.e[i] * dir.e[j] for j in range(a.dim))
        for i in range(a.dim)
    )
    return lattice.make_form(g)


def _free(p: Sequence, e: Sequence) -> bool:
    """True iff <p, e> lies in {0, +1, -1}."""
    return linalg.inner(p, e) in (0, 1, -1)


def _integer_normals(normals: Iterable[Sequence]) -> list[IntVec]:
    """The normals as sorted int tuples; a normal with a non-integral entry raises ValueError."""
    out = []
    for p in normals:
        if not all(type(x) is int for x in p):
            p = linalg.exact_vec(p)
            if any(isinstance(x, Fraction) for x in p):
                raise ValueError(f"facet normal ({', '.join(map(str, p))}) is not integral")
        out.append(tuple(p))
    return sorted(out)


@dataclass(frozen=True)
class DualSet:
    members: tuple[IntVec, ...]       # closed under negation, sorted
    basis_used: tuple[IntVec, ...]    # the d independent normals enumerated over

    def __contains__(self, e) -> bool:
        # tuple equality is exact: (3/2, 1) and (1.9, 0) match no int member
        return tuple(e) in self.members


def dual_set(normals: Sequence[Sequence]) -> DualSet:
    """All integer e with <e, p> in {0, +1, -1} for every normal p.

    e is determined by its products sigma with d linearly independent
    normals B, as e = adj(B) sigma / det(B), with sigma_k in {0, +1, -1}.
    adj(B) and det(B) are computed once, in integers, and so is the row
    r_p = p^T adj(B) of every normal, which gives <p, e> det = <r_p, sigma>.
    A depth-first search fixes sigma_0, sigma_1, ... in turn and keeps the
    numerator adj(B) sigma as it goes.  Each row is filed under its last
    nonzero index k, because sigma_0..sigma_k decide its product, and a
    prefix is cut when one of the rows filed at its depth has a product
    outside {0, +det, -det}: no completion of it can be a member.  At a
    leaf, e is kept when sigma is nonzero and the numerator divisible by
    det; every normal has been checked on the way, so nothing is missed.
    """
    ns = _integer_normals(normals)
    if not ns:
        raise ValueError("dual set of no facet normals")
    basis = [ns[i] for i in linalg.independent_rows(ns)]
    d = len(ns[0])
    if len(basis) < d:
        raise ValueError("facet normals do not span R^d")
    adj, det = linalg.adjugate(basis)
    cols = tuple(zip(*adj))  # sigma_k adds sigma_k times column k to the numerator
    rows_at: list[set[IntVec]] = [set() for _ in range(d)]
    for p in ns:
        r = tuple(linalg.inner(p, c) for c in cols)
        k = max((j for j, x in enumerate(r) if x), default=0)  # a zero row is always free
        row = r[: k + 1]
        # -p has the row -row, whose product passes or fails with row's
        rows_at[k].add(max(row, tuple(-x for x in row)))
    ok = (0, det, -det)
    members: list[IntVec] = []

    def search(sigma: tuple[int, ...], num: tuple[int, ...]) -> None:
        k = len(sigma)
        if k == d:
            if any(sigma) and not any(x % det for x in num):
                members.append(tuple(x // det for x in num))
            return
        for s in (0, 1, -1):
            prefix = sigma + (s,)
            if all(linalg.inner(r, prefix) in ok for r in rows_at[k]):
                search(prefix, num if s == 0 else tuple(x + s * c for x, c in zip(num, cols[k])))

    search((), (0,) * d)
    return DualSet(members=tuple(sorted(members)), basis_used=tuple(basis))


def in_dual_set(normals: Sequence[Sequence], e: Sequence) -> tuple[bool, tuple[IntVec, ...]]:
    """Membership test with the violating normals as witness."""
    ev = linalg.exact_vec(e)
    bad = tuple(p for p in _integer_normals(normals) if not _free(p, ev))
    return (not bad, bad)


def normalize_direction(e_raw: Sequence, normals: Sequence[Sequence]) -> IntVec:
    """Rescale e so its products with all facet normals land in {0, +1, -1}.

    Possible exactly when the nonzero |products| share a single value w;
    the result is e/w, which then belongs to the dual set.  Otherwise
    raises CannotNormalizeError carrying two witnesses with distinct
    nonzero |products|.
    """
    ev = linalg.exact_vec(e_raw)
    if linalg.is_zero_vec(ev):
        raise ValueError("direction vector must be nonzero")
    ns = _integer_normals(normals)
    by_value: dict[int | Fraction, IntVec] = {}
    for p in ns:
        t = abs(linalg.inner(p, ev))
        if t != 0 and t not in by_value:
            by_value[t] = p
    if len(by_value) > 1:
        (w1, p1), (w2, p2) = sorted(by_value.items())[:2]
        raise CannotNormalizeError(witnesses=((p1, w1), (p2, w2)))
    if not by_value:
        raise ExtensionError("e is orthogonal to every normal; the normals do not span R^d")
    w = next(iter(by_value))
    ei = linalg.exact_vec(linalg.vscale(Fraction(1, w), ev))
    if any(isinstance(x, Fraction) for x in ei):
        raise ExtensionError(f"e/{w} is not integral; the normals do not generate Z^d")
    return ei


def sum_with_segment(cell: VPolytope, dir: Direction) -> VPolytope:
    """Minkowski sum of the cell with the segment b*[-e, e], facet by facet.

    Every facet of the sum either keeps its normal (parallel facets keep
    their support, transversal ones move out by b|<p, e>|) or is the sum
    of a transversal shadow-boundary codim-2 face with the segment; the
    normal of the latter is the positive combination of the face's two
    facet normals that kills e.  Each normal's product with e is formed
    once and serves all three.  Redundant inequalities are pruned.
    """
    h = cell.hpoly
    prods = [linalg.inner(iq.normal, dir.e) for iq in h.ineqs]
    pairs: list[tuple[Sequence, Fraction]] = [
        (iq.normal, iq.support + dir.b * abs(t)) for iq, t in zip(h.ineqs, prods)
    ]
    for face in polytope.codim2_faces(cell):
        if polytope.classify_products([prods[k] for k in face.facets]) != polytope.DIRECT_SUM:
            continue
        # a transversal ridge lies on two facets whose products with e have opposite signs
        i, j = face.facets
        wi, wj = abs(prods[i]), abs(prods[j])
        fi, fj = h.ineqs[i], h.ineqs[j]
        q = tuple(wj * x + wi * y for x, y in zip(fi.normal, fj.normal))
        pairs.append((q, wj * fi.support + wi * fj.support))
    summed = polytope.hpolytope(cell.dim, pairs)
    return prune_to_facets(enumerate_vertices(summed))


def voronoi_of_sum_form(a: QuadForm, dir: Direction) -> HPolytope:
    """The Voronoi cell of the rank-1-perturbed form, by the full pipeline."""
    # Direction keeps an integral e as ints and any other as Fractions
    if any(isinstance(x, Fraction) for x in dir.e):
        raise ValueError("voronoi_of_sum_form needs an integer (normalized) e")
    a2 = perturbed_form(a, dir)
    return build_cell(a2, coset_minima(a2).facet_normals())


def lemma_l8_check(a: QuadForm, cell: VPolytope, e: Sequence) -> bool:
    """Transversal shadow-boundary codim-2 faces are contact faces killed by e.

    For e in the dual set, every such face must be the contact face of
    p1 + p2 (its two facet normals), have <p1 + p2, e> = 0, and sit on a
    4-belt.  Returns False as soon as one face violates any of these.
    """
    ev = linalg.exact_vec(e)
    normals = cell.hpoly.normals
    prods = [linalg.inner(n, ev) for n in normals]
    bad = tuple(p for p, t in zip(normals, prods) if t not in (0, 1, -1))
    if bad:
        raise NotInDualSetError(f"e = {tuple(e)} has products outside {{0,+1,-1}}: {bad[:3]}")
    cs = coset_minima(a)
    faces = polytope.codim2_faces(cell)
    on_4_belt = {fi for belt in polytope.belts(cell) if belt.length == 4 for fi in belt.face_ids}
    for fi, face in enumerate(faces):
        if polytope.classify_products([prods[k] for k in face.facets]) != polytope.DIRECT_SUM:
            continue
        i, j = face.facets
        p = linalg.vadd(normals[i], normals[j])
        if prods[i] + prods[j] != 0:
            return False
        cl = cs.class_of(p)
        if cl is None or p not in cl.minima:
            return False
        cf = polytope.contact_face(cell, p, eval_form(a, p))
        if cf is None or cf.vertex_ids != face.vertex_ids:
            return False
        if fi not in on_4_belt:
            return False
    return True


@dataclass(frozen=True)
class BSampleResult:
    b: Fraction
    skipped: bool = False
    sum_cell: VPolytope | None = None
    form_cell: VPolytope | None = None
    equal: bool | None = None
    discrepancy: Vec | None = None
    parallelotope: ParallelotopeVerdict | None = None


@dataclass(frozen=True)
class ExtensionReport:
    """Full verdict of the segment-extension equivalence check."""

    dim: int
    e_raw: Vec
    b_samples: tuple[Fraction, ...]
    normalized_e: IntVec | None
    in_dual_set: bool
    violating: tuple
    results: tuple[BSampleResult, ...]
    irreducible_input: bool | None
    theorem_silent: bool
    notes: tuple[str, ...]
    invariant_violations: tuple[str, ...]

    @property
    def invariants_ok(self) -> bool:
        return not self.invariant_violations


def check_theorem(a: QuadForm, e_raw: Sequence, b_samples: Sequence) -> ExtensionReport:
    """Run both sum constructions across the b samples and compare exactly.

    When the direction normalizes into the dual set, the facet-built sum
    must coincide with the Voronoi cell of the perturbed form (equal
    canonical integer vertex data, `VPolytope.scale` and `points`) and
    pass the parallelotope test; when it cannot normalize and the input
    cell is irreducible, the sum must fail the test.  On a reducible input
    with a non-normalizable direction the parallelotope verdict is reported
    but flagged theorem-silent.  When the double description of the cell,
    a sum or a perturbed form's cell raises VRepCapError, only the
    dual-set verdict is given and every b sample is skipped.
    """
    ev = linalg.vec(e_raw)
    bs = tuple(Fraction(b) for b in b_samples)
    if not bs:
        raise ValueError("check_theorem needs at least one segment weight b")
    normals = coset_minima(a).facet_normals()
    try:
        norm_e: IntVec | None = normalize_direction(ev, normals)
        violating: tuple = ()
    except CannotNormalizeError as exc:
        norm_e = None
        violating = exc.witnesses
    in_dual = norm_e is not None
    report = functools.partial(
        ExtensionReport, dim=a.dim, e_raw=ev, b_samples=bs, normalized_e=norm_e,
        in_dual_set=in_dual, violating=violating,
    )
    results: list[BSampleResult] = []
    violations: list[str] = []
    try:
        cell = voronoi_cell(a)
        irreducible = polytope.irreducibility_graph(cell).connected
        for b in bs:
            dir = Direction(e=norm_e if in_dual else ev, b=b)
            sum_cell = sum_with_segment(cell, dir)
            verdict = is_parallelotope(sum_cell)
            if not in_dual:
                if irreducible and verdict.ok:
                    violations.append(f"b={b}: sum is a parallelotope although e cannot be normalized")
                results.append(BSampleResult(b=b, sum_cell=sum_cell, parallelotope=verdict))
                continue
            form_cell = prune_to_facets(enumerate_vertices(voronoi_of_sum_form(a, dir)))
            # (scale, points) depends only on the vertex set, see VPolytope
            equal = (sum_cell.scale, sum_cell.points) == (form_cell.scale, form_cell.points)
            discrepancy: Vec | None = None
            if not equal:
                disc = sorted(set(sum_cell.vertices) ^ set(form_cell.vertices))
                discrepancy = disc[0] if disc else None
                violations.append(f"b={b}: sum != cell of perturbed form")
            if not verdict.ok:
                violations.append(f"b={b}: sum not a parallelotope despite e in dual set")
            results.append(BSampleResult(
                b=b, sum_cell=sum_cell, form_cell=form_cell, equal=equal,
                discrepancy=discrepancy, parallelotope=verdict,
            ))
    except polytope.VRepCapError as exc:
        return report(
            results=tuple(BSampleResult(b=b, skipped=True) for b in bs),
            irreducible_input=None,
            theorem_silent=False,
            notes=(f"dual-set verdict only, no vertex-level checks: {exc}",),
            invariant_violations=(),
        )
    return report(
        results=tuple(results),
        irreducible_input=irreducible,
        theorem_silent=not in_dual and not irreducible,
        notes=(),
        invariant_violations=tuple(violations),
    )
