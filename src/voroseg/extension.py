"""Segment directions, dual sets, and Minkowski sums of cells with segments.

A direction e is "free" for a cell when its products with every facet
normal lie in {0, +1, -1}; the set of all such integer vectors is the dual
set of the facet normals.  For free directions the sum of the cell with
the segment b*[-e, e] equals the Voronoi cell of the rank-1-perturbed form
(Gram A + b e e^T); for all other directions of an irreducible cell the
sum is not a parallelotope.  Both constructions and the equivalence check
live here.
"""

from __future__ import annotations

import itertools
import operator
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

    def __init__(self, witnesses: tuple[tuple[IntVec, Fraction], tuple[IntVec, Fraction]]):
        self.witnesses = witnesses
        (p1, w1), (p2, w2) = witnesses
        super().__init__(
            f"no scaling works: |<{p1}, e>| = {w1} but |<{p2}, e>| = {w2}"
        )


class SegmentHypothesisError(ExtensionError):
    pass


class NotInDualSetError(ExtensionError):
    pass


class NormalSetMismatchError(ExtensionError):
    pass


@dataclass(frozen=True)
class Direction:
    """A segment direction e with weight b > 0 (segment = b * [-e, e])."""

    e: Vec
    b: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "e", linalg.vec(self.e))
        object.__setattr__(self, "b", Fraction(self.b))
        if linalg.is_zero_vec(self.e):
            raise ValueError("direction vector must be nonzero")
        if self.b <= 0:
            raise ValueError("segment weight b must be positive")


def f_e(p: Sequence, dir: Direction) -> Fraction:
    """Support of the weighted segment in direction p: b * |<p, e>|."""
    return dir.b * abs(linalg.dot(linalg.vec(p), dir.e))


def a_e(p: Sequence, dir: Direction) -> Fraction:
    """The rank-1 form b <p, e>^2; agrees with f_e exactly on products in {0,+1,-1}."""
    t = linalg.dot(linalg.vec(p), dir.e)
    return dir.b * t * t


def perturbed_form(a: QuadForm, dir: Direction) -> QuadForm:
    g = tuple(
        tuple(a.gram[i][j] + dir.b * dir.e[i] * dir.e[j] for j in range(a.dim))
        for i in range(a.dim)
    )
    return lattice.make_form(g)


def _free(p: Sequence, e: Sequence) -> bool:
    """True iff <p, e> lies in {0, +1, -1}."""
    if len(p) != len(e):
        raise linalg.DimensionMismatchError(f"product of lengths {len(p)} and {len(e)}")
    return sum(map(operator.mul, p, e)) in (0, 1, -1)


def p_e_set(normals: Iterable[Sequence], e: Sequence) -> tuple[IntVec, ...]:
    """The normals whose product with e lies in {0, +1, -1}."""
    ev = linalg.vec(e)
    out = []
    for p in normals:
        if _free(p, ev):
            out.append(tuple(int(x) for x in p))
    return tuple(sorted(out))


def segment_as_polytope(dir: Direction, normals: Iterable[Sequence]) -> HPolytope:
    """The segment b*[-e, e] as the cell {x : <p, x> <= f_e(p)}.

    Needs the products <p, e> to realise a zero and both signs over the
    normal set, otherwise the inequalities cut out more than the segment.
    """
    ns = [linalg.vec(p) for p in normals]
    prods = [linalg.dot(p, dir.e) for p in ns]
    if not any(t == 0 for t in prods):
        raise SegmentHypothesisError("no normal orthogonal to e")
    if not (any(t > 0 for t in prods) and any(t < 0 for t in prods)):
        raise SegmentHypothesisError("products do not attain both signs")
    d = len(dir.e)
    return polytope.hpolytope(d, [(p, dir.b * abs(t)) for p, t in zip(ns, prods)])


@dataclass(frozen=True)
class DualSet:
    members: tuple[IntVec, ...]       # closed under negation, sorted
    basis_used: tuple[IntVec, ...]    # the d independent normals enumerated over

    def __contains__(self, e) -> bool:
        return tuple(int(x) for x in e) in set(self.members)


def _integer_vec(v: Vec) -> IntVec | None:
    if all(x.denominator == 1 for x in v):
        return tuple(int(x) for x in v)
    return None


def dual_set(normals: Sequence[Sequence]) -> DualSet:
    """All integer e with <e, p> in {0, +1, -1} for every normal p.

    Complete enumeration: e is determined by its products sigma with d
    linearly independent normals B, so e = adj(B) sigma / det(B) over all
    3^d sign patterns, kept when integral and free against the full set,
    cannot miss a member.  adj(B) and det(B) are computed once, in integers.
    """
    ns = sorted(tuple(int(x) for x in p) for p in normals)
    d = len(ns[0])
    basis: list[IntVec] = []
    for p in ns:
        if linalg.rank(linalg.mat(basis + [p])) > len(basis):
            basis.append(p)
        if len(basis) == d:
            break
    if len(basis) < d:
        raise ValueError("facet normals do not span R^d")
    adj, det = linalg.adjugate(basis)
    members = []
    for sigma in itertools.product((0, 1, -1), repeat=d):
        if not any(sigma):
            continue
        num = [sum(x * s for x, s in zip(row, sigma)) for row in adj]
        if any(x % det for x in num):
            continue
        e = tuple(x // det for x in num)
        if all(_free(p, e) for p in ns):
            members.append(e)
    return DualSet(members=tuple(sorted(members)), basis_used=tuple(basis))


def in_dual_set(normals: Sequence[Sequence], e: Sequence) -> tuple[bool, tuple[IntVec, ...]]:
    """Membership test with the violating normals as witness."""
    ev = linalg.vec(e)
    bad = tuple(
        p
        for p in sorted(tuple(int(t) for t in q) for q in normals)
        if not _free(p, ev)
    )
    return (not bad, bad)


def normalize_direction(e_raw: Sequence, normals: Sequence[Sequence]) -> IntVec:
    """Rescale e so its products with all facet normals land in {0, +1, -1}.

    Possible exactly when the nonzero |products| share a single value w;
    the result is e/w, which then belongs to the dual set.  Otherwise
    raises CannotNormalizeError carrying two witnesses with distinct
    nonzero |products|.
    """
    ev = linalg.vec(e_raw)
    if linalg.is_zero_vec(ev):
        raise ValueError("direction vector must be nonzero")
    ns = sorted(tuple(int(x) for x in p) for p in normals)
    by_value: dict[Fraction, IntVec] = {}
    for p in ns:
        t = abs(linalg.dot(p, ev))
        if t != 0 and t not in by_value:
            by_value[t] = p
    if len(by_value) > 1:
        (w1, p1), (w2, p2) = sorted(by_value.items())[:2]
        raise CannotNormalizeError(witnesses=((p1, w1), (p2, w2)))
    if not by_value:
        raise ExtensionError("e is orthogonal to every normal; the normals do not span R^d")
    w = next(iter(by_value))
    scaled = linalg.vscale(1 / w, ev)
    ei = _integer_vec(scaled)
    if ei is None:
        raise ExtensionError(f"e/{w} is not integral; the normals do not generate Z^d")
    return ei


def sum_with_segment(cell: VPolytope, dir: Direction, cap: int = polytope.DEFAULT_VREP_CAP) -> VPolytope:
    """Minkowski sum of the cell with the segment b*[-e, e], facet by facet.

    Every facet of the sum either keeps its normal (parallel facets keep
    their support, transversal ones move out by b|<p, e>|) or is the sum
    of a transversal shadow-boundary codim-2 face with the segment; the
    normal of the latter is the positive combination of the face's two
    facet normals that kills e.  Redundant inequalities are pruned.
    """
    h = cell.hpoly
    pairs: list[tuple[Vec, Fraction]] = [
        (iq.normal, iq.support + f_e(iq.normal, dir)) for iq in h.ineqs
    ]
    for face in polytope.codim2_faces(cell):
        if polytope.classify_face(cell, face, dir.e) != polytope.DIRECT_SUM:
            continue
        # a transversal ridge lies on two facets whose products with e have opposite signs
        i, j = face.facets
        wi, wj = (abs(linalg.dot(h.ineqs[k].normal, dir.e)) for k in (i, j))
        q = linalg.vadd(
            linalg.vscale(wj, h.ineqs[i].normal),
            linalg.vscale(wi, h.ineqs[j].normal),
        )
        supp = wj * h.ineqs[i].support + wi * h.ineqs[j].support
        pairs.append((q, supp))
    summed = polytope.hpolytope(cell.dim, pairs)
    return prune_to_facets(enumerate_vertices(summed, cap=cap))


def voronoi_of_sum_form(a: QuadForm, dir: Direction) -> HPolytope:
    """The Voronoi cell of the rank-1-perturbed form, by the full pipeline."""
    ei = _integer_vec(dir.e)
    if ei is None:
        raise ValueError("voronoi_of_sum_form needs an integer (normalized) e")
    a2 = perturbed_form(a, dir)
    return build_cell(a2, coset_minima(a2).facet_normals())


def subset_check(
    h1: HPolytope,
    h2: HPolytope,
    cap: int = polytope.DEFAULT_VREP_CAP,
    v1: VPolytope | None = None,
    v2: VPolytope | None = None,
) -> tuple[bool, Vec | None]:
    """Check P(s1) + P(s2) inside P(s1 + s2) over a shared normal set.

    This is a theorem for support-function sums, so a False return (with
    the offending vertex sum as witness) signals an implementation bug.
    Precomputed vertex representations may be passed to avoid re-enumeration.
    """
    if h1.normals != h2.normals:
        raise NormalSetMismatchError("the two cells must share their normal set")
    total = polytope.hpolytope(
        h1.dim,
        [(iq1.normal, iq1.support + iq2.support) for iq1, iq2 in zip(h1.ineqs, h2.ineqs)],
    )
    v1 = v1 if v1 is not None and v1.hpoly == h1 else enumerate_vertices(h1, cap=cap)
    v2 = v2 if v2 is not None and v2.hpoly == h2 else enumerate_vertices(h2, cap=cap)
    for x1 in v1.vertices:
        for x2 in v2.vertices:
            s = linalg.vadd(x1, x2)
            for iq in total.ineqs:
                if linalg.dot(iq.normal, s) > iq.support:
                    return False, s
    return True, None


def lemma_l8_check(a: QuadForm, cell: VPolytope, e: Sequence) -> bool:
    """Transversal shadow-boundary codim-2 faces are contact faces killed by e.

    For e in the dual set, every such face must be the contact face of
    p1 + p2 (its two facet normals), have <p1 + p2, e> = 0, and sit on a
    4-belt.  Returns False as soon as one face violates any of these.
    """
    ok, bad = in_dual_set(cell.hpoly.normals, e)
    if not ok:
        raise NotInDualSetError(f"e = {tuple(e)} has products outside {{0,+1,-1}}: {bad[:3]}")
    ev = linalg.vec(e)
    cs = coset_minima(a)
    faces = polytope.codim2_faces(cell)
    on_4_belt = {fi for belt in polytope.belts(cell) if belt.length == 4 for fi in belt.face_ids}
    for fi, face in enumerate(faces):
        if polytope.classify_face(cell, face, ev) != polytope.DIRECT_SUM:
            continue
        i, j = face.facets
        p = tuple(
            int(x + y)
            for x, y in zip(cell.hpoly.ineqs[i].normal, cell.hpoly.ineqs[j].normal)
        )
        if linalg.dot(p, ev) != 0:
            return False
        cl = cs.class_of(p)
        if cl is None or p not in cl.minima:
            return False
        cf = polytope.contact_face(cell.hpoly, cell, p, eval_form(a, p))
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


def check_theorem(
    a: QuadForm,
    e_raw: Sequence,
    b_samples: Sequence,
    cap: int = polytope.DEFAULT_VREP_CAP,
) -> ExtensionReport:
    """Run both sum constructions across the b samples and compare exactly.

    When the direction normalizes into the dual set, the facet-built sum
    must coincide with the Voronoi cell of the perturbed form (canonical
    vertex lists) and pass the parallelotope test; when it cannot normalize
    and the input cell is irreducible, the sum must fail the test.  On a
    reducible input with a non-normalizable direction the parallelotope
    verdict is reported but flagged theorem-silent.
    """
    ev = linalg.vec(e_raw)
    bs = tuple(Fraction(b) for b in b_samples)
    normals = coset_minima(a).facet_normals()
    notes: list[str] = []
    try:
        norm_e: IntVec | None = normalize_direction(ev, normals)
        violating: tuple = ()
    except CannotNormalizeError as exc:
        norm_e = None
        violating = exc.witnesses
    in_dual = norm_e is not None

    irreducible: bool | None = None
    cell: VPolytope | None = None
    if a.dim <= cap:
        cell = voronoi_cell(a, cap=cap)
        irreducible = polytope.irreducibility_graph(cell).connected
    else:
        notes.append(
            f"dim {a.dim} above V-representation cap {cap}: "
            "dual-set verdict only, no vertex-level checks"
        )

    results: list[BSampleResult] = []
    for b in bs:
        if cell is None:
            results.append(BSampleResult(b=b, skipped=True))
            continue
        use_e = linalg.vec(norm_e) if norm_e is not None else ev
        dir = Direction(e=use_e, b=b)
        sum_cell = sum_with_segment(cell, dir, cap=cap)
        verdict = is_parallelotope(sum_cell)
        equal: bool | None = None
        discrepancy: Vec | None = None
        form_cell: VPolytope | None = None
        if norm_e is not None:
            form_cell = prune_to_facets(
                enumerate_vertices(voronoi_of_sum_form(a, dir), cap=cap)
            )
            equal = sum_cell.vertices == form_cell.vertices
            if not equal:
                sumset = set(sum_cell.vertices)
                formset = set(form_cell.vertices)
                disc = sorted(sumset ^ formset)
                discrepancy = disc[0] if disc else None
        results.append(
            BSampleResult(
                b=b,
                sum_cell=sum_cell,
                form_cell=form_cell,
                equal=equal,
                discrepancy=discrepancy,
                parallelotope=verdict,
            )
        )

    theorem_silent = (not in_dual) and (irreducible is False)
    violations: list[str] = []
    for r in results:
        if r.skipped:
            continue
        if in_dual:
            if r.equal is not True:
                violations.append(f"b={r.b}: sum != cell of perturbed form")
            if r.parallelotope is None or not r.parallelotope.ok:
                violations.append(f"b={r.b}: sum not a parallelotope despite e in dual set")
        elif irreducible:
            if r.parallelotope is not None and r.parallelotope.ok:
                violations.append(
                    f"b={r.b}: sum is a parallelotope although e cannot be normalized"
                )
    return ExtensionReport(
        dim=a.dim,
        e_raw=ev,
        b_samples=bs,
        normalized_e=norm_e,
        in_dual_set=in_dual,
        violating=violating,
        results=tuple(results),
        irreducible_input=irreducible,
        theorem_silent=theorem_silent,
        notes=tuple(notes),
        invariant_violations=tuple(violations),
    )
