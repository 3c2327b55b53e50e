"""Exact H/V polytope engine for centrally symmetric cells.

Vertex enumeration is an incremental double-description pass over the
inequality list (lexicographic insertion order), entirely in rational
arithmetic.  On top of it sit face extraction, belts, the tiling
(parallelotope) verifier, the facet graph used for irreducibility, and
shadow-boundary classification.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg, lattice
from .lattice import QuadForm, eval_form
from .linalg import Mat, Vec

DEFAULT_VREP_CAP = 5


class PolytopeError(Exception):
    pass


class UnboundedCellError(PolytopeError):
    pass


class EmptyPolytopeError(PolytopeError):
    pass


class VRepCapError(PolytopeError):
    pass


class NotFacetNormalError(PolytopeError):
    pass


class NotParallelotopeError(PolytopeError):
    pass


@dataclass(frozen=True, order=True)
class Inequality:
    normal: Vec
    support: Fraction


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <normal, x> <= support.

    The constructor canonicalises: positively parallel normals are merged
    (keeping the tighter bound), inequalities are sorted lexicographically,
    and the normals must span R^d so that a symmetric system is bounded.
    """

    dim: int
    ineqs: tuple[Inequality, ...]

    @property
    def normals(self) -> tuple[Vec, ...]:
        return tuple(iq.normal for iq in self.ineqs)


def hpolytope(dim: int, pairs: Iterable[tuple[Sequence, object]]) -> HPolytope:
    by_dir: dict[tuple[int, ...], tuple[Fraction, Vec, Fraction]] = {}
    for normal, support in pairs:
        n = linalg.vec(normal)
        s = Fraction(support)
        if len(n) != dim:
            raise linalg.DimensionMismatchError("normal length != dim")
        prim, scale = linalg.primitive_direction(n)
        bound = s / scale
        old = by_dir.get(prim)
        if old is None or bound < old[0] or (bound == old[0] and (n, s) < old[1:]):
            by_dir[prim] = (bound, n, s)
    ineqs = sorted(Inequality(n, s) for _, n, s in by_dir.values())
    if linalg.rank(tuple(iq.normal for iq in ineqs)) < dim:
        raise UnboundedCellError("normals do not span R^d; cell is unbounded")
    return HPolytope(dim=dim, ineqs=tuple(ineqs))


def build_cell(a: QuadForm, normals: Iterable[Sequence]) -> HPolytope:
    """The cell {x : <p, x> <= a(p)} over the given symmetric normal set."""
    ns = [tuple(p) for p in normals]
    nset = set(ns)
    for p in ns:
        if tuple(-x for x in p) not in nset:
            raise ValueError(f"normal set not symmetric: missing -{p}")
    return hpolytope(a.dim, [(p, eval_form(a, p)) for p in ns])


@dataclass(frozen=True)
class VPolytope:
    """Exact vertex representation with facet incidences.

    vertices are deduplicated and lexicographically sorted, so polytope
    equality is plain list comparison.  tights[v] is the set of inequalities
    vertex v satisfies with equality; facet_ids are the inequalities whose
    tight vertex set is (d-1)-dimensional.
    """

    hpoly: HPolytope
    vertices: tuple[Vec, ...]
    tights: tuple[frozenset[int], ...]
    facet_ids: tuple[int, ...]
    affine_rank: int

    @property
    def dim(self) -> int:
        return self.hpoly.dim

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[i] lists the vertex ids lying on inequality i with equality."""
        return _incidence(self.tights, len(self.hpoly.ineqs))

    @functools.cached_property
    def _ridges(self) -> tuple[Face, ...]:
        """The (d-2)-faces, via the diamond property: each lies on 2 facets."""
        found: dict[tuple[int, ...], Face | None] = {}
        members = {i: frozenset(self.incidence[i]) for i in self.facet_ids}
        for i, j in itertools.combinations(self.facet_ids, 2):
            ids = tuple(sorted(members[i] & members[j]))
            if ids and ids not in found:
                face = _face_from_vertices(self, ids)
                found[ids] = face if face.dim == self.dim - 2 else None
        return tuple(found[k] for k in sorted(found) if found[k] is not None)

    @functools.cached_property
    def _belts(self) -> tuple[Belt, ...]:
        """The ridges grouped into belts; read through `belts`."""
        faces = self._ridges
        groups: dict[Mat, list[int]] = {}
        for idx, f in enumerate(faces):
            groups.setdefault(f.direction_space, []).append(idx)
        out = []
        for key in sorted(groups):
            face_ids = tuple(groups[key])
            facet_set: set[int] = set()
            for fi in face_ids:
                facet_set.update(faces[fi].facets)
            plane = linalg.null_space(key, self.dim)
            if len(plane) != 2:
                raise PolytopeError("belt direction space must have codimension 2")
            projected = []
            for i in sorted(facet_set):
                n = self.hpoly.ineqs[i].normal
                projected.append((i, linalg.coords_in_basis(plane, n)))
            ordered = _angular_order(projected)
            pivot = ordered.index(min(ordered))
            cyc = tuple(ordered[pivot:] + ordered[:pivot])
            out.append(Belt(direction_space=key, facet_ids=cyc, face_ids=face_ids))
        return tuple(out)


def _incidence(tights: Sequence[frozenset[int]], n_ineqs: int) -> tuple[tuple[int, ...], ...]:
    """Transpose per-vertex tight sets into per-inequality vertex id lists."""
    rows: list[list[int]] = [[] for _ in range(n_ineqs)]
    for vid, ts in enumerate(tights):
        for i in ts:
            rows[i].append(vid)
    return tuple(tuple(r) for r in rows)


def _direction_space(points: Sequence[Vec]) -> Mat:
    """RREF basis rows of aff(points) - aff(points); empty for at most one point."""
    return linalg.rref(tuple(linalg.vsub(p, points[0]) for p in points[1:]))


def _tight_set(h: HPolytope, ids: Iterable[int], x: Vec) -> set[int]:
    """The inequalities among ids that x satisfies with equality."""
    return {i for i in ids if linalg.dot(h.ineqs[i].normal, x) == h.ineqs[i].support}


def _initial_box(h: HPolytope) -> tuple[list[Vec], list[set[int]], list[int]]:
    """Vertices of a bounding parallelepiped from d independent +/- pairs."""
    d = h.dim
    paired: dict[tuple[int, ...], dict[int, int]] = {}
    for idx, iq in enumerate(h.ineqs):
        prim, _ = linalg.primitive_direction(iq.normal)
        neg = tuple(-x for x in prim)
        if neg < prim:
            paired.setdefault(neg, {})[-1] = idx
        else:
            paired.setdefault(prim, {})[+1] = idx
    chosen: list[tuple[int, int]] = []
    rows: list[Vec] = []
    for key in sorted(paired):
        signs = paired[key]
        if +1 not in signs or -1 not in signs:
            continue
        cand = rows + [linalg.vec(key)]
        if linalg.rank(tuple(cand)) > len(rows):
            rows.append(linalg.vec(key))
            chosen.append((signs[+1], signs[-1]))
        if len(chosen) == d:
            break
    if len(chosen) < d:
        raise UnboundedCellError("no d independent +/- normal pairs for the seed box")
    init_ids = sorted({i for pair in chosen for i in pair})
    verts: dict[Vec, set[int]] = {}
    for sigma in itertools.product((0, 1), repeat=d):
        sel = [chosen[i][sigma[i]] for i in range(d)]
        m = tuple(h.ineqs[i].normal for i in sel)
        rhs = tuple(h.ineqs[i].support for i in sel)
        x = linalg.solve_linear(m, rhs)
        verts.setdefault(x, set()).update(_tight_set(h, init_ids, x))
    pts = sorted(verts)
    return pts, [verts[p] for p in pts], init_ids


def enumerate_vertices(h: HPolytope, cap: int = DEFAULT_VREP_CAP) -> VPolytope:
    """Exact vertex enumeration by incremental half-space insertion.

    Works for degenerate (lower-dimensional) cells as long as every used
    direction occurs with both orientations, which holds for all the
    centrally symmetric systems this package builds.
    """
    d = h.dim
    if d > cap:
        raise VRepCapError(f"V-representation capped at d <= {cap}, got {d}")
    verts, tights, processed = _initial_box(h)
    processed_set = set(processed)
    for k, iq in enumerate(h.ineqs):
        if k in processed_set:
            continue
        n, s = iq.normal, iq.support
        vals = [linalg.dot(n, v) for v in verts]
        plus = [i for i, val in enumerate(vals) if val < s]
        zero = [i for i, val in enumerate(vals) if val == s]
        minus = [i for i, val in enumerate(vals) if val > s]
        processed_set.add(k)
        if not minus:
            for i in zero:
                tights[i].add(k)
            continue
        if not plus and not zero:
            raise EmptyPolytopeError("inequalities are infeasible")
        new_pts: dict[Vec, set[int]] = {}
        for iu in plus:
            tu = tights[iu]
            for iw in minus:
                common = tu & tights[iw]
                if len(common) < d - 1:
                    continue
                # combinatorial adjacency: no third vertex dominates the pair
                if any(
                    j != iu and j != iw and common <= tights[j]
                    for j in range(len(verts))
                ):
                    continue
                t = (s - vals[iu]) / (vals[iw] - vals[iu])
                x = linalg.vadd(verts[iu], linalg.vscale(t, linalg.vsub(verts[iw], verts[iu])))
                new_pts.setdefault(x, set()).update(_tight_set(h, processed_set, x))
        keep = [i for i in range(len(verts)) if i not in set(minus)]
        for i in zero:
            tights[i].add(k)
        verts = [verts[i] for i in keep] + sorted(new_pts)
        tights = [tights[i] for i in keep] + [new_pts[p] for p in sorted(new_pts)]
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    vertices = tuple(verts[i] for i in order)
    tight_sets = tuple(frozenset(tights[i]) for i in order)
    facet_ids = tuple(
        i
        for i, inc in enumerate(_incidence(tight_sets, len(h.ineqs)))
        if inc and len(_direction_space([vertices[j] for j in inc])) == d - 1
    )
    return VPolytope(
        hpoly=h,
        vertices=vertices,
        tights=tight_sets,
        facet_ids=facet_ids,
        affine_rank=len(_direction_space(vertices)),
    )


def prune_to_facets(v: VPolytope) -> VPolytope:
    """Drop redundant inequalities, keeping only facet-supporting ones.

    The facets keep their sorted order, so the H-polytope stays canonical;
    each vertex keeps its tight set, restricted to the facets and renumbered.
    """
    renumber = {old: new for new, old in enumerate(v.facet_ids)}
    h2 = HPolytope(dim=v.dim, ineqs=tuple(v.hpoly.ineqs[i] for i in v.facet_ids))
    return VPolytope(
        hpoly=h2,
        vertices=v.vertices,
        tights=tuple(frozenset(renumber[i] for i in ts if i in renumber) for ts in v.tights),
        facet_ids=tuple(range(len(h2.ineqs))),
        affine_rank=v.affine_rank,
    )


def support_value(v: VPolytope, q: Sequence) -> Fraction:
    if not v.vertices:
        raise EmptyPolytopeError("support of an empty polytope")
    qv = linalg.vec(q)
    return max(linalg.dot(qv, x) for x in v.vertices)


@dataclass(frozen=True)
class Face:
    """A proper face, carried as the facets containing it and its vertices."""

    facets: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    dim: int
    direction_space: Mat  # RREF basis rows of (aff F - aff F)


def _face_from_vertices(v: VPolytope, vertex_ids: Sequence[int]) -> Face:
    ids = tuple(sorted(vertex_ids))
    pts = [v.vertices[i] for i in ids]
    tight = frozenset.intersection(*[v.tights[i] for i in ids])
    dirs = _direction_space(pts)
    facets = tuple(i for i in v.facet_ids if i in tight)
    return Face(facets=facets, vertex_ids=ids, dim=len(dirs), direction_space=dirs)


def facet_face(v: VPolytope, facet_id: int) -> Face:
    return _face_from_vertices(v, v.incidence[facet_id])


def contact_face(h: HPolytope, v: VPolytope, p: Sequence, supp) -> Face | None:
    """The face where the hyperplane <p, x> = supp supports the cell.

    Returns None when the hyperplane misses the cell or cuts through it,
    i.e. when supp is not the exact support value in direction p.
    """
    pv = linalg.vec(p)
    s = Fraction(supp)
    if support_value(v, pv) != s:
        return None
    ids = [i for i, x in enumerate(v.vertices) if linalg.dot(pv, x) == s]
    return _face_from_vertices(v, ids)


def codim2_faces(v: VPolytope) -> tuple[Face, ...]:
    """All (d-2)-faces, sorted by vertex ids; computed once per cell and kept on it."""
    return v._ridges


@dataclass(frozen=True)
class Belt:
    direction_space: Mat
    facet_ids: tuple[int, ...]  # cyclically ordered
    face_ids: tuple[int, ...]   # indices into codim2_faces(v)

    @property
    def length(self) -> int:
        return len(self.facet_ids)


def _angular_order(vectors: list[tuple[int, Vec]]) -> list[int]:
    """Sort ids by the exact counterclockwise angle of 2D vectors."""

    def half(u: Vec) -> int:
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(a: tuple[int, Vec], b: tuple[int, Vec]) -> int:
        ha, hb = half(a[1]), half(b[1])
        if ha != hb:
            return ha - hb
        cr = a[1][0] * b[1][1] - a[1][1] * b[1][0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return [i for i, _ in sorted(vectors, key=functools.cmp_to_key(cmp))]


def belts(v: VPolytope) -> tuple[Belt, ...]:
    """Codim-2 faces grouped by exact direction space; facets ordered cyclically.

    Computed once per cell and kept on it, like its codim-2 faces.
    """
    # each call still reads the ridges through codim2_faces, whose spans bench/tracer.py counts
    codim2_faces(v)
    return v._belts


@dataclass(frozen=True)
class ParallelotopeVerdict:
    ok: bool
    failure: str | None = None          # "central-symmetry" | "belt" | "facet-symmetry"
    belt_index: int | None = None
    belt_length: int | None = None
    facet_id: int | None = None


def is_parallelotope(v: VPolytope) -> ParallelotopeVerdict:
    """Venkov-McMullen test: central symmetry, 4/6-belts, symmetric facets."""
    vset = set(v.vertices)
    if any(linalg.vneg(x) not in vset for x in v.vertices):
        return ParallelotopeVerdict(ok=False, failure="central-symmetry")
    for bi, belt in enumerate(belts(v)):
        if belt.length not in (4, 6):
            return ParallelotopeVerdict(
                ok=False, failure="belt", belt_index=bi, belt_length=belt.length
            )
    for i in v.facet_ids:
        pts = [v.vertices[j] for j in v.incidence[i]]
        center2 = linalg.vscale(
            Fraction(2, len(pts)), functools.reduce(linalg.vadd, pts)
        )
        pset = set(pts)
        if any(linalg.vsub(center2, p) not in pset for p in pts):
            return ParallelotopeVerdict(ok=False, failure="facet-symmetry", facet_id=i)
    return ParallelotopeVerdict(ok=True)


@dataclass(frozen=True)
class FacetGraph:
    """Facet +/- pairs joined when they share a codim-2 face on a 6-belt."""

    pairs: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    connected: bool


def irreducibility_graph(v: VPolytope) -> FacetGraph:
    verdict = is_parallelotope(v)
    if not verdict.ok:
        raise NotParallelotopeError(f"input is not a parallelotope: {verdict}")
    by_vertices = {frozenset(v.vertices[j] for j in v.incidence[i]): i for i in v.facet_ids}
    pair_of: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i in v.facet_ids:
        if i in pair_of:
            continue
        partner = by_vertices[frozenset(linalg.vneg(v.vertices[j]) for j in v.incidence[i])]
        pair_of[i] = pair_of[partner] = len(pairs)
        pairs.append((min(i, partner), max(i, partner)))
    faces = codim2_faces(v)
    edges: set[tuple[int, int]] = set()
    for belt in belts(v):
        if belt.length != 6:
            continue
        for fi in belt.face_ids:
            a, b = faces[fi].facets
            pa, pb = pair_of[a], pair_of[b]
            if pa != pb:
                edges.add((min(pa, pb), max(pa, pb)))
    adj: dict[int, set[int]] = {i: set() for i in range(len(pairs))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0} if pairs else set()
    stack = [0] if pairs else []
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return FacetGraph(
        pairs=tuple(pairs),
        edges=tuple(sorted(edges)),
        connected=len(seen) == len(pairs),
    )


@dataclass(frozen=True)
class ShadowFace:
    face: Face
    parallel: bool  # parallel to e (else transversal)


def shadow_boundary(v: VPolytope, e: Sequence) -> tuple[ShadowFace, ...]:
    """Facets and codim-2 faces met by lines in direction e only in themselves.

    These are the facets and codim-2 faces that classify_face finds parallel
    or transversal to e rather than shifted along it.  A facet of a
    full-dimensional cell lies on no other facet, so it is never transversal.
    """
    ev = linalg.vec(e)
    if linalg.is_zero_vec(ev):
        raise ValueError("direction e must be nonzero")
    out = []
    for f in [facet_face(v, i) for i in v.facet_ids] + list(codim2_faces(v)):
        kind = classify_face(v, f, ev)
        if kind != SHIFT:
            out.append(ShadowFace(face=f, parallel=kind == PARALLEL_EXTENSION))
    return tuple(out)


PARALLEL_EXTENSION = "parallel-extension"
SHIFT = "shift"
DIRECT_SUM = "direct-sum"


def classify_face(v: VPolytope, face: Face, e: Sequence) -> str:
    """How the face behaves under Minkowski sum with a segment along e.

    The products <p, e> over the normals p of the facets containing the
    face decide: all zero is a parallel extension, both strict signs a
    direct sum (the face is transversal to e), anything else a shift.
    """
    ev = linalg.vec(e)
    prods = [linalg.dot(v.hpoly.ineqs[i].normal, ev) for i in face.facets]
    if all(p == 0 for p in prods):
        return PARALLEL_EXTENSION
    if any(p > 0 for p in prods) and any(p < 0 for p in prods):
        return DIRECT_SUM
    return SHIFT


def voronoi_cell(a: QuadForm, cap: int = DEFAULT_VREP_CAP) -> VPolytope:
    """The Voronoi cell of the form, with exact vertices and incidences."""
    normals = lattice.coset_minima(a).facet_normals()
    return enumerate_vertices(build_cell(a, normals), cap=cap)


def adjacency_check(a: QuadForm, v: VPolytope, p: Sequence) -> bool:
    """True iff the cell and its translate by 2Ap share exactly the facet F(p).

    The translate lies beyond the hyperplane <p, x> = a(p), so sharing the
    facet is equivalent to F(p) being centrally symmetric about Ap; the
    check compares vertex sets exactly.
    """
    pv = linalg.vec(p)
    fid = next(
        (i for i in v.facet_ids if v.hpoly.ineqs[i].normal == pv), None
    )
    if fid is None:
        raise NotFacetNormalError(f"{tuple(p)} is not a facet normal of the cell")
    shift = linalg.vscale(2, linalg.mat_vec(a.gram, pv))
    pts = {tuple(v.vertices[j]) for j in v.incidence[fid]}
    mirrored = {tuple(linalg.vsub(shift, x)) for x in pts}
    return pts == mirrored
