"""Exact H/V polytope engine for centrally symmetric cells.

Every H-polytope keeps integer normals: `hpolytope` scales a rational
normal and its support once by the lcm of the normal's denominators,
merges positively parallel normals by their primitive integer direction
and sorts on int tuples.

Vertex enumeration is an incremental double-description pass over the
inequality list, from a simplicial cone, in integer arithmetic:
inequalities are integer rows, vertices primitive homogeneous integer
pairs and tight sets bitmasks, and the result keeps the vertices x as the
integer points Q x over one common denominator Q (`VPolytope.points`).
Per inequality, the mask of the vertices on it persists across
insertions.  The edges of a simple vertex, tight on exactly d rows, are
read from ANDs of these masks; only between two non-simple vertices are
adjacency candidates counted through them and tested.  On top of it sit
face extraction, belts, the tiling (parallelotope) verifier, the facet
graph used for irreducibility, and shadow-boundary classification.
Facets and ridges are found by counting the facets on a face through the
tight sets the double description keeps per vertex: in a full-dimensional
cell a facet's vertices lie on no other inequality, a ridge's on exactly
its two facets and a smaller face's on three or more (Ziegler, Lectures
on Polytopes, 2.1).  Rank, an integer RREF (`linalg.integer_rref`), is
formed only for `affine_rank`; a ridge's belt is named by the plane of
its two facets' normals, and the belt's direction space is written down
from their 2x2 minors (`_belt_space`).  Ridges, belts and the tiling
verdict are computed once per cell and kept on it.  Faces are
classified against a segment direction e by the signs of the products
<p, e> of their facets' normals (`classify_products`), each formed once
per inequality.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg, lattice
from .lattice import IntMat, IntVec, QuadForm, eval_form
from .linalg import Vec

# most live vertices of a double description: over 8!, the most a Voronoi cell of d <= 7 has
VERTEX_BUDGET = 50000


class PolytopeError(Exception):
    pass


class UnboundedCellError(PolytopeError):
    pass


class EmptyPolytopeError(PolytopeError):
    pass


class VRepCapError(PolytopeError):
    pass


class NotParallelotopeError(PolytopeError):
    pass


@dataclass(frozen=True)
class Inequality:
    normal: IntVec
    support: Fraction


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <normal, x> <= support.

    The constructor canonicalises: every normal is an integer vector,
    positively parallel normals are merged (keeping the tighter bound),
    inequalities are sorted lexicographically, and the normals must span
    R^d so that a symmetric system is bounded.
    """

    dim: int
    ineqs: tuple[Inequality, ...]

    @property
    def normals(self) -> tuple[IntVec, ...]:
        return tuple(iq.normal for iq in self.ineqs)


def hpolytope(dim: int, pairs: Iterable[tuple[Sequence, object]]) -> HPolytope:
    """The H-polytope of the (normal, support) pairs, canonicalised in integers.

    A rational normal and its support are scaled once by the lcm of the
    normal's denominators, which leaves the half-space and an integer
    normal unchanged.  Inequalities are keyed by the primitive direction
    n / gcd(n); of two with one key, the bound s / gcd(n) decides.
    """
    by_dir: dict[IntVec, tuple[int, IntVec, Fraction]] = {}
    for normal, support in pairs:
        if len(normal) != dim:
            raise linalg.DimensionMismatchError("normal length != dim")
        n, m = linalg.scale_to_integers(normal)
        s = Fraction(support) * m
        g = gcd(*n)
        if not g:
            raise ValueError("zero vector has no direction")
        prim = tuple(x // g for x in n)
        old = by_dir.get(prim)
        # the tighter bound s/g wins, and of equal bounds the smaller normal
        if old is None or (s * old[0], n) < (old[2] * g, old[1]):
            by_dir[prim] = (g, n, s)
    kept = sorted(by_dir.values(), key=operator.itemgetter(1))
    ineqs = tuple(Inequality(n, s) for _, n, s in kept)
    if len(linalg.independent_rows([iq.normal for iq in ineqs])) < dim:
        raise UnboundedCellError("normals do not span R^d; cell is unbounded")
    return HPolytope(dim=dim, ineqs=ineqs)


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

    scale is Q, the lcm of all vertex denominators, and points the sorted
    integer points Q x of the vertices x; Q depends only on the vertex set,
    so equal (scale, points) means equal vertices.  tights[v] is the set of
    inequalities vertex v satisfies with equality; facet_ids are the
    inequalities whose tight vertex set is (d-1)-dimensional.
    """

    hpoly: HPolytope
    scale: int
    points: tuple[IntVec, ...]
    tights: tuple[frozenset[int], ...]
    facet_ids: tuple[int, ...]
    affine_rank: int

    @property
    def dim(self) -> int:
        return self.hpoly.dim

    @functools.cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices x = points / scale as Fractions, in the order of points."""
        q = self.scale
        return tuple(tuple(Fraction(x, q) for x in p) for p in self.points)

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[i] lists the vertex ids lying on inequality i with equality."""
        rows: list[list[int]] = [[] for _ in self.hpoly.ineqs]
        for vid, ts in enumerate(self.tights):
            for i in ts:
                rows[i].append(vid)
        return tuple(tuple(r) for r in rows)

    @functools.cached_property
    def _ridges(self) -> tuple[tuple[Face, ...], tuple[tuple[IntMat, tuple[int, int], list[int]], ...]]:
        """The (d-2)-faces sorted by vertex ids, and per belt its direction space, free columns and ridges.

        In a full-dimensional cell a ridge lies on exactly 2 facets (the diamond
        property) and a smaller face on at least 3, so a facet pair is a ridge iff
        its common vertices, at least d - 1 of them, lie on no third facet.  Every
        inequality tight on a ridge has its normal in the plane of the pair's
        normals, so the pair's primitive 2x2 minors, first one positive, name the
        ridge's belt, whose direction space is formed once, from its first ridge's pair (`_belt_space`).
        """
        d = self.dim
        if self.affine_rank < d:
            return (), ()
        normals = self.hpoly.normals
        facet_mask = sum(1 << i for i in self.facet_ids)
        on_facets = [sum(1 << i for i in t) & facet_mask for t in self.tights]
        # a facet's vertices as a mask, to count a pair's common ones, and as a set, to list them
        inc = self.incidence
        members = [(i, sum(1 << j for j in inc[i]), set(inc[i])) for i in self.facet_ids]
        found = []
        for (i, mi, si), (j, mj, sj) in itertools.combinations(members, 2):
            if (mi & mj).bit_count() >= d - 1:
                ids = sorted(si & sj)
                pair = 1 << i | 1 << j
                # with no common vertex the meet is -1, never a pair: at d = 1 the threshold is 0
                if _meet(on_facets, ids, pair) == pair:
                    found.append((tuple(ids), i, j))
        faces: list[Face] = []
        by_key: dict[IntVec, tuple[IntMat, tuple[int, int], list[int]]] = {}
        for ids, i, j in sorted(found):
            p, q = normals[i], normals[j]
            minors = [p[k] * q[m] - p[m] * q[k] for k, m in itertools.combinations(range(d), 2)]
            g = gcd(*minors) if _pivot(minors) > 0 else -gcd(*minors)
            key = tuple(x // g for x in minors)
            if key not in by_key:
                by_key[key] = (*_belt_space(p, q), [])
            space, _, face_ids = by_key[key]
            face_ids.append(len(faces))
            faces.append(Face((i, j), ids, d - 2, space))
        return tuple(faces), tuple(by_key.values())

    @functools.cached_property
    def _belts(self) -> tuple[Belt, ...]:
        """The ridges' belts, ordered by direction space; read through `belts`."""
        faces, groups = self._ridges
        normals = self.hpoly.normals
        # a primitive row is its pivot times the RREF row, so over the lcm of all
        # pivots the rows are ints that sort like the RREF rows: the belt order is kept
        den = lcm(*(_pivot(r) for space, _, _ in groups for r in space))

        def key(group):  # one pivot per row
            return [[x * k for x in r] for r, k in zip(group[0], [den // _pivot(r) for r in group[0]])]

        out = []
        for space, free, face_ids in sorted(groups, key=key):
            facet_set: set[int] = set()
            for fi in face_ids:
                facet_set.update(faces[fi].facets)
            # the null space of the RREF direction space is the identity at its two
            # free columns, so a normal's coordinates in that basis are its entries there
            projected = []
            for i in sorted(facet_set):
                n = normals[i]
                if any(sum(map(operator.mul, r, n)) for r in space):
                    raise PolytopeError(f"facet {i} is not parallel to its belt's direction space")
                # a positive multiple of the normal orders the same way
                projected.append((i, (n[free[0]], n[free[1]])))
            ordered = _angular_order(projected)
            pivot = ordered.index(min(ordered))
            cyc = tuple(ordered[pivot:] + ordered[:pivot])
            out.append(Belt(direction_space=space, facet_ids=cyc, face_ids=tuple(face_ids)))
        return tuple(out)

    @functools.cached_property
    def _verdict(self) -> ParallelotopeVerdict:
        """The tiling verdict; read through `is_parallelotope`."""
        pts = self.points
        # negation reverses lexicographic order, so the antipode of vertex i is n-1-i
        if any(x != linalg.vneg(y) for x, y in zip(pts, reversed(pts))):
            return ParallelotopeVerdict(ok=False, failure="central-symmetry")
        # through `belts`, not `_belts`: bench/tracer.py counts its calls
        for bi, belt in enumerate(belts(self)):
            if belt.length not in (4, 6):
                return ParallelotopeVerdict(ok=False, failure="belt", belt_index=bi, belt_length=belt.length)
        for i in self.facet_ids:
            ids = self.incidence[i]
            # likewise a point reflection of the facet would map its k-th vertex to its (m-1-k)-th
            if len({linalg.vadd(pts[j], pts[k]) for j, k in zip(ids, reversed(ids))}) > 1:
                return ParallelotopeVerdict(ok=False, failure="facet-symmetry", facet_id=i)
        return ParallelotopeVerdict(ok=True)


def _belt_space(p: IntVec, q: IntVec) -> tuple[IntMat, tuple[int, int]]:
    """The integer RREF (`linalg.integer_rref`) of the space orthogonal to independent p and q, and its free columns.

    With the minors m(x, y) = p_x q_y - p_y q_x, b the last column where p or
    q is nonzero and a the last column before b with m(a, b) != 0, the vector
    with m(a, b) at j, -m(j, b) at a and -m(a, j) at b is orthogonal to p and q
    (the expansion of a 3x3 determinant with a repeated row).  Between a and b
    m(j, b) = 0, and past b both minors are 0, so these rows for j != a, b,
    made primitive with a positive pivot, are the RREF rows with pivot j.
    """

    def m(x: int, y: int) -> int:
        return p[x] * q[y] - p[y] * q[x]

    b = max(j for j, (x, y) in enumerate(zip(p, q)) if x or y)
    a = next(j for j in range(b - 1, -1, -1) if m(j, b))
    mab = m(a, b)
    rows = []
    for j in range(len(p)):
        if j != a and j != b:
            r = [0] * len(p)
            r[j], r[a], r[b] = mab, -m(j, b), -m(a, j)
            g = gcd(*r) if mab > 0 else -gcd(*r)
            rows.append(tuple(x // g for x in r))
    return tuple(rows), (a, b)


def _pivot(row: Sequence[int]) -> int:
    """The first nonzero entry of a row."""
    return next(x for x in row if x)


def _meet(masks: dict[int, int] | Sequence[int], ids: Iterable[int], floor: int) -> int:
    """The AND of masks[j] over ids (-1 over none), stopped once it is floor, a mask each of them contains."""
    out = -1
    for j in ids:
        out &= masks[j]
        if out == floor:
            break
    return out


def _face_dim(normals: Sequence[Sequence[int]], eq: Iterable[int]) -> int:
    """dim F, where eq are the inequalities tight on all of F and normals their integer rows."""
    return len(normals[0]) - len(linalg.integer_rref([normals[i] for i in eq]))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, highest first."""
    out = []
    while mask:
        b = mask.bit_length() - 1
        out.append(b)
        mask ^= 1 << b
    return out


def enumerate_vertices(h: HPolytope) -> VPolytope:
    """Exact vertex enumeration by incremental half-space insertion.

    Integer double description: inequality <n, x> <= s, whose normal n is
    an integer vector, enters as the integer row (s', -n') = m (s, -n), m
    the denominator of s, and a vertex x as the primitive pair (q, X) with
    q > 0 and x = X/q, so the row's product with the pair, the slack
    s'q - <n', X>, has the sign of s - <n, x>.  Tight sets are bitmasks;
    u and w are adjacent iff the vertices on every inequality tight at both
    are exactly u and w (Fukuda & Prodon 1996).  Vertex ids are never
    reused, so each inequality's mask of the live vertices on it is kept
    across insertions and only changed where vertices leave or arrive.  A
    vertex is an extreme ray of the cone of the rows inserted so far, so its
    tight rows have rank d.  When w is simple, tight on exactly d rows,
    those rows are independent and each d - 1 of them cut out an edge of the
    cone whose only other live vertex is the AND of their masks without w
    (Ziegler, Lectures on Polytopes, ch. 3): prefix and suffix ANDs give all
    d ends, with no count and no meet test.  Likewise a simple plus vertex
    u that shares d - 1 rows with w shares an edge with it.  Only for two
    non-simple vertices, whose d - 1 common rows need not be independent,
    does the general path run: the plus vertices that share d - 1 tight
    inequalities with w, the only ones that can be adjacent to it, are found
    by counting through the masks in time linear in w's tight set, and the
    meet test decides each.  The result keeps the integer points.  Facets are
    counted, and only affine_rank is ranked: in a full-dimensional cell,
    inequality i is a facet iff its vertices, at least d, lie on no other
    inequality, as a smaller face lies on two facets or more; a cell of
    dimension d - 1 has the inequalities tight everywhere, a lower one none.

    The pass starts from a simplicial cone (Motzkin et al. 1953): the row
    q >= 0 and the first d rows independent with it form a nonsingular B,
    and column k of sign(det B) adj(B) is the extreme ray tight on every
    row of B but the k-th.  Rays with q = 0 are directions at infinity;
    one that survives every row means the system is unbounded, or empty
    when no ray has q > 0.  Lower-dimensional cells need nothing extra.
    After each insertion that cuts vertices off, more than VERTEX_BUDGET
    live vertices raise VRepCapError, whose message names the budget.
    """
    d = h.dim
    last = len(h.ineqs)
    # row last is q >= 0; it is tight exactly on the rays at infinity
    rows = [
        (iq.support.numerator, *(-iq.support.denominator * x for x in iq.normal)) for iq in h.ineqs
    ] + [(1,) + (0,) * d]
    basis = [last] + [i - 1 for i in linalg.independent_rows([rows[last]] + rows[:last])[1:]]
    if len(basis) <= d:
        raise UnboundedCellError("normals do not span R^d; cell is unbounded")
    adj, det = linalg.adjugate([rows[i] for i in basis])
    seeds = sum(1 << i for i in basis)
    # vertex ids are never reused, so the masks over them stay valid across
    # insertions: on[i] holds the live vertices tight on processed inequality i
    verts: dict[int, tuple[int, ...]] = {}
    tights: dict[int, int] = {}
    for k, i in enumerate(basis):
        ray = tuple(r[k] for r in adj)
        g = gcd(*ray) if det > 0 else -gcd(*ray)
        verts[k] = tuple(x // g for x in ray)
        tights[k] = seeds & ~(1 << i)
    on = [0] * (last + 1)
    for j, t in tights.items():
        for i in _bits(t):
            on[i] |= 1 << j
    alive = (1 << len(verts)) - 1
    next_id = len(verts)
    # negation reverses the sorted order, so in a symmetric system row last-1-i is
    # the opposite of row i: the seed rows' opposites first close the cone quickly
    for k in dict.fromkeys([last - 1 - i for i in basis[1:]] + list(range(last))):
        if seeds >> k & 1:
            continue
        row = rows[k]
        bit = 1 << k
        slack = {j: sum(map(operator.mul, row, v)) for j, v in verts.items()}
        minus = [j for j, t in slack.items() if t < 0]
        zero = [j for j, t in slack.items() if not t]
        zero_mask = sum(1 << j for j in zero)
        for j in zero:
            tights[j] |= bit
        if not minus:
            on[k] = zero_mask
            continue
        if len(minus) == len(verts):
            raise EmptyPolytopeError("inequalities are infeasible")
        minus_mask = sum(1 << j for j in minus)
        plus_mask = alive & ~minus_mask & ~zero_mask
        new_pts: dict[tuple[int, ...], int] = {}
        for w in minus:
            tw, sw, vw = tights[w], slack[w], verts[w]
            rows_w = _bits(tw)
            ends = []
            if len(rows_w) == d:
                # w is simple: each d - 1 of its rows meet in an edge, whose live vertices
                # are w and one more, the AND of the other rows' masks without w
                pre = [alive & ~(1 << w)]
                for i in rows_w[:-1]:
                    pre.append(pre[-1] & on[i])
                suf = -1
                for c in range(d - 1, -1, -1):
                    end = pre[c] & suf
                    if end & (end - 1):
                        raise PolytopeError("an edge of the double description holds three vertices")
                    if end & plus_mask:
                        ends.append(end.bit_length() - 1)
                    suf &= on[rows_w[c]]
            else:
                # at_least[c]: the plus vertices tight on at least c of w's inequalities,
                # so at_least[d-1] are those sharing d - 1 of them with w
                at_least = [plus_mask] + [0] * (d - 1)
                for i in rows_w:
                    o = on[i]
                    for c in range(d - 1, 0, -1):
                        at_least[c] |= at_least[c - 1] & o
                for u in _bits(at_least[d - 1]):
                    # a simple u shares an edge's d - 1 rows with w; else no third
                    # vertex may be tight wherever both are (combinatorial adjacency)
                    if tights[u].bit_count() > d:
                        pair = 1 << u | 1 << w
                        meet = alive
                        for i in _bits(tights[u] & tw):
                            meet &= on[i]
                            if meet == pair:
                                break
                        if meet != pair:
                            continue
                    ends.append(u)
            for u in ends:
                common = tights[u] & tw
                su = slack[u]
                x = tuple(su * b - sw * a for a, b in zip(verts[u], vw))
                g = gcd(*x)
                x = tuple(c // g for c in x)
                # x lies strictly inside [u, w], so a processed inequality is
                # tight at x exactly when it is tight at both ends
                new_pts[x] = new_pts.get(x, 0) | common | bit
        touched = 0
        for w in minus:
            touched |= tights.pop(w)
            del verts[w]
        for i in _bits(touched):
            on[i] &= ~minus_mask
        alive &= ~minus_mask
        on[k] = zero_mask
        for x, t in new_pts.items():
            verts[next_id] = x
            tights[next_id] = t
            for i in _bits(t):
                on[i] |= 1 << next_id
            alive |= 1 << next_id
            next_id += 1
        if len(verts) > VERTEX_BUDGET:
            raise VRepCapError(f"double description passed the vertex budget of {VERTEX_BUDGET} live vertices")
    if any(not v[0] for v in verts.values()):
        if all(not v[0] for v in verts.values()):
            raise EmptyPolytopeError("inequalities are infeasible")
        raise UnboundedCellError("a direction at infinity satisfies every inequality; cell is unbounded")
    # a primitive pair's q is the lcm of the reduced denominators of X/q, so common_q
    # is that of all vertex denominators; the integer points sort like the rationals
    common_q = lcm(*(v[0] for v in verts.values()))
    scaled = {j: tuple(x * (common_q // v[0]) for x in v[1:]) for j, v in verts.items()}
    order = sorted(verts, key=scaled.__getitem__)
    everywhere = functools.reduce(operator.and_, tights.values())
    affine_rank = _face_dim(h.normals, _bits(everywhere))
    if affine_rank == d:
        facet_ids = tuple(
            i for i in range(last) if on[i].bit_count() >= d and _meet(tights, _bits(on[i]), 1 << i) == 1 << i
        )
    else:
        facet_ids = tuple(sorted(_bits(everywhere))) if affine_rank == d - 1 else ()
    return VPolytope(
        hpoly=h,
        scale=common_q,
        points=tuple(scaled[j] for j in order),
        tights=tuple(frozenset(_bits(tights[j])) for j in order),
        facet_ids=facet_ids,
        affine_rank=affine_rank,
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
        scale=v.scale,
        points=v.points,
        tights=tuple(frozenset(renumber[i] for i in ts if i in renumber) for ts in v.tights),
        facet_ids=tuple(range(len(h2.ineqs))),
        affine_rank=v.affine_rank,
    )


def _heights(v: VPolytope, q: Sequence) -> tuple[list[int], int]:
    """<q, x> for every vertex x, as integers over one common denominator."""
    if not v.points:
        raise EmptyPolytopeError("support of an empty polytope")
    qi, den = linalg.scale_to_integers(linalg.vec(q))
    if len(qi) != v.dim:
        raise linalg.DimensionMismatchError(f"direction of length {len(qi)} in dimension {v.dim}")
    return [sum(map(operator.mul, qi, x)) for x in v.points], den * v.scale


@dataclass(frozen=True)
class Face:
    """A proper face, carried as the facets containing it and its vertices."""

    facets: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    dim: int
    direction_space: IntMat  # RREF rows of (aff F - aff F), each scaled to a primitive integer row


def _face_from_vertices(v: VPolytope, vertex_ids: Sequence[int]) -> Face:
    ids = tuple(sorted(vertex_ids))
    eq = frozenset.intersection(*(v.tights[i] for i in ids))
    dirs = linalg.integer_rref(linalg.null_space([v.hpoly.ineqs[i].normal for i in eq], v.dim))
    facets = tuple(i for i in v.facet_ids if i in eq)
    return Face(facets=facets, vertex_ids=ids, dim=len(dirs), direction_space=dirs)


def facet_face(v: VPolytope, facet_id: int) -> Face:
    return _face_from_vertices(v, v.incidence[facet_id])


def contact_face(v: VPolytope, p: Sequence, supp) -> Face | None:
    """The face where the hyperplane <p, x> = supp supports the cell.

    Returns None when the hyperplane misses the cell or cuts through it,
    i.e. when supp is not the exact support value in direction p.
    """
    heights, den = _heights(v, p)
    top = max(heights)
    if Fraction(top, den) != Fraction(supp):
        return None
    return _face_from_vertices(v, [i for i, t in enumerate(heights) if t == top])


def codim2_faces(v: VPolytope) -> tuple[Face, ...]:
    """All (d-2)-faces, sorted by vertex ids; computed once per cell and kept on it."""
    return v._ridges[0]


@dataclass(frozen=True)
class Belt:
    direction_space: IntMat
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
    """Venkov-McMullen test: central symmetry, 4/6-belts, symmetric facets.

    Computed once per cell and kept on it, like its belts.
    """
    return v._verdict


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
    # a parallelotope's vertex n-1-j is the antipode of vertex j
    by_incidence = {v.incidence[i]: i for i in v.facet_ids}
    pair_of: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i in v.facet_ids:
        if i in pair_of:
            continue
        partner = by_incidence[tuple(len(v.points) - 1 - j for j in reversed(v.incidence[i]))]
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

    These are the facets and codim-2 faces that classify_products finds
    parallel or transversal to e rather than shifted along it, from one
    product with e per inequality.  A facet of a full-dimensional cell lies
    on no other facet, so it is never transversal.
    """
    ev = linalg.exact_vec(e)
    if linalg.is_zero_vec(ev):
        raise ValueError("direction e must be nonzero")
    prods = [linalg.inner(n, ev) for n in v.hpoly.normals]
    out = []
    for f in [facet_face(v, i) for i in v.facet_ids] + list(codim2_faces(v)):
        kind = classify_products([prods[i] for i in f.facets])
        if kind != SHIFT:
            out.append(ShadowFace(face=f, parallel=kind == PARALLEL_EXTENSION))
    return tuple(out)


PARALLEL_EXTENSION = "parallel-extension"
SHIFT = "shift"
DIRECT_SUM = "direct-sum"


def classify_products(prods: Sequence) -> str:
    """How a face behaves under Minkowski sum with a segment along e.

    prods are the products <p, e> over the normals p of the facets
    containing the face: all zero is a parallel extension, both strict
    signs a direct sum (the face is transversal to e), anything else a shift.
    """
    if all(p == 0 for p in prods):
        return PARALLEL_EXTENSION
    if any(p > 0 for p in prods) and any(p < 0 for p in prods):
        return DIRECT_SUM
    return SHIFT


def voronoi_cell(a: QuadForm) -> VPolytope:
    """The Voronoi cell of the form, with exact vertices and incidences.

    Raises VRepCapError, from `enumerate_vertices`, when the double
    description passes VERTEX_BUDGET.
    """
    normals = lattice.coset_minima(a).facet_normals()
    return enumerate_vertices(build_cell(a, normals))
