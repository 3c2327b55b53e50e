"""Independent brute-force oracles used to validate the exact engines.

These deliberately avoid the production code paths: minima come from a
plain box scan, dual sets from a box scan bounded by an inverse computed
here or from every sign pattern through that inverse, vertices from
solving all d-subsets of inequalities (or, for a polytope held on a
line, from the bounds along it), face dimensions from the Gram matrix
of the vertex differences, every RREF from a fraction-free elimination
of integer rows, determinants from a rational one, and Minkowski sums
from translating vertex sets.  The commensurate vectors, layer indices,
segment supports f_e and a_e, the set P(e) and the segment as a cell of
the paper's lemmas, and a cell's support values and face classes under
e, which only the tests ask for, live here too, and so does a random
unimodular change of basis, with the positive-definiteness test
by Sylvester's criterion, the LDL^T factorisation in Fractions, one parity
class's start bound by greedy descent from its own 0/1 representative,
the support-sum inclusion check, the facet adjacency check, a facet's face,
the three-way classification of a face under e, the shadow boundary of a
cell under e, the Fraction vectors and the matrix-vector product.  The
package's faces are its ridges, as facet pairs, and belts only, so a
ridge's vertices, the face where a hyperplane supports a cell, a belt's
cyclic facet order, lemma L8, a parity class, dual-set membership and a
null space are found here, from the cell's and the form's own fields.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from voroseg import extension, lattice, linalg, polytope


def random_pd_form_box6(rng, d: int) -> "lattice.QuadForm":
    """Random rational PD form whose parity-class minima provably fit in a 6-box.

    Diagonal dominance with margin 1 gives a(v) >= |v|_inf^2, and entries
    in [-3, 3] bound every 0/1 class representative by sum|A_ij| <= 48 < 49,
    so no minimal vector can have a coordinate beyond 6.  That makes the
    radius-6 box scan a complete oracle for these forms.
    """
    half = Fraction(1, 2)
    off_choices = {
        2: [0, half, -half, 1, -1, Fraction(3, 2), Fraction(-3, 2)],
        3: [0, half, -half, 1, -1],
        4: [0, half, -half],
        5: [0, half, -half],
    }[d]
    while True:
        off = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                off[i][j] = off[j][i] = Fraction(rng.choice(off_choices))
        g = [row[:] for row in off]
        for i in range(d):
            row_sum = sum(abs(x) for x in off[i])
            g[i][i] = min(1 + row_sum + rng.choice((0, half)), Fraction(3))
        total = sum(abs(x) for row in g for x in row)
        assert total < 49 and all(
            g[i][i] - sum(abs(g[i][j]) for j in range(d) if j != i) >= 1
            for i in range(d)
        )
        form = lattice.make_form(g)
        if any(x != 0 for row in off for x in row):
            return form


def box_scan_minima(gram, radius: int):
    """Minimum norm and minima per nonzero parity class, scanning a box.

    Scales the Gram to integers so the scan runs in plain int arithmetic;
    results are exact.
    """
    d = len(gram)
    den = 1
    for row in gram:
        for x in row:
            f = Fraction(x)
            den = den * f.denominator // math.gcd(den, f.denominator)
    g = [[int(Fraction(x) * den) for x in row] for row in gram]
    best: dict[tuple[int, ...], tuple[int, list[tuple[int, ...]]]] = {}
    for v in itertools.product(range(-radius, radius + 1), repeat=d):
        parity = tuple(x % 2 for x in v)
        if all(p == 0 for p in parity):
            continue
        norm = 0
        for i in range(d):
            if v[i]:
                row = g[i]
                norm += v[i] * sum(row[j] * v[j] for j in range(d))
        cur = best.get(parity)
        if cur is None or norm < cur[0]:
            best[parity] = (norm, [v])
        elif norm == cur[0]:
            cur[1].append(v)
    return {
        parity: (Fraction(norm, den), tuple(sorted(vs)))
        for parity, (norm, vs) in best.items()
    }


def _eliminate(rows) -> tuple[list, Fraction]:
    """RREF of rational rows with zero rows dropped, and the product of the
    pivots signed by the row order, which is the determinant of a square
    input of full rank (own elimination)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    out = []
    scale = Fraction(1)
    col = 0
    while rows and col < len(rows[0]):
        j = next((k for k, r in enumerate(rows) if r[col] != 0), None)
        if j is not None:
            # moving row j to the front of the remaining rows takes j swaps
            pivot = rows.pop(j)
            scale *= pivot[col] * (-1) ** j
            pivot = [x / pivot[col] for x in pivot]
            rows = [[x - r[col] * y for x, y in zip(r, pivot)] if r[col] else r for r in rows]
            out = [[x - r[col] * y for x, y in zip(r, pivot)] if r[col] else r for r in out]
            out.append(pivot)
        col += 1
    return out, scale


def _integer_rref(rows) -> list:
    """The RREF of rational rows, zero rows dropped, as (pivot column, int row) pairs (own elimination, fraction-free).

    Each row is scaled to integers by the lcm of its denominators and enters
    in turn: it is reduced against the rows kept so far by cross-multiplying
    at their pivot columns, and kept, divided by the gcd of its entries,
    when a nonzero entry remains.  The kept rows, sorted by pivot column,
    then clear each other's pivot columns.  Each int row is its RREF row
    times its pivot; no Fraction is formed.
    """
    kept = []
    for r in rows:
        m = math.lcm(*(x.denominator for x in r))  # an int's is 1
        v = [x.numerator * (m // x.denominator) for x in r]
        for c, k in kept:
            if v[c]:
                f, g = k[c], v[c]
                v = [f * x - g * y for x, y in zip(v, k)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            g = math.gcd(*v)
            kept.append((c, [x // g for x in v]))
    kept.sort(key=lambda ck: ck[0])
    # column c of row i is cleared in the rows before it; no row after it has an entry there
    for i, (c, k) in enumerate(kept):
        for j, (cj, kj) in enumerate(kept[:i]):
            if kj[c]:
                f, g = k[c], kj[c]
                kj = [f * x - g * y for x, y in zip(kj, k)]
                h = math.gcd(*kj)
                kept[j] = (cj, [x // h for x in kj])
    return kept


def _reduced_rows(rows) -> list:
    """Reduced row echelon form of rational rows, zero rows dropped (own elimination).

    Fractions are formed only here, dividing each row of `_integer_rref` by its pivot.
    """
    return [[Fraction(x, r[c]) for x in r] for c, r in _integer_rref(rows)]


def det(m) -> Fraction:
    """Determinant of a square rational matrix, by the elimination above."""
    out, scale = _eliminate(m)
    return scale if len(out) == len(m) else Fraction(0)


def mat_mul(a, b) -> tuple:
    """Plain product of two rational matrices, as a tuple of row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def vec(entries) -> tuple:
    """The entries as a tuple of Fractions."""
    return tuple(map(Fraction, entries))


def vscale(c, u) -> tuple:
    """c u, as a tuple of Fractions."""
    c = Fraction(c)
    return tuple(c * x for x in u)


def mat_vec(m, v) -> tuple:
    """The product of a matrix and a vector, one `linalg.inner` per row."""
    return tuple(linalg.inner(row, v) for row in m)


def null_basis(rows, ncols: int) -> list:
    """Basis of the right null space of rows: one vector per free column of the RREF."""
    red = _reduced_rows(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        x = [Fraction(int(j == f)) for j in range(ncols)]
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        basis.append(x)
    return basis


def _direction_rows(points) -> list:
    """d rows that span aff(points) - aff(points): D^T D for the differences D of each point but the first from it.

    D^T D x = 0 iff |D x|^2 = 0 iff D x = 0, so D^T D has D's null space and
    so its row space, in d rows however many points there are.
    """
    cols = list(zip(*[[x - y for x, y in zip(p, points[0])] for p in points[1:]]))
    return [[sum(map(operator.mul, a, b)) for b in cols] for a in cols]


def affine_direction_space(points) -> list:
    """RREF rows of aff(points) - aff(points), from vertex differences (own elimination)."""
    return _reduced_rows(_direction_rows(points))


def _basis_inverse(ns) -> list:
    """B^-1 for the first d independent normals B, by the elimination above."""
    d = len(ns[0])
    basis: list = []
    for p in ns:
        if len(_reduced_rows(basis + [p])) > len(basis):
            basis.append(p)
        if len(basis) == d:
            break
    if len(basis) != d:
        raise ValueError("normals do not span R^d")
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    return [r[d:] for r in _reduced_rows([list(b) + e for b, e in zip(basis, eye)])]


def _free_against(ns, e) -> bool:
    return all(sum(a * b for a, b in zip(p, e)) in (-1, 0, 1) for p in ns)


def box_scan_dual_set(normals) -> tuple:
    """All integer e != 0 with every <p, e> in {0, +1, -1}, by scanning a box.

    For d independent normals B, e = B^-1 sigma with |sigma_j| <= 1, so
    |e_i| is at most the i-th row sum of |B^-1|; the box of those radii
    holds every member.  B^-1 comes from the elimination above, not from
    voroseg.
    """
    ns = [tuple(int(x) for x in p) for p in normals]
    radii = [int(sum(abs(x) for x in row)) for row in _basis_inverse(ns)]
    return tuple(
        e
        for e in itertools.product(*(range(-r, r + 1) for r in radii))
        if any(e) and _free_against(ns, e)
    )


def sign_pattern_dual_set(normals) -> tuple:
    """The dual set as box_scan_dual_set defines it, over all 3^d sign patterns.

    e = B^-1 sigma for every sigma in {0, +1, -1}^d, kept when integral,
    nonzero and free against every normal.  B^-1 comes from the elimination
    above and is scaled once to integers over the lcm of its denominators,
    so the pattern loop runs in ints; it fits d up to 8 where a box scan
    does not.
    """
    ns = [tuple(int(x) for x in p) for p in normals]
    inverse = _basis_inverse(ns)
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    adj = [[int(x * den) for x in row] for row in inverse]
    out = []
    for sigma in itertools.product((0, 1, -1), repeat=len(adj)):
        num = [sum(a * s for a, s in zip(row, sigma)) for row in adj]
        if any(sigma) and not any(x % den for x in num):
            e = tuple(x // den for x in num)
            if _free_against(ns, e):
                out.append(e)
    return tuple(sorted(out))


def brute_force_vertices(h) -> tuple:
    """All vertices of an H-polytope by solving every d-subset of equalities."""
    d = h.dim
    pts = set()
    for subset in itertools.combinations(range(len(h.ineqs)), d):
        red = _reduced_rows([list(h.ineqs[i].normal) + [h.ineqs[i].support] for i in subset])
        # the normals are independent iff the RREF is [I | x]
        if len(red) < d or any(r[i] != 1 for i, r in enumerate(red)):
            continue
        x = tuple(r[d] for r in red)
        if all(sum(a * b for a, b in zip(iq.normal, x)) <= iq.support for iq in h.ineqs):
            pts.add(x)
    return tuple(sorted(pts))


def line_vertices(h, e) -> tuple:
    """All vertices of an H-polytope that its rows of support 0 hold on the line through 0 and e.

    Those rows, each with its opposite, give <p, x> = 0; when their normals
    are orthogonal to e and span e's orthogonal complement (by the
    elimination above), the polytope lies on the line x = t e, where each
    other row bounds t.  Solving every d-subset is out of reach here: a
    segment over the 26 contact vectors of Z^3 has 2600 of them.
    """
    pinned = {tuple(iq.normal) for iq in h.ineqs if iq.support == 0}
    if {tuple(-x for x in p) for p in pinned} != pinned or any(linalg.inner(p, e) for p in pinned):
        raise ValueError("the rows of support 0 are not opposite pairs orthogonal to e")
    if len(_reduced_rows(list(pinned))) != h.dim - 1:
        raise ValueError("the rows of support 0 do not hold the polytope on a line")
    bounds = [(iq.support / t, t > 0) for iq in h.ineqs if (t := linalg.inner(iq.normal, e))]
    hi = min(s for s, up in bounds if up)
    lo = max(s for s, up in bounds if not up)
    return tuple(sorted({vscale(t, e) for t in (lo, hi)})) if lo <= hi else ()


def minkowski_candidates(vertices, e, b) -> tuple:
    """Candidate vertex set {v +/- b e} of a polytope-plus-segment sum."""
    shift = vscale(b, e)
    out = set()
    for v in vertices:
        out.add(linalg.vadd(v, shift))
        out.add(tuple(x - y for x, y in zip(v, shift)))
    return tuple(sorted(out))


def check_sum_against_candidates(sum_cell, base_vertices, e, b):
    """Two-sided hull check: candidates inside the sum, sum vertices among candidates."""
    cands = minkowski_candidates(base_vertices, e, b)
    for c in cands:
        for iq in sum_cell.hpoly.ineqs:
            if linalg.inner(iq.normal, c) > iq.support:
                return False, ("candidate outside sum", c)
    cset = set(cands)
    for v in sum_cell.vertices:
        if v not in cset:
            return False, ("sum vertex not a candidate", v)
    return True, None


class NotContactVectorError(lattice.LatticeError):
    pass


class NonIntegralLayerError(lattice.LatticeError):
    pass


def parity_class(cs: "lattice.ContactVectorSet", p):
    """p's class in cs, None for an even p: class c, whose parity is c's binary digits, is cs.classes[c - 1]."""
    c = int("".join(str(x % 2) for x in p), 2)
    return cs.classes[c - 1] if c else None


def commensurate(a: "lattice.QuadForm", p) -> tuple:
    """2Ap, the translation joining the cell center to the neighbor across F(p)."""
    pv = vec(p)
    # a non-integral entry makes p no lattice vector, let alone a contact vector
    pt = tuple(map(int, pv)) if all(x.denominator == 1 for x in pv) else None
    cl = None if pt is None else parity_class(lattice.coset_minima(a), pt)
    if cl is None or pt not in cl.minima:
        raise NotContactVectorError(f"({', '.join(map(str, pv))}) is not a contact vector of the form")
    return vscale(2, mat_vec(a.gram, pv))


def layer_index(e, v) -> int:
    """The integer z with <e, v> = z; rejects non-integral products."""
    prod = linalg.inner(vec(e), vec(v))
    if prod.denominator != 1:
        raise NonIntegralLayerError(f"<e,v> = {prod} is not an integer")
    return int(prod)


class SegmentHypothesisError(extension.ExtensionError):
    pass


def f_e(p, dir: "extension.Direction") -> Fraction:
    """Support of the weighted segment in direction p: b * |<p, e>|."""
    return dir.b * abs(linalg.inner(p, dir.e))


def a_e(p, dir: "extension.Direction") -> Fraction:
    """The rank-1 form b <p, e>^2; agrees with f_e exactly on products in {0,+1,-1}."""
    t = linalg.inner(p, dir.e)
    return dir.b * t * t


def p_e_set(normals, e) -> tuple:
    """The normals whose product with e lies in {0, +1, -1}, as sorted int tuples."""
    return tuple(sorted(tuple(p) for p in normals if linalg.inner(p, e) in (0, 1, -1)))


def segment_as_polytope(dir: "extension.Direction", normals) -> "polytope.HPolytope":
    """The segment b*[-e, e] as the cell {x : <p, x> <= f_e(p)}.

    Needs the products <p, e> to realise a zero and both signs over the
    normal set, otherwise the inequalities cut out more than the segment.
    """
    prods = [linalg.inner(p, dir.e) for p in normals]
    if 0 not in prods:
        raise SegmentHypothesisError("no normal orthogonal to e")
    if not (any(t > 0 for t in prods) and any(t < 0 for t in prods)):
        raise SegmentHypothesisError("products do not attain both signs")
    return polytope.hpolytope(len(dir.e), [(p, dir.b * abs(t)) for p, t in zip(normals, prods)])


def support_value(v: "polytope.VPolytope", q) -> Fraction:
    """max <q, x> over the vertices x of the cell."""
    return max(linalg.inner(vec(q), x) for x in v.vertices)


PARALLEL_EXTENSION = "parallel-extension"
SHIFT = "shift"
DIRECT_SUM = "direct-sum"


def classify_products(prods) -> str:
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


def classify_face(v: "polytope.VPolytope", face: "SupportFace", e) -> str:
    """classify_products of e's products with the normals of the facets on the face."""
    return classify_products([linalg.inner(v.hpoly.ineqs[i].normal, e) for i in face.facets])


def support_vertex_ids(v: "polytope.VPolytope", p, supp) -> tuple | None:
    """The ids of the vertices where <p, x> is largest, None unless that largest value is supp.

    Reads only the cell's points X = Q x and its scale Q, so the largest <p, X> must be supp Q.
    """
    heights = [sum(a * b for a, b in zip(p, x)) for x in v.points]
    top = max(heights)
    if top != supp * v.scale:
        return None
    return tuple(i for i, t in enumerate(heights) if t == top)


@dataclass(frozen=True)
class SupportFace:
    facets: tuple[int, ...]  # the facets that hold every vertex of the face
    vertex_ids: tuple[int, ...]
    dim: int


def support_face(v: "polytope.VPolytope", p, supp) -> SupportFace | None:
    """Where <p, x> = supp supports the cell (else None): its vertices, the facets on them all and its dimension."""
    ids = support_vertex_ids(v, p, supp)
    return None if ids is None else _face_of(v, ids)


def _face_of(v: "polytope.VPolytope", ids: tuple) -> SupportFace:
    """The face with these vertex ids: the facets on them all, from the points, and its dimension."""
    pts = [v.points[j] for j in ids]
    ineqs = v.hpoly.ineqs
    facets = tuple(
        i for i in v.facet_ids
        if all(sum(a * b for a, b in zip(ineqs[i].normal, x)) == ineqs[i].support * v.scale for x in pts)
    )
    return SupportFace(facets, ids, len(affine_direction_space(pts)))


def facet_face(v: "polytope.VPolytope", facet_id: int) -> SupportFace:
    """The face of a facet: where its own hyperplane supports the cell."""
    iq = v.hpoly.ineqs[facet_id]
    return support_face(v, iq.normal, iq.support)


def ridge_face(v: "polytope.VPolytope", ridge: tuple) -> SupportFace:
    """The face of a facet pair (i, j): the points where both facets' own hyperplanes support the cell.

    Reads the points only, never the tight masks or the incidences, so on a
    true ridge its facets are exactly (i, j) and its dimension d - 2.
    """
    ineqs = v.hpoly.ineqs
    first, second = (set(support_vertex_ids(v, ineqs[i].normal, ineqs[i].support)) for i in ridge)
    return _face_of(v, tuple(sorted(first & second)))


class OffBeltNormalError(polytope.PolytopeError):
    pass


def belt_cycle(v: "polytope.VPolytope", belt: "polytope.Belt") -> tuple:
    """A belt's facets in counterclockwise order about its direction space, from the smallest id.

    The direction space is that of the belt's first ridge (i, j), the null
    space of its two facet normals, by the elimination above, and its RREF
    rows are kept as int multiples, with the same pivots and null space; no
    vertex is read, so a large cell's belts cost no scan of its points, and
    the ridge tests check that space against the ridge's vertices
    (`ridge_face`).  Its null space has the basis that is the
    identity at the two non-pivot columns a < b, so a normal orthogonal to
    the space has the coordinates (n_a, n_b) there; a facet normal that is
    not orthogonal to it raises OffBeltNormalError.  The order is exact: the half-plane y > 0, with
    the ray y = 0, x > 0, before the other, then by the sign of the cross product.
    """
    i, j = polytope.codim2_faces(v)[belt.face_ids[0]]
    space = _integer_rref(null_basis([v.hpoly.normals[i], v.hpoly.normals[j]], v.dim))
    pivots = {c for c, _ in space}
    a, b = (j for j in range(v.dim) if j not in pivots)
    plane = []
    for i in belt.facets:
        n = v.hpoly.ineqs[i].normal
        if any(sum(map(operator.mul, r, n)) for _, r in space):
            raise OffBeltNormalError(f"facet {i} is not orthogonal to its belt's direction space")
        plane.append((i, n[a], n[b]))

    def upper(x, y) -> bool:
        return y > 0 or (y == 0 and x > 0)

    def before(s, t) -> int:
        (_, x, y), (_, u, w) = s, t
        if upper(x, y) != upper(u, w):
            return -1 if upper(x, y) else 1
        cross = x * w - y * u
        return -1 if cross > 0 else int(cross < 0)

    order = [i for i, _, _ in sorted(plane, key=functools.cmp_to_key(before))]
    start = order.index(min(order))
    return tuple(order[start:] + order[:start])


def lemma_l8_holds(a: "lattice.QuadForm", v: "polytope.VPolytope", e) -> bool:
    """Lemma L8 for e in the dual set (else ValueError): each ridge transversal to e is a contact face on a 4-belt.

    On a ridge whose facet normals p_i, p_j have products with e of opposite
    signs, p = p_i + p_j must have <p, e> = 0, be among its class's minima
    and touch the cell in exactly the ridge's vertices at a(p), and the ridge
    must lie on a 4-belt.
    """
    normals = v.hpoly.normals
    if not _free_against(normals, e):
        raise ValueError(f"{tuple(e)} is not in the dual set of the cell's normals")
    cs = lattice.coset_minima(a)
    prods = [sum(x * y for x, y in zip(n, e)) for n in normals]
    on_4_belt = {fi for belt in polytope.belts(v) if belt.length == 4 for fi in belt.face_ids}
    for fi, (i, j) in enumerate(polytope.codim2_faces(v)):
        if prods[i] * prods[j] >= 0:
            continue
        p = tuple(x + y for x, y in zip(normals[i], normals[j]))
        norm = sum(x * g * y for x, row in zip(p, a.gram) for g, y in zip(row, p))
        cl = parity_class(cs, p)
        if (
            sum(x * y for x, y in zip(p, e))
            or cl is None
            or p not in cl.minima
            or support_vertex_ids(v, p, norm) != ridge_face(v, (i, j)).vertex_ids
            or fi not in on_4_belt
        ):
            return False
    return True


@dataclass(frozen=True)
class ShadowFace:
    face: SupportFace
    parallel: bool  # parallel to e (else transversal)


def shadow_boundary(v: "polytope.VPolytope", e) -> tuple:
    """Facets and codim-2 faces met by lines in direction e only in themselves.

    These are the facets and codim-2 faces that classify_products finds
    parallel or transversal to e rather than shifted along it, from one
    product with e per inequality.  A facet of a full-dimensional cell lies
    on no other facet, so it is never transversal.
    """
    if not any(e):
        raise ValueError("direction e must be nonzero")
    prods = [linalg.inner(n, e) for n in v.hpoly.normals]
    out = []
    for f in [facet_face(v, i) for i in v.facet_ids] + [ridge_face(v, r) for r in polytope.codim2_faces(v)]:
        kind = classify_products([prods[i] for i in f.facets])
        if kind != SHIFT:
            out.append(ShadowFace(face=f, parallel=kind == PARALLEL_EXTENSION))
    return tuple(out)


def random_unimodular(rng, d: int, shears: int) -> tuple:
    """(U, U^-1) for a random signed permutation times `shears` random shears e_i += c e_j, |c| <= 2.

    U is built column operation by column operation and U^-1 row operation
    by row operation in the reverse order, so U U^-1 = I holds exactly.
    """
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    u_inv = [row[:] for row in u]
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    u = [[signs[j] * u[i][perm[j]] for j in range(d)] for i in range(d)]
    u_inv = [[signs[i] * u_inv[perm[i]][j] for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:  # column i += c * column j
            row[i] += c * row[j]
        u_inv[j] = [x - c * y for x, y in zip(u_inv[j], u_inv[i])]  # row j -= c * row i
    return tuple(map(tuple, u)), tuple(map(tuple, u_inv))


class NonSymmetricError(linalg.LinAlgError):
    pass


def is_positive_definite(m) -> bool:
    """Exact test by Sylvester's criterion: every leading principal minor is positive (own `det`)."""
    if not linalg.is_symmetric(m):
        raise NonSymmetricError("positive-definiteness test needs a symmetric matrix")
    return all(det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def fraction_ldl(m) -> tuple:
    """(L, D) with m = L diag(D) L^T, L unit lower triangular, column by column in Fractions.

    Raises linalg.LinAlgError at the first pivot <= 0, as `linalg.ldl` does.
    """
    n = len(m)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        s = m[j][j] - sum((L[j][k] * L[j][k] * D[k] for k in range(j)), Fraction(0))
        if s <= 0:
            raise linalg.LinAlgError("matrix is not positive definite")
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            t = m[i][j] - sum((L[i][k] * L[j][k] * D[k] for k in range(j)), Fraction(0))
            L[i][j] = t / s
    return tuple(tuple(row) for row in L), tuple(D)


def greedy_class_bound(g, parity) -> int:
    """Norm under the integer Gram g reached by a greedy descent from the class's 0/1 representative.

    Each coordinate in turn tries steps of +2 and then -2 and keeps one that
    lowers the norm, until a whole round keeps none; g p is rebuilt from the
    representative, and a step p -> p + s e_j changes the norm by
    2s (gp)_j + s^2 g_jj.
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


class NormalSetMismatchError(extension.ExtensionError):
    pass


def subset_check(h1, h2, v1=None, v2=None) -> tuple:
    """Check P(s1) + P(s2) inside P(s1 + s2) over a shared normal set.

    This is a theorem for support-function sums, so a False return (with
    the offending vertex sum as witness) signals an implementation bug.
    The support of a Minkowski sum is the sum of the supports, so one
    maximiser per summand and inequality decides.  A summand's vertices may
    be passed: a segment b[-e, e] passes its vertices +/- be, as its system
    has supports 0 and `polytope.enumerate_vertices` refuses it; otherwise
    they come from `enumerate_vertices`.
    """
    if h1.normals != h2.normals:
        raise NormalSetMismatchError("the two cells must share their normal set")
    total = polytope.hpolytope(
        h1.dim,
        [(iq1.normal, iq1.support + iq2.support) for iq1, iq2 in zip(h1.ineqs, h2.ineqs)],
    )
    summands = [polytope.enumerate_vertices(h).vertices if v is None else v for h, v in ((h1, v1), (h2, v2))]
    for iq in total.ineqs:
        s = linalg.vadd(*(max(v, key=functools.partial(linalg.inner, iq.normal)) for v in summands))
        if linalg.inner(iq.normal, s) > iq.support:
            return False, s
    return True, None


class NotFacetNormalError(polytope.PolytopeError):
    pass


def adjacency_check(a: "lattice.QuadForm", v: "polytope.VPolytope", p) -> bool:
    """True iff the cell and its translate by 2Ap share exactly the facet F(p).

    The translate lies beyond the hyperplane <p, x> = a(p), so sharing the
    facet is equivalent to F(p) being centrally symmetric about Ap; as in
    is_parallelotope, the reflection pairs the facet's k-th and (m-1-k)-th vertices.
    """
    pv = vec(p)
    fid = next((i for i in v.facet_ids if v.hpoly.ineqs[i].normal == pv), None)
    if fid is None:
        raise NotFacetNormalError(f"{tuple(p)} is not a facet normal of the cell")
    shift = vscale(2 * v.scale, mat_vec(a.gram, pv))
    ids = v.incidence[fid]
    pts = v.points
    return all(linalg.vadd(pts[j], pts[k]) == shift for j, k in zip(ids, reversed(ids)))
