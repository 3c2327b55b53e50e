"""Independent brute-force oracles used to validate the exact engines.

These deliberately avoid the production code paths: minima come from a
plain box scan, dual sets from a box scan bounded by an inverse computed
here or from every sign pattern through that inverse, vertices from
solving all d-subsets of inequalities, face dimensions from eliminating
vertex differences, determinants from the same elimination, and
Minkowski sums from translating vertex sets.  The commensurate vectors,
layer indices, segment supports f_e and a_e, the set P(e) and the segment
as a cell of the paper's lemmas, and a cell's support values and face
classes under e, which only the tests ask for, live here too, and so does
a random unimodular change of basis, with the positive-definiteness test,
the support-sum inclusion check and the facet adjacency check.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _reduced_rows(rows) -> list:
    """Reduced row echelon form of rational rows, zero rows dropped (own elimination)."""
    return _eliminate(rows)[0]


def det(m) -> Fraction:
    """Determinant of a square rational matrix, by the elimination above."""
    out, scale = _eliminate(m)
    return scale if len(out) == len(m) else Fraction(0)


def mat_mul(a, b) -> tuple:
    """Plain product of two rational matrices, as a tuple of row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


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


def affine_direction_space(points) -> list:
    """RREF rows of aff(points) - aff(points), from vertex differences (own elimination)."""
    return _reduced_rows([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


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


def minkowski_candidates(vertices, e, b) -> tuple:
    """Candidate vertex set {v +/- b e} of a polytope-plus-segment sum."""
    ev = linalg.vec(e)
    shift = linalg.vscale(Fraction(b), ev)
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
            if linalg.dot(iq.normal, c) > iq.support:
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


def commensurate(a: "lattice.QuadForm", p) -> tuple:
    """2Ap, the translation joining the cell center to the neighbor across F(p)."""
    pt = linalg.exact_vec(p)
    # a non-integral entry makes p no lattice vector, let alone a contact vector
    cl = None if any(isinstance(x, Fraction) for x in pt) else lattice.coset_minima(a).class_of(pt)
    if cl is None or pt not in cl.minima:
        raise NotContactVectorError(f"({', '.join(map(str, pt))}) is not a contact vector of the form")
    return linalg.vscale(2, linalg.mat_vec(a.gram, linalg.vec(pt)))


def layer_index(e, v) -> int:
    """The integer z with <e, v> = z; rejects non-integral products."""
    prod = linalg.dot(linalg.vec(e), linalg.vec(v))
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
    return max(linalg.inner(linalg.vec(q), x) for x in v.vertices)


def classify_face(v: "polytope.VPolytope", face: "polytope.Face", e) -> str:
    """polytope.classify_products of e's products with the normals of the facets on the face."""
    return polytope.classify_products([linalg.inner(v.hpoly.ineqs[i].normal, e) for i in face.facets])


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
    """Exact test: the LDL^T pivots, ratios of leading principal minors, are all positive."""
    if not linalg.is_symmetric(m):
        raise NonSymmetricError("positive-definiteness test needs a symmetric matrix")
    try:
        linalg.ldl(m)
    except linalg.LinAlgError:  # ldl's only failure on a symmetric matrix: a pivot <= 0
        return False
    return True


class NormalSetMismatchError(extension.ExtensionError):
    pass


def subset_check(h1, h2, v1=None, v2=None) -> tuple:
    """Check P(s1) + P(s2) inside P(s1 + s2) over a shared normal set.

    This is a theorem for support-function sums, so a False return (with
    the offending vertex sum as witness) signals an implementation bug.
    The support of a Minkowski sum is the sum of the supports, so one
    maximiser per summand and inequality decides.  Precomputed vertex
    representations may be passed to avoid re-enumeration.
    """
    if h1.normals != h2.normals:
        raise NormalSetMismatchError("the two cells must share their normal set")
    total = polytope.hpolytope(
        h1.dim,
        [(iq1.normal, iq1.support + iq2.support) for iq1, iq2 in zip(h1.ineqs, h2.ineqs)],
    )
    v1 = v1 if v1 is not None and v1.hpoly == h1 else polytope.enumerate_vertices(h1)
    v2 = v2 if v2 is not None and v2.hpoly == h2 else polytope.enumerate_vertices(h2)
    for iq in total.ineqs:
        tops = []
        for v in (v1, v2):
            top = max(v.points, key=functools.partial(linalg.inner, iq.normal))
            tops.append(linalg.vscale(Fraction(1, v.scale), top))
        s = linalg.vadd(*tops)
        if linalg.dot(iq.normal, s) > iq.support:
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
    pv = linalg.vec(p)
    fid = next((i for i in v.facet_ids if v.hpoly.ineqs[i].normal == pv), None)
    if fid is None:
        raise NotFacetNormalError(f"{tuple(p)} is not a facet normal of the cell")
    shift = linalg.vscale(2 * v.scale, linalg.mat_vec(a.gram, pv))
    ids = v.incidence[fid]
    pts = v.points
    return all(linalg.vadd(pts[j], pts[k]) == shift for j, k in zip(ids, reversed(ids)))
