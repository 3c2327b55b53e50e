import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NotFacetNormalError,
    adjacency_check,
    affine_direction_space,
    brute_force_vertices,
    classify_face,
    mat_mul,
    null_basis,
    segment_as_polytope,
    support_value,
)
from voroseg import extension, jsonio, lattice, linalg, polytope
from voroseg.lattice import catalog, coset_minima
from voroseg.polytope import (
    EmptyPolytopeError,
    NotParallelotopeError,
    UnboundedCellError,
    VRepCapError,
    belts,
    build_cell,
    codim2_faces,
    contact_face,
    enumerate_vertices,
    facet_face,
    hpolytope,
    irreducibility_graph,
    is_parallelotope,
    prune_to_facets,
    shadow_boundary,
    voronoi_cell,
)


def cell_of(name, n=None):
    return voronoi_cell(catalog(name, n))


def test_build_cell_square():
    z2 = catalog("Zn", 2)
    h = build_cell(z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(h.ineqs) == 4
    assert all(iq.support == 1 for iq in h.ineqs)


def test_build_cell_hexagon_supports():
    a2 = catalog("An", 2)
    h = build_cell(a2, coset_minima(a2).facet_normals())
    assert len(h.ineqs) == 6
    assert all(iq.support == 2 for iq in h.ineqs)


def test_build_cell_unbounded():
    z2 = catalog("Zn", 2)
    with pytest.raises(UnboundedCellError):
        build_cell(z2, [(1, 0), (-1, 0)])


def test_build_cell_asymmetric_rejected():
    z2 = catalog("Zn", 2)
    with pytest.raises(ValueError):
        build_cell(z2, [(1, 0), (-1, 0), (0, 1)])


def test_parallel_dedup_keeps_tighter():
    h = hpolytope(2, [((1, 0), 1), ((2, 0), 6), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    assert len(h.ineqs) == 4
    sup = {tuple(iq.normal): iq.support for iq in h.ineqs}
    assert sup[(F(1), F(0))] == 1


def test_enumerate_square_and_hexagon():
    sq = cell_of("Zn", 2)
    assert sq.vertices == tuple(
        sorted(linalg.vec(p) for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    )
    hexagon = cell_of("An", 2)
    assert len(hexagon.vertices) == 6


def test_enumerate_d4_is_24cell():
    v = cell_of("Dn", 4)
    assert len(v.vertices) == 24
    assert len(v.facet_ids) == 24


def test_enumerate_vs_brute_force_catalog():
    for name, n in [("Zn", 2), ("An", 2), ("Zn", 3), ("An", 3), ("An*", 3)]:
        v = cell_of(name, n)
        assert v.vertices == brute_force_vertices(v.hpoly)


def test_enumerate_vs_brute_force_random_cells():
    rng = random.Random(99)
    count = 0
    while count < 6:
        g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        gram = [[g[i][j] + g[j][i] + (4 if i == j else 0) for j in range(3)] for i in range(3)]
        try:
            a = lattice.make_form(gram)
        except lattice.LatticeError:
            continue
        v = voronoi_cell(a)
        assert v.vertices == brute_force_vertices(v.hpoly)
        count += 1


def test_vrep_cap(monkeypatch):
    # the double description of the A3* cell peaks at its 24 final vertices;
    # one live vertex more than the budget stops it, with the budget named
    h = cell_of("An*", 3).hpoly
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 23)
    with pytest.raises(VRepCapError, match="vertex budget of 23 "):
        enumerate_vertices(h)
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 24)
    assert len(enumerate_vertices(h).points) == 24


def test_vertex_budget_admits_every_cell_up_to_d7():
    # a Voronoi parallelotope has at most (d+1)! vertices: 8! fits, A8*'s 9! does not
    assert math.factorial(8) < polytope.VERTEX_BUDGET < math.factorial(9)


def test_support_value_examples():
    sq = cell_of("Zn", 2)
    assert support_value(sq, (1, 1)) == 2
    assert support_value(sq, (1, 0)) == 1
    hexagon = cell_of("An", 2)
    assert support_value(hexagon, (1, 0)) == 2


def test_contact_face_examples():
    sq = cell_of("Zn", 2)
    edge = contact_face(sq, (1, 0), 1)
    assert edge.dim == 1 and len(edge.vertex_ids) == 2
    vert = contact_face(sq, (1, 1), 2)
    assert vert.dim == 0
    assert sq.vertices[vert.vertex_ids[0]] == linalg.vec((1, 1))
    assert contact_face(sq, (1, 0), 2) is None


def test_codim2_counts():
    assert len(codim2_faces(cell_of("Zn", 2))) == 4      # square vertices
    assert len(codim2_faces(cell_of("Zn", 3))) == 12     # cube edges
    assert len(codim2_faces(cell_of("An", 3))) == 24     # rhombic dodecahedron edges


def test_belts_square_hexagon_cube():
    assert [b.length for b in belts(cell_of("Zn", 2))] == [4]
    assert [b.length for b in belts(cell_of("An", 2))] == [6]
    assert sorted(b.length for b in belts(cell_of("Zn", 3))) == [4, 4, 4]


def test_belt_facets_close_under_antipodes():
    v = cell_of("An", 3)
    for belt in belts(v):
        normals = {tuple(v.hpoly.ineqs[i].normal) for i in belt.facet_ids}
        assert {tuple(-x for x in n) for n in normals} == normals
        assert belt.length % 2 == 0


def test_is_parallelotope_catalog_cells():
    for name, n in [("Zn", 2), ("An", 2), ("An", 3), ("Dn", 4), ("An*", 3)]:
        assert is_parallelotope(cell_of(name, n)).ok


def test_octagon_fails_belt():
    h = hpolytope(
        2,
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
         ((1, 1), F(3, 2)), ((-1, -1), F(3, 2)), ((1, -1), F(3, 2)), ((-1, 1), F(3, 2))],
    )
    v = enumerate_vertices(h)
    verdict = is_parallelotope(v)
    assert not verdict.ok
    assert verdict.failure == "belt"
    assert verdict.belt_length == 8


def test_central_symmetry_failure_detected():
    # a triangle-ish cut square is not centrally symmetric
    h = hpolytope(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), F(3, 2))])
    v = enumerate_vertices(h)
    assert prune_to_facets(v).hpoly is not None
    verdict = is_parallelotope(v)
    assert not verdict.ok and verdict.failure == "central-symmetry"


def test_hv_roundtrip_catalog():
    # every inequality of a cell is a facet and its normal is recoverable
    # from the tight vertices alone, up to positive scaling
    for name, n, _ in lattice.catalog_entries(max_dim=4):
        v = cell_of(name, n)
        assert set(v.facet_ids) == set(range(len(v.hpoly.ineqs)))
        for i in v.facet_ids:
            pts = [v.vertices[j] for j in v.incidence[i]]
            normals = null_basis(affine_direction_space(pts), v.dim)
            assert len(normals) == 1
            # integer_rref scales a row to the primitive one with a positive pivot
            got = linalg.integer_rref([linalg.scale_to_integers(normals[0])[0]])
            assert got == linalg.integer_rref([v.hpoly.ineqs[i].normal])


def test_vertex_central_symmetry():
    for name, n in [("Zn", 3), ("An", 3), ("Dn", 4)]:
        v = cell_of(name, n)
        vset = set(v.vertices)
        assert all(linalg.vneg(x) in vset for x in v.vertices)


def test_facet_centroid_is_Ap():
    for name, n in [("Zn", 2), ("An", 2), ("An", 3), ("Dn", 4)]:
        a = catalog(name, n)
        v = cell_of(name, n)
        for i in v.facet_ids:
            p = v.hpoly.ineqs[i].normal
            ap = linalg.mat_vec(a.gram, p)
            pts = [v.vertices[j] for j in v.incidence[i]]
            centroid = linalg.vscale(F(1, len(pts)), __import__("functools").reduce(linalg.vadd, pts))
            assert centroid == ap
            pset = set(pts)
            assert all(tuple(2 * c - y for c, y in zip(ap, x)) in pset for x in pts)


def test_belt_parity_catalog():
    for name, n, _ in lattice.catalog_entries(max_dim=4):
        v = cell_of(name, n)
        assert all(b.length in (4, 6) for b in belts(v)), (name, n)


def test_irreducibility_examples():
    g = irreducibility_graph(cell_of("Zn", 2))
    assert len(g.pairs) == 2 and g.edges == () and not g.connected
    g = irreducibility_graph(cell_of("An", 2))
    assert len(g.pairs) == 3 and len(g.edges) == 3 and g.connected
    g = irreducibility_graph(cell_of("Zn", 3))
    assert len(g.pairs) == 3 and g.edges == () and not g.connected


def test_irreducibility_needs_parallelotope():
    h = hpolytope(
        2,
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
         ((1, 1), F(3, 2)), ((-1, -1), F(3, 2)), ((1, -1), F(3, 2)), ((-1, 1), F(3, 2))],
    )
    with pytest.raises(NotParallelotopeError):
        irreducibility_graph(enumerate_vertices(h))


def test_shadow_boundary_square_diagonal():
    sq = cell_of("Zn", 2)
    sb = shadow_boundary(sq, (1, 1))
    assert all(not f.parallel for f in sb)
    got = sorted(sq.vertices[f.face.vertex_ids[0]] for f in sb)
    assert got == [linalg.vec((-1, 1)), linalg.vec((1, -1))]


def test_shadow_boundary_square_axis():
    sq = cell_of("Zn", 2)
    sb = shadow_boundary(sq, (0, 1))
    assert len(sb) == 2 and all(f.parallel and f.face.dim == 1 for f in sb)


def test_shadow_boundary_cube():
    cube = cell_of("Zn", 3)
    sb = shadow_boundary(cube, (0, 0, 1))
    facets = [f for f in sb if f.face.dim == 2]
    edges = [f for f in sb if f.face.dim == 1]
    assert len(facets) == 4 and len(edges) == 4
    assert all(f.parallel for f in sb)


def test_shadow_boundary_facets_iff_orthogonal_normal():
    v = cell_of("An", 3)
    e = (0, 0, 1)
    sb_facets = {f.face.facets for f in shadow_boundary(v, e) if f.face.dim == 2}
    for i in v.facet_ids:
        n = v.hpoly.ineqs[i].normal
        in_sb = facet_face(v, i).facets in sb_facets
        assert in_sb == (linalg.dot(n, e) == 0)


def test_classify_face_examples():
    sq = cell_of("Zn", 2)
    edge = contact_face(sq, (1, 0), 1)
    vert = contact_face(sq, (1, -1), 2)
    assert classify_face(sq, edge, (0, 1)) == polytope.PARALLEL_EXTENSION
    assert classify_face(sq, edge, (1, 1)) == polytope.SHIFT
    assert classify_face(sq, vert, (1, 1)) == polytope.DIRECT_SUM


def test_adjacency_examples():
    z2 = catalog("Zn", 2)
    sq = cell_of("Zn", 2)
    assert adjacency_check(z2, sq, (1, 0))
    with pytest.raises(NotFacetNormalError):
        adjacency_check(z2, sq, (1, 1))
    a2 = catalog("An", 2)
    assert adjacency_check(a2, cell_of("An", 2), (1, 0))


def test_adjacency_all_catalog_facets():
    for name, n in [("Zn", 2), ("An", 3), ("An*", 3), ("Dn", 4)]:
        a = catalog(name, n)
        v = cell_of(name, n)
        for p in coset_minima(a).facet_normals():
            assert adjacency_check(a, v, p), (name, p)


def test_prune_drops_redundant():
    h = hpolytope(
        2,
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
         ((1, 1), 5), ((-1, -1), 5)],
    )
    v = enumerate_vertices(h)
    pruned = prune_to_facets(v)
    assert len(pruned.hpoly.ineqs) == 4
    assert pruned.vertices == v.vertices


def test_segment_degenerate_vrep():
    # zero-support pairs give a flat cell; rank detection keeps it exact
    h = hpolytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 2)])
    v = enumerate_vertices(h)
    assert v.vertices == (linalg.vec((0, -2)), linalg.vec((0, 2)))
    assert v.affine_rank == 1


def test_one_dimensional_cell():
    v = cell_of("Zn", 1)
    assert v.vertices == (linalg.vec((-1,)), linalg.vec((1,)))
    assert belts(v) == ()
    assert is_parallelotope(v).ok
    assert irreducibility_graph(v).connected  # a segment is irreducible


def _dot_tights(v):
    """Tight sets recomputed from scratch: <n_i, x> == s_i for every vertex x."""
    return tuple(
        frozenset(i for i, iq in enumerate(v.hpoly.ineqs) if linalg.dot(iq.normal, x) == iq.support)
        for x in v.vertices
    )


def _segment_sums(pruned=True):
    """D4 and A3 plus a segment along a dual-set and a non-dual e, pruned or as enumerated."""
    out = []
    keep = prune_to_facets if pruned else (lambda v: v)
    with mock.patch.object(extension, "prune_to_facets", keep):
        for name, n in [("Dn", 4), ("An", 3)]:
            a = catalog(name, n)
            cell = voronoi_cell(a)
            free = extension.dual_set(coset_minima(a).facet_normals()).members[0]
            for e in (free, (1, 2) + (0,) * (n - 2)):
                out.append(extension.sum_with_segment(cell, extension.Direction(e, F(1, 2))))
    return out


def test_integer_vertex_data_is_canonical():
    # check_theorem compares (scale, points), so they must depend on the vertex set alone
    form = jsonio.form_from_dict(json.loads((Path(__file__).parent / "data" / "form_d4_mixed.json").read_text()))
    mixed = voronoi_cell(form)
    assert {x.denominator for p in mixed.vertices for x in p} == {1, 3, 5, 15}
    cells = [cell_of(name, n) for name, n, _ in lattice.catalog_entries(max_dim=4)]
    for v in cells + [mixed] + _segment_sums(pruned=False):
        assert v.scale == lcm(*(x.denominator for p in v.vertices for x in p))
        assert all(type(c) is int for p in v.points for c in p)
        assert v.points == tuple(tuple(v.scale * x for x in p) for p in v.vertices)
        pruned = prune_to_facets(v)
        assert (pruned.scale, pruned.points) == (v.scale, v.points)
        assert pruned.vertices == v.vertices


def _flat_segment_cells():
    """Segments as cells over all contact vectors: many inequalities share both vertices."""
    out = []
    for name, n in [("An", 2), ("Zn", 3), ("Dn", 4)]:
        cs = coset_minima(catalog(name, n))
        for e in extension.dual_set(cs.facet_normals()).members[:2]:
            h = segment_as_polytope(extension.Direction(e, F(1, 2)), cs.contact_vectors())
            out.append(enumerate_vertices(h))
    return out


def _contact_cells():
    """Cells over all contact vectors: the non-facet ones are redundant but touch lower faces."""
    out = []
    for name, n in [("Zn", 3), ("An", 3), ("Dn", 4)]:
        a = catalog(name, n)
        out.append(enumerate_vertices(build_cell(a, coset_minima(a).contact_vectors())))
    return out


def _redundant_square():
    return enumerate_vertices(hpolytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 5), ((-1, -1), 5)]
    ))


def test_prune_tight_sets_match_dot_products():
    cells = [prune_to_facets(cell_of(name, n)) for name, n, _ in lattice.catalog_entries(max_dim=4)]
    cells += _segment_sums() + [prune_to_facets(_redundant_square())]
    for v in cells:
        assert v.tights == _dot_tights(v)
        assert v.facet_ids == tuple(range(len(v.hpoly.ineqs)))
    for v in _segment_sums(pruned=False) + _contact_cells() + _flat_segment_cells():
        assert v.tights == _dot_tights(v)


def test_faces_match_affine_dimension_oracle():
    cells = [cell_of(name, n) for name, n, _ in lattice.catalog_entries(max_dim=4)]
    cells += _segment_sums(pruned=False) + _contact_cells() + _flat_segment_cells()
    cells.append(_redundant_square())
    for v in cells:
        d = v.dim
        assert v.affine_rank == len(affine_direction_space(v.vertices))
        on = [
            [x for x in v.vertices if sum(a * b for a, b in zip(iq.normal, x)) == iq.support]
            for iq in v.hpoly.ineqs
        ]
        assert v.facet_ids == tuple(
            i for i, pts in enumerate(on) if pts and len(affine_direction_space(pts)) == d - 1
        )
        for f in codim2_faces(v):
            want = affine_direction_space([v.vertices[j] for j in f.vertex_ids])
            assert f.dim == len(want) == d - 2
            assert _as_rref(f.direction_space) == tuple(tuple(r) for r in want)


def _as_rref(space):
    """Primitive integer RREF rows, checked as such, as the Fraction RREF: each row over its pivot."""
    pivots = [next(y for y in r if y) for r in space]
    assert all(type(x) is int for r in space for x in r)
    assert all(gcd(*r) == 1 and p > 0 for r, p in zip(space, pivots))
    return tuple(tuple(F(x, p) for x in r) for r, p in zip(space, pivots))


def _rationals(lo, hi):
    """Rationals n/q with q in {1, 3, 5, 7} and lo <= n <= hi."""
    return st.builds(F, st.integers(lo, hi), st.sampled_from((1, 3, 5, 7)))


@st.composite
def symmetric_hpolytopes(draw, d):
    """Centrally symmetric H-polytopes of dimension d with mixed denominators.

    A box makes the system bounded.  On top of it come random cuts, a cut
    along a (d-2)-face of the box that often stays tight on all of it, one
    far redundant pair, a positively parallel duplicate of one of these and,
    sometimes, a zero-width slab pair that flattens the polytope.
    """
    pairs = []

    def pair(n, s):
        pairs.extend([(n, s), (tuple(-x for x in n), s)])

    box = [draw(_rationals(1, 6)) for _ in range(d)]
    for i, s in enumerate(box):
        pair(tuple(F(int(j == i)) for j in range(d)), s)
    for _ in range(draw(st.integers(1, 5 - d))):
        n = tuple(draw(st.lists(_rationals(-3, 3), min_size=d, max_size=d)))
        if any(n):
            pair(n, draw(_rationals(1, 8)))
    i, j = draw(st.permutations(range(d)))[:2]
    pair(tuple(F(int(k in (i, j))) for k in range(d)), box[i] + box[j] - draw(_rationals(0, 1)))
    pair(tuple(F(k + 1) for k in range(d)), F(100))
    n, s = pairs[draw(st.integers(0, len(pairs) - 1))]
    scale = draw(st.sampled_from((F(2), F(3, 2), F(5, 7))))
    pair(tuple(scale * x for x in n), scale * s * draw(st.sampled_from((F(1, 2), F(1), F(4, 3)))))
    if draw(st.booleans()):
        pair(tuple(draw(st.lists(_rationals(-2, 2), min_size=d, max_size=d).filter(any))), F(0))
    return hpolytope(d, pairs)


# the oracle solves every d-subset of inequalities in Fractions, so d = 4 gets few examples
@pytest.mark.parametrize("d, examples", [(2, 40), (3, 30), (4, 8)])
def test_enumerate_vertices_matches_oracle_on_random_symmetric_systems(d, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(symmetric_hpolytopes(d))
    def check(h):
        v = enumerate_vertices(h)
        assert v.vertices == brute_force_vertices(h)
        assert v.tights == _dot_tights(v)

    check()


def test_enumerate_vertices_matches_oracle_on_non_simple_systems():
    # only between two vertices tight on more than d rows each do the count and the
    # meet test run; a meet decides when d - 1 common rows are dependent, as at a
    # redundant row through a lower face or in a flat cell, which random systems draw rarely
    octahedron = hpolytope(3, [(s, 1) for s in itertools.product((1, -1), repeat=3)])
    d4 = catalog("Dn", 4)
    cell = voronoi_cell(d4).hpoly  # the 24-cell
    over_contacts = build_cell(d4, coset_minima(d4).contact_vectors())  # the same cell, 48 rows
    flat = hpolytope(4, [(tuple(int(j == i) * sign for j in range(4)), 1) for i in range(4) for sign in (1, -1)]
                     + [((1, 2, 3, 4), 0), ((-1, -2, -3, -4), 0)])
    for systems, oracle in [([octahedron], octahedron), ([cell, over_contacts], cell), ([flat], flat)]:
        want = brute_force_vertices(oracle)
        for h in systems:
            v = enumerate_vertices(h)
            assert any(len(t) > h.dim for t in v.tights)
            assert v.vertices == want
            assert v.tights == _dot_tights(v)


def _drawn_empty_system():
    """An empty system that symmetric_hpolytopes(3) drew for an earlier form of the ridge test.

    3x + 3z <= -24/35 and -3x - 3z <= -24/35 cannot both hold.
    """
    pairs = [((3, 0, 3), F(-24, 35)), ((1, 2, 3), 100), ((1, 0, 0), F(2, 5)),
             ((1, -1, 5), F(20, 3)), ((0, 1, 0), 1), ((0, 0, 1), F(3, 7))]
    return hpolytope(3, pairs + [(tuple(-x for x in n), s) for n, s in pairs])


def test_empty_systems_raise():
    # the slab x + y <= -1, x + y >= 1 is empty; the second system leaves the ray
    # at infinity (0, -1), so its emptiness shows only after the last row
    for h in [
        hpolytope(2, [((1, 1), -1), ((-1, -1), -1), ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]),
        hpolytope(2, [((1, 0), -1), ((-1, 0), -1), ((0, 1), 1)]),
        _drawn_empty_system(),
    ]:
        assert brute_force_vertices(h) == ()
        with pytest.raises(EmptyPolytopeError):
            enumerate_vertices(h)


def test_triangle_has_no_opposite_pairs():
    h = hpolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    assert enumerate_vertices(h).vertices == ((0, 0), (0, 1), (1, 0))
    # without x + y <= 1 but with x <= 1 the normals span and the strip is unbounded
    with pytest.raises(UnboundedCellError):
        enumerate_vertices(hpolytope(2, [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1)]))


def _ridge_oracle_cells():
    """(cell, whether it is a parallelotope) for the cells of the face oracle test."""
    cells = [(cell_of(name, n), True) for name, n, _ in lattice.catalog_entries(max_dim=4)]
    # _segment_sums alternates a dual-set direction, whose sum tiles, and one that does not
    cells += [(v, k % 2 == 0) for k, v in enumerate(_segment_sums(pruned=False))]
    cells += [(v, True) for v in _contact_cells() + _flat_segment_cells() + [_redundant_square()]]
    return cells


def _check_ridges_and_belts(v, parallelotope):
    """Ridges and belts against faces found from vertex coordinates alone."""
    d = v.dim

    def prod(u, x):
        return sum(a * b for a, b in zip(u, x))

    def dim(ids):
        return len(affine_direction_space([v.vertices[j] for j in sorted(ids)]))

    def parallel(i, space):
        return all(prod(r, v.hpoly.ineqs[i].normal) == 0 for r in space)

    on = [frozenset(j for j, x in enumerate(v.vertices) if prod(iq.normal, x) == iq.support) for iq in v.hpoly.ineqs]

    facets = [i for i, ids in enumerate(on) if ids and dim(ids) == d - 1]
    # every facet pair whose common vertices span a (d-2)-face: none may be missing
    want = {tuple(sorted(on[i] & on[j])) for i, j in itertools.combinations(facets, 2) if on[i] & on[j]}
    want = sorted(ids for ids in want if dim(ids) == d - 2)
    ridges = codim2_faces(v)
    assert [f.vertex_ids for f in ridges] == want
    # the belts partition the ridges by the oracle's direction spaces
    by_space = {}
    for ids in want:
        space = tuple(tuple(r) for r in affine_direction_space([v.vertices[j] for j in ids]))
        by_space.setdefault(space, []).append(ids)
    bs = belts(v)
    assert sorted(fi for b in bs for fi in b.face_ids) == list(range(len(ridges)))
    assert {_as_rref(b.direction_space): [ridges[fi].vertex_ids for fi in b.face_ids] for b in bs} == by_space
    # belts are ordered by the Fraction RREF of their direction spaces, which belt_index reports
    spaces = [_as_rref(b.direction_space) for b in bs]
    assert spaces == sorted(spaces)
    for b in bs:
        # a belt's facets are the facets on its ridges, all parallel to its direction space
        on_ridges = sorted({i for fi in b.face_ids for i in facets if on[i].issuperset(ridges[fi].vertex_ids)})
        assert sorted(b.facet_ids) == on_ridges
        assert all(parallel(i, b.direction_space) for i in on_ridges)
        if parallelotope:
            # and on a parallelotope every facet parallel to it is on the belt; on other
            # cells a facet may be parallel without containing a ridge of that direction
            assert on_ridges == [i for i in facets if parallel(i, b.direction_space)]


def test_ridges_complete_and_belts_partition_them():
    for v, parallelotope in _ridge_oracle_cells():
        _check_ridges_and_belts(v, parallelotope)


@pytest.mark.parametrize("d, examples", [(3, 30), (4, 10)])
def test_ridges_and_belts_match_oracle_on_random_symmetric_systems(d, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(symmetric_hpolytopes(d))
    def check(h):
        # the strategy can draw an empty system; then the oracle finds no vertex
        if not brute_force_vertices(h):
            with pytest.raises(EmptyPolytopeError):
                enumerate_vertices(h)
            return
        v = enumerate_vertices(h)
        assert all(sum(map(mul, iq.normal, x)) <= iq.support for x in v.vertices for iq in h.ineqs)
        _check_ridges_and_belts(v, parallelotope=False)

    if d == 3:
        check = example(_drawn_empty_system())(check)
    check()


def _pinned_systems(d):
    """Symmetric systems of dimension d where counting facets on a face and ranking it could disagree."""

    def symmetric(pairs):
        return hpolytope(d, pairs + [(tuple(-x for x in n), s) for n, s in pairs])

    box = [(tuple(int(j == i) for j in range(d)), 1) for i in range(d)]
    cut = tuple(int(k < 2) for k in range(d))
    return [
        # a zero-width slab: the cell is flat, its one facet on both slab inequalities
        symmetric(box + [(tuple(range(1, d + 1)), 0)]),
        # a positively parallel duplicate of a chamfer, which hpolytope merges
        symmetric(box + [(cut, F(3, 2)), (tuple(2 * x for x in cut), 3)]),
        # a redundant cut tight along a (d-2)-face of the box: a ridge on three inequalities
        symmetric(box + [(cut, 2)]),
    ]


@pytest.mark.parametrize("d, examples", [(2, 40), (3, 30), (4, 10)])
def test_counted_facets_and_ridges_match_oracle_on_random_symmetric_systems(d, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(symmetric_hpolytopes(d))
    def check(h):
        try:
            v = enumerate_vertices(h)
        except EmptyPolytopeError:
            assert brute_force_vertices(h) == ()
            return
        on = [
            frozenset(j for j, x in enumerate(v.vertices) if sum(map(mul, iq.normal, x)) == iq.support)
            for iq in h.ineqs
        ]

        def dim(ids):
            return len(affine_direction_space([v.vertices[j] for j in sorted(ids)]))

        facets = tuple(i for i, ids in enumerate(on) if ids and dim(ids) == d - 1)
        assert v.facet_ids == facets
        for f in codim2_faces(v):
            want = affine_direction_space([v.vertices[j] for j in f.vertex_ids])
            assert f.facets == tuple(i for i in facets if on[i].issuperset(f.vertex_ids))
            assert f.dim == len(want) == d - 2
            assert _as_rref(f.direction_space) == tuple(tuple(r) for r in want)
        # vertex ids of every ridge, none missing, and the belts' grouping and facets
        _check_ridges_and_belts(v, parallelotope=False)

    for h in _pinned_systems(d):
        check = example(h)(check)
    check()


def test_flat_and_one_dimensional_cells_have_no_ridges():
    # at d = 1 two facets share no vertex, and no vertex is no ridge; a flat cell's
    # facets are the inequalities tight everywhere, and a cell below d - 1 has none
    point = enumerate_vertices(hpolytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]))
    cells = [cell_of("Zn", 1), point] + _flat_segment_cells()
    assert [v.affine_rank for v in cells] == [1, 0, 1, 1, 1, 1, 1, 1]
    assert [v.facet_ids for v in cells] == [(0, 1), (), (2, 3), (0, 5), (), (), (), ()]
    for v in cells:
        assert codim2_faces(v) == () and belts(v) == ()


def _unimodular(d):
    """(U, U^-1) pairs: a shear, and a signed cyclic shift times a shear, each inverted factor by factor."""
    eye = [[int(i == j) for j in range(d)] for i in range(d)]

    def shear(i, j, c):
        m = [row[:] for row in eye]
        m[i][j] = c
        return m

    shift = [eye[(i + 1) % d] for i in range(d)]
    sign = [[-x if i == 0 else x for x in row] for i, row in enumerate(eye)]
    u = mat_mul(mat_mul(shift, sign), shear(d - 1, 0, 2))
    u_inv = mat_mul(mat_mul(shear(d - 1, 0, -2), sign), list(zip(*shift)))
    return [(shear(0, 1, 1), shear(0, 1, -1)), (u, u_inv)]


def _apply(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def test_gl_d_z_change_of_basis_keeps_the_cell_combinatorics():
    # A' = U^T A U is the same lattice in the basis U, and its cell is U^T times the cell
    for name, n, a in lattice.catalog_entries(max_dim=4):
        normals = coset_minima(a).facet_normals()
        members = extension.dual_set(normals).members
        v = voronoi_cell(a)
        for u, u_inv in _unimodular(n):
            assert mat_mul(u, u_inv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            ut = tuple(zip(*u))
            a2 = lattice.make_form(mat_mul(mat_mul(ut, a.gram), u))
            normals2 = coset_minima(a2).facet_normals()
            assert normals2 == tuple(sorted(_apply(u_inv, p) for p in normals))
            assert extension.dual_set(normals2).members == tuple(sorted(_apply(ut, e) for e in members))
            v2 = voronoi_cell(a2)
            assert len(codim2_faces(v2)) == len(codim2_faces(v))
            assert Counter(b.length for b in belts(v2)) == Counter(b.length for b in belts(v))
            assert irreducibility_graph(v2).connected == irreducibility_graph(v).connected
            for e in (members[0], (1, 2) + (0,) * (n - 2)):
                r = extension.check_theorem(a, e, [1])
                r2 = extension.check_theorem(a2, _apply(ut, e), [1])
                assert r.invariant_violations == r2.invariant_violations == ()
                assert r2.normalized_e == (None if r.normalized_e is None else _apply(ut, r.normalized_e))
                assert (r2.in_dual_set, r2.irreducible_input, r2.theorem_silent) == (
                    r.in_dual_set, r.irreducible_input, r.theorem_silent
                )
                assert [(x.equal, x.parallelotope.ok, x.parallelotope.failure) for x in r2.results] == [
                    (x.equal, x.parallelotope.ok, x.parallelotope.failure) for x in r.results
                ]


def _minors(p, q):
    return [p[i] * q[j] - p[j] * q[i] for i, j in itertools.combinations(range(len(p)), 2)]


def _independent_pairs():
    """Integer rows p, q of one length from 2 to 8 with a nonzero 2x2 minor, zero entries weighted up."""
    def pairs(d):
        row = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=d, max_size=d).map(tuple)
        return st.tuples(row, row)

    return st.integers(2, 8).flatmap(pairs).filter(lambda pq: any(_minors(*pq)))


# a derandomized draw changes whenever the check's body does, so the cases of the closed form are pinned
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_independent_pairs())
@example(((1, 0), (0, 1)))  # d = 2: the space is {0}
@example(((1, 2, 0, 0), (3, 1, 0, 0)))  # trailing zero columns, past b, give unit rows
@example(((1, 0, 0, 1), (0, 1, 0, 1)))  # a = 1 != b - 1 = 2, as m(2, 3) = 0
@example(((2, 1, 1), (1, 1, 0)))  # m(a, b) = m(1, 2) = -1
@example(((1, 0, 0), (0, 0, 1)))  # the free column a = 0 before the pivot column 1
def test_belt_space_matches_the_null_space_rref(pq):
    p, q = pq
    space, free = polytope._belt_space(p, q)
    want = linalg.integer_rref(linalg.null_space([p, q], len(p)))
    assert space == want
    pivots = [next(j for j, x in enumerate(r) if x) for r in want]
    assert list(free) == [j for j in range(len(p)) if j not in pivots]


def test_one_direction_space_per_belt(monkeypatch):
    # the ridges of one belt share its direction space, formed once, from its first ridge's facet normals
    a4 = catalog("An*", 4)
    d4 = catalog("Dn", 4)
    e = extension.dual_set(coset_minima(d4).facet_normals()).members[0]
    summed = extension.sum_with_segment(voronoi_cell(d4), extension.Direction(e, F(1, 2)))
    calls = Counter()
    fn = polytope._belt_space
    monkeypatch.setattr(polytope, "_belt_space", lambda *a: calls.update(["belt_space"]) or fn(*a))
    for v in (voronoi_cell(a4), summed):
        calls.clear()
        got = belts(v)
        assert calls["belt_space"] == len(got)
        assert len(codim2_faces(v)) > len(got) > 0


def test_enumerate_vertices_calls_no_rational_kernel(monkeypatch):
    # the double description runs on integer rows: no Fraction dot products,
    # and the seed cone, one adjugate of d + 1 rows, needs no linear solves
    a4 = catalog("An*", 4)
    systems = [build_cell(a4, coset_minima(a4).facet_normals())]
    d4 = catalog("Dn", 4)
    e = extension.dual_set(coset_minima(d4).facet_normals()).members[0]
    with mock.patch.object(extension, "enumerate_vertices", wraps=enumerate_vertices) as record:
        summed = extension.sum_with_segment(voronoi_cell(d4), extension.Direction(e, F(1, 2)))
    systems.append(record.call_args.args[0])
    calls = Counter()
    for name in ("dot", "solve_linear"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
    out = [enumerate_vertices(h) for h in systems]
    assert calls == Counter()
    assert len(out[0].vertices) == 120  # the A4* cell is the permutohedron
    assert out[1].vertices == summed.vertices


def test_codim2_faces_computed_once_per_cell():
    v = cell_of("An", 3)
    assert codim2_faces(v) is codim2_faces(v)


def test_belts_computed_once_per_cell():
    v = cell_of("Dn", 4)
    assert belts(v) is belts(v)


def test_tiling_verdict_computed_once_per_cell(monkeypatch):
    # `verify` asks for the verdict twice, directly and through irreducibility_graph
    calls = Counter()
    fn = polytope.belts
    monkeypatch.setattr(polytope, "belts", lambda v: calls.update(["belts"]) or fn(v))
    octagon = hpolytope(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), F(3, 2)), ((1, -1), F(3, 2))]
                        + [((-1, 0), 1), ((0, -1), 1), ((-1, -1), F(3, 2)), ((-1, 1), F(3, 2))])
    for v in (cell_of("Dn", 4), enumerate_vertices(octagon)):
        calls.clear()
        first = is_parallelotope(v)
        assert calls["belts"] == 1
        assert is_parallelotope(v) is first
        assert calls["belts"] == 1
    assert first.failure == "belt"


def _belts_off_entries():
    """Belt cycles of the catalog cells with d <= 4 and of D4 and A3 plus every
    dual-set segment, with the OFF text of the cells with d <= 3."""
    out = []
    for name, n, a in lattice.catalog_entries(max_dim=4):
        v = voronoi_cell(a)
        entry = {"name": name, "n": n, "belts": [list(b.facet_ids) for b in belts(v)]}
        if n <= 3:
            entry["off"] = jsonio.to_off(v)
        out.append(entry)
    for name, n in [("Dn", 4), ("An", 3)]:
        a = catalog(name, n)
        cell = voronoi_cell(a)
        for e in extension.dual_set(coset_minima(a).facet_normals()).members:
            v = extension.sum_with_segment(cell, extension.Direction(e, F(1, 2)))
            out.append({"name": name, "n": n, "e": list(e), "b": "1/2",
                        "belts": [list(b.facet_ids) for b in belts(v)]})
    return out


def test_belt_cycles_and_off_golden():
    # belt order and starting facet reach converse `check` JSON as belt_index,
    # and OFF face winding is output too; neither is pinned by another test
    golden = Path(__file__).parent / "data" / "belts_off.json"
    text = "[\n" + ",\n".join(json.dumps(x) for x in _belts_off_entries()) + "\n]\n"
    assert text == golden.read_text()
