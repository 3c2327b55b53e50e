import random
from fractions import Fraction as F

import pytest

from oracles import brute_force_vertices
from voroseg import extension, lattice, linalg, polytope
from voroseg.lattice import catalog, coset_minima
from voroseg.polytope import (
    NotFacetNormalError,
    NotParallelotopeError,
    UnboundedCellError,
    VRepCapError,
    adjacency_check,
    belts,
    build_cell,
    codim2_faces,
    contact_face,
    enumerate_vertices,
    facet_face,
    hpolytope,
    irreducibility_graph,
    is_parallelotope,
    classify_face,
    prune_to_facets,
    shadow_boundary,
    support_value,
    voronoi_cell,
)


def cell_of(name, n=None, cap=5):
    return voronoi_cell(catalog(name, n), cap=cap)


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


def test_vrep_cap():
    with pytest.raises(VRepCapError):
        cell_of("E6", cap=5)


def test_support_value_examples():
    sq = cell_of("Zn", 2)
    assert support_value(sq, (1, 1)) == 2
    assert support_value(sq, (1, 0)) == 1
    hexagon = cell_of("An", 2)
    assert support_value(hexagon, (1, 0)) == 2


def test_contact_face_examples():
    sq = cell_of("Zn", 2)
    edge = contact_face(sq.hpoly, sq, (1, 0), 1)
    assert edge.dim == 1 and len(edge.vertex_ids) == 2
    vert = contact_face(sq.hpoly, sq, (1, 1), 2)
    assert vert.dim == 0
    assert sq.vertices[vert.vertex_ids[0]] == linalg.vec((1, 1))
    assert contact_face(sq.hpoly, sq, (1, 0), 2) is None


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
            base = pts[0]
            span = tuple(linalg.vsub(p, base) for p in pts[1:])
            normals = linalg.null_space(linalg.rref(span), v.dim)
            assert len(normals) == 1
            got, _ = linalg.primitive_direction(normals[0])
            want, _ = linalg.primitive_direction(v.hpoly.ineqs[i].normal)
            assert got == want or got == tuple(-x for x in want)


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
            assert all(linalg.vsub(linalg.vscale(2, ap), x) in pset for x in pts)


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
    edge = contact_face(sq.hpoly, sq, (1, 0), 1)
    vert = contact_face(sq.hpoly, sq, (1, -1), 2)
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


def test_prune_tight_sets_match_dot_products():
    cells = [prune_to_facets(cell_of(name, n)) for name, n, _ in lattice.catalog_entries(max_dim=4)]
    for name, n in [("Dn", 4), ("An", 3)]:
        a = catalog(name, n)
        cell = voronoi_cell(a)
        free = extension.dual_set(coset_minima(a).facet_normals()).members[0]
        for e in (free, (1, 2) + (0,) * (n - 2)):
            cells.append(extension.sum_with_segment(cell, extension.Direction(e, F(1, 2))))
    cells.append(prune_to_facets(enumerate_vertices(hpolytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 5), ((-1, -1), 5)]
    ))))
    for v in cells:
        assert v.tights == _dot_tights(v)
        assert v.facet_ids == tuple(range(len(v.hpoly.ineqs)))


def test_codim2_faces_computed_once_per_cell():
    v = cell_of("An", 3)
    assert codim2_faces(v) is codim2_faces(v)


def test_belts_computed_once_per_cell():
    v = cell_of("Dn", 4)
    assert belts(v) is belts(v)
