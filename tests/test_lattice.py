import itertools
import operator
import random
from fractions import Fraction as F

import pytest

from oracles import (
    NonIntegralLayerError,
    NotContactVectorError,
    box_scan_minima,
    commensurate,
    det,
    layer_index,
    mat_mul,
    random_unimodular,
)
from voroseg import lattice, linalg, polytope
from voroseg.lattice import (
    DimensionCapError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    UnknownLatticeError,
    catalog,
    coset_minima,
    eval_form,
    make_form,
)


def test_make_form_accepts_identity_and_a2():
    assert make_form([[1, 0], [0, 1]]).dim == 2
    assert make_form([[2, -1], [-1, 2]]).dim == 2


def test_make_form_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError):
        make_form([[1, 1], [1, 1]])
    with pytest.raises(NotSymmetricError):
        make_form([[1, 2], [0, 1]])
    with pytest.raises(NotSymmetricError):
        make_form([[1, 0, 0], [0, 1, 0]])


def test_one_ldl_per_form(monkeypatch):
    # make_form's positive-definiteness test factors the Gram; the minima search reuses it
    calls = []
    fn = linalg.ldl
    monkeypatch.setattr(linalg, "ldl", lambda m: calls.append(m) or fn(m))
    a = make_form([[2, -1, 0], [-1, 2, -1], [0, -1, 3]])
    lattice.coset_minima.__wrapped__(a)  # past the memo, which could answer without a search
    assert calls == [a.gram]


def test_eval_form_examples():
    z2 = catalog("Zn", 2)
    a2 = catalog("An", 2)
    assert eval_form(z2, (1, 1)) == 2
    assert eval_form(a2, (1, 1)) == 2
    assert eval_form(a2, (1, -1)) == 6


def test_catalog_basics():
    assert catalog("Zn", 2).gram == linalg.identity(2)
    assert catalog("An", 2).gram == linalg.mat([[2, -1], [-1, 2]])
    with pytest.raises(UnknownLatticeError):
        catalog("Qn", 2)
    with pytest.raises(UnknownLatticeError):
        catalog("Dn", 2)
    with pytest.raises(UnknownLatticeError):
        catalog("E6", 7)
    with pytest.raises(UnknownLatticeError):
        catalog("An")


def test_catalog_determinants():
    # Cartan determinants: A_n -> n+1, D_n -> 4, E6 -> 3, E7 -> 2, E8 -> 1
    assert det(catalog("An", 3).gram) == 4
    assert det(catalog("Dn", 4).gram) == 4
    assert det(catalog("E6").gram) == 3
    assert det(catalog("E7").gram) == 2
    assert det(catalog("E8").gram) == 1
    assert det(catalog("E6*").gram) == F(1, 3)


def test_catalog_dual_min_norms():
    # known minima: A_n* -> n/(n+1), E6* -> 4/3, D4* -> 1
    for name, n, expect in [("An*", 2, F(2, 3)), ("An*", 3, F(3, 4)), ("Dn*", 4, 1), ("E6*", 6, F(4, 3))]:
        cs = coset_minima(catalog(name, n))
        assert min(cl.min_norm for cl in cs.classes) == expect


def test_coset_minima_square():
    cs = coset_minima(catalog("Zn", 2))
    by_parity = {cl.parity: cl for cl in cs.classes}
    assert by_parity[(1, 0)].minima == ((-1, 0), (1, 0))
    assert by_parity[(1, 0)].relevant
    assert by_parity[(0, 1)].relevant
    diag = by_parity[(1, 1)]
    assert diag.minima == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    assert not diag.relevant


def test_coset_minima_a2():
    cs = coset_minima(catalog("An", 2))
    assert all(cl.relevant for cl in cs.classes)
    assert cs.facet_normals() == (
        (-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1),
    )


def test_coset_minima_d4_facets():
    cs = coset_minima(catalog("Dn", 4))
    assert len(cs.facet_normals()) == 24


def test_e7_facet_normals_are_the_roots():
    a = catalog("E7")
    cs = coset_minima(a)
    normals = cs.facet_normals()
    assert len(normals) == 126
    assert all(eval_form(a, p) == 2 for p in normals)


def test_e8_facet_normals_at_dim_cap():
    a = catalog("E8")
    normals = coset_minima(a).facet_normals()
    assert len(normals) == 240
    assert all(eval_form(a, p) == 2 for p in normals)


def test_coset_minima_dimension_cap():
    with pytest.raises(DimensionCapError):
        coset_minima(catalog("Zn", 9))


def test_classes_partition_and_negation_closure():
    cs = coset_minima(catalog("An*", 3))
    seen = set()
    for cl in cs.classes:
        for p in cl.minima:
            assert tuple(-x for x in p) in cl.minima
            assert tuple(x % 2 for x in p) == cl.parity
            assert p not in seen
            seen.add(p)
    assert len(cs.classes) == 2 ** 3 - 1


def test_facet_count_bound():
    for name, n in [("Zn", 2), ("An", 3), ("Dn", 4), ("An*", 3)]:
        a = catalog(name, n)
        assert len(coset_minima(a).facet_normals()) <= 2 * (2 ** a.dim - 1)


def test_oracle_equivalence_random_forms():
    from oracles import random_pd_form_box6

    rng = random.Random(2024)
    for d in (2, 3, 4):
        for _ in range(4):
            a = random_pd_form_box6(rng, d)
            cs = coset_minima(a)
            oracle = box_scan_minima(a.gram, 6)
            for cl in cs.classes:
                norm, minima = oracle[cl.parity]
                assert cl.min_norm == norm, (a.gram, cl.parity)
                assert cl.minima == minima, (a.gram, cl.parity)


def test_gl_d_z_change_of_basis_maps_every_class_minimum():
    # A' = U^T A U is the same lattice in the basis U: v is minimal in class p
    # under A iff U^-1 v is minimal in class U^-1 p mod 2 under A'.  Skewed
    # bases meet many classes' minima late, after their suffix maxima shrank.
    rng = random.Random(7)
    g = [[F(0)] * 7 for _ in range(7)]
    for i, j in itertools.combinations(range(7), 2):
        g[i][j] = g[j][i] = rng.choice([F(0), F(1, 2), F(-1, 2), F(1), F(-1)])
    for i in range(7):
        g[i][i] = 1 + sum(map(abs, g[i])) + rng.choice([0, F(1, 2)])
    forms = [catalog("E6"), catalog("E7*"), catalog("E8"), catalog("An*", 7), catalog("Dn", 8), make_form(g)]
    flags = set()
    for a in forms:
        cs = coset_minima(a)
        for _ in range(2):
            u, u_inv = random_unimodular(rng, a.dim, 2 * a.dim)
            cs2 = coset_minima(make_form(mat_mul(mat_mul(tuple(zip(*u)), a.gram), u)))
            assert len(cs2.classes) == len(cs.classes)
            for cl in cs.classes:
                cl2 = cs2.class_of(tuple(sum(map(operator.mul, row, cl.parity)) for row in u_inv))
                moved = [tuple(sum(map(operator.mul, row, v)) for row in u_inv) for v in cl.minima]
                assert cl2.min_norm == cl.min_norm, (a.gram, u, cl.parity)
                assert cl2.minima == tuple(sorted(moved)), (a.gram, u, cl.parity)
                assert cl2.relevant == cl.relevant, (a.gram, u, cl.parity)
                flags.add(cl.relevant)
    assert flags == {True, False}


def test_relevance_agrees_with_facet_geometry():
    # every flagged normal is a real facet, and contact vectors add none
    for name, n in [("Zn", 2), ("An", 2), ("An", 3), ("An*", 3), ("Dn", 4)]:
        a = catalog(name, n)
        cs = coset_minima(a)
        h = polytope.build_cell(a, cs.contact_vectors())
        v = polytope.enumerate_vertices(h)
        found = sorted(
            tuple(int(x) for x in h.ineqs[i].normal) for i in v.facet_ids
        )
        assert tuple(found) == cs.facet_normals()


def test_commensurate_examples():
    assert commensurate(catalog("Zn", 2), (1, 0)) == linalg.vec((2, 0))
    assert commensurate(catalog("An", 2), (1, 0)) == linalg.vec((4, -2))
    assert commensurate(catalog("Zn", 3), (1, 1, 0)) == linalg.vec((2, 2, 0))
    with pytest.raises(NotContactVectorError):
        commensurate(catalog("Zn", 2), (2, 1))


def test_commensurate_rejects_non_integral_vector():
    # truncating either to (1, 0) would answer (2, 0)
    for p in [(F(3, 2), 0), (1.9, 0)]:
        with pytest.raises(NotContactVectorError, match="is not a contact vector"):
            commensurate(catalog("Zn", 2), p)


def test_layer_index_examples():
    assert layer_index((1, 0), (3, 5)) == 3
    assert layer_index((1, 1), (2, -2)) == 0
    with pytest.raises(NonIntegralLayerError):
        layer_index((F(1, 2), 0), (1, 0))


def test_layer_partition_over_dual_set():
    from voroseg.extension import dual_set

    rng = random.Random(5)
    a = catalog("An", 3)
    ds = dual_set(coset_minima(a).facet_normals())
    for e in ds.members[:6]:
        for _ in range(200):
            v = tuple(rng.randint(-20, 20) for _ in range(3))
            layer_index(e, v)  # must not raise


def test_coset_minima_cache_is_bounded():
    assert coset_minima.cache_info().maxsize is not None
