import itertools
import operator
import random
from collections import Counter
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NormalSetMismatchError,
    SegmentHypothesisError,
    _free_against,
    a_e,
    affine_direction_space,
    box_scan_dual_set,
    brute_force_vertices,
    box_scan_minima,
    check_sum_against_candidates,
    det,
    f_e,
    lemma_l8_holds,
    line_vertices,
    p_e_set,
    random_pd_form_box6,
    random_unimodular,
    segment_as_polytope,
    sign_pattern_dual_set,
    subset_check,
    support_vertex_ids,
    vec,
    vscale,
)
from voroseg import extension, jsonio, lattice, linalg, polytope
from voroseg.extension import (
    CannotNormalizeError,
    Direction,
    ExtensionError,
    check_theorem,
    dual_set,
    normalize_direction,
    perturbed_form,
    sum_with_segment,
    voronoi_of_sum_form,
)
from voroseg.lattice import catalog, coset_minima, eval_form
from voroseg.polytope import build_cell, enumerate_vertices, is_parallelotope, voronoi_cell

Z2 = catalog("Zn", 2)
A2 = catalog("An", 2)
SQ_NORMALS = coset_minima(Z2).facet_normals()
A2_NORMALS = coset_minima(A2).facet_normals()


def test_f_e_examples():
    assert f_e((1, 0), Direction((0, 1), 1)) == 0
    assert f_e((3, 0), Direction((1, 1), 2)) == 6
    assert f_e((1, -1), Direction((1, 1), 5)) == 0


def test_a_e_examples():
    assert a_e((1, 0), Direction((1, 1), 1)) == 1
    d = Direction((1, 1), 1)
    assert a_e((2, 0), d) == 4 and f_e((2, 0), d) == 2  # why products must stay in {0,±1}
    assert a_e((1, -1), Direction((1, 1), 7)) == 0


def test_rank_one_bridge_on_p_e():
    for name, n in [("Zn", 2), ("An", 2), ("An", 3), ("Dn", 4)]:
        a = catalog(name, n)
        normals = coset_minima(a).facet_normals()
        for e in dual_set(normals).members:
            d = Direction(e, F(5, 3))
            for p in p_e_set(normals, e):
                assert f_e(p, d) == a_e(p, d)


def test_p_e_set_examples():
    assert p_e_set(SQ_NORMALS, (1, 1)) == tuple(sorted(SQ_NORMALS))
    assert p_e_set(SQ_NORMALS, (2, 1)) == ((0, -1), (0, 1))
    assert p_e_set(A2_NORMALS, (0, 1)) == tuple(sorted(A2_NORMALS))


def test_segment_as_polytope_examples():
    # the segment's system has supports 0, outside the double description's contract
    seg = segment_as_polytope(Direction((0, 1), 1), SQ_NORMALS)
    assert brute_force_vertices(seg) == (vec((0, -1)), vec((0, 1)))
    seg3 = segment_as_polytope(Direction((0, 1), 3), A2_NORMALS)
    assert brute_force_vertices(seg3) == line_vertices(seg3, (0, 1)) == (vec((0, -3)), vec((0, 3)))
    with pytest.raises(ValueError):  # the square has no rows of support 0 to hold it on a line
        line_vertices(polytope.hpolytope(2, [(p, 1) for p in SQ_NORMALS]), (0, 1))
    with pytest.raises(SegmentHypothesisError):
        segment_as_polytope(Direction((1, 1), 1), SQ_NORMALS)


def test_segment_recovery_all_catalog_dual_dirs():
    # bz(e) = P(f_e) over the contact-vector system, whose zero-product
    # vectors span the hyperplane orthogonal to e (facet normals alone
    # are too poor for that from d = 3 on)
    for name, n in [("Zn", 2), ("An", 2), ("Zn", 3), ("An", 3), ("An*", 3)]:
        a = catalog(name, n)
        cs = coset_minima(a)
        contacts = cs.contact_vectors()
        for e in dual_set(cs.facet_normals()).members:
            for b in (F(1, 2), F(1), F(3)):
                seg = segment_as_polytope(Direction(e, b), contacts)
                ev = vec(e)
                want = tuple(sorted([vscale(-b, ev), vscale(b, ev)]))
                assert line_vertices(seg, e) == want
                # solving every d-subset of rows takes a minute on Z^3's 26 contact vectors
                if n == 2:
                    assert brute_force_vertices(seg) == want


def test_dual_set_square():
    ds = dual_set(SQ_NORMALS)
    assert len(ds.members) == 8
    assert ds.members == tuple(
        sorted([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)])
    )


def test_dual_set_a2():
    ds = dual_set(A2_NORMALS)
    assert ds.members == tuple(sorted([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]))
    assert (1, 1) not in ds


def test_dual_set_closed_under_negation():
    for name, n in [("An", 3), ("Dn", 4)]:
        ds = dual_set(coset_minima(catalog(name, n)).facet_normals())
        members = set(ds.members)
        assert {tuple(-x for x in e) for e in members} == members
        assert all(any(x for x in e) for e in members)  # zero excluded


def test_dual_set_membership_is_exact():
    ds = dual_set(SQ_NORMALS)
    assert (1, 1) in ds and (F(1), 0) in ds
    assert (F(3, 2), 1) not in ds
    assert (1.9, 0) not in ds


def test_dual_set_rank_deficient():
    with pytest.raises(ValueError):
        dual_set([(1, 0), (-1, 0)])


def test_dual_set_of_no_normals_raises_value_error():
    with pytest.raises(ValueError, match="no facet normals"):
        dual_set([])


def test_dual_set_rejects_non_integral_normal():
    # normals take int entries only, as in hpolytope: an integral Fraction is refused too
    for x in (F(1, 2), F(2)):
        with pytest.raises(ValueError, match=r"facet normal \(Fraction\(.*\), 0\): give int entries"):
            dual_set([(x, 0), (-x, 0), (0, 1), (0, -1)])
        with pytest.raises(ValueError, match=r"facet normal \(Fraction\(.*\), 0\): give int entries"):
            normalize_direction((0, 1), [(x, 0), (-x, 0), (0, 1), (0, -1)])


def test_float_bool_and_ragged_input_is_refused():
    # Fraction reads 1.0 and True as 1, and a zip would cut ragged normals to one length
    for bad in ((1.0, 0), (True, 0), (F(1), 0)):
        with pytest.raises(ValueError, match=r"facet normal \(.*\): give int entries"):
            dual_set([bad, (-1, 0), (0, 1), (0, -1)])
        with pytest.raises(ValueError, match="direction"):
            normalize_direction(bad, SQ_NORMALS)
    with pytest.raises(linalg.DimensionMismatchError, match="lengths 2 and 3"):
        dual_set([(1, 0), (-1, 0), (0, 1), (0, -1, 0)])
    with pytest.raises(linalg.DimensionMismatchError, match="lengths 3 and 2"):
        dual_set([(1, 0, 0), (-1, 0), (0, 1), (0, -1)])
    for e in ((True, False), (0.5, 0), (1.0, 0)):
        with pytest.raises(ValueError, match="direction"):
            check_theorem(A2, e, [1])
    # Fraction(0.1) is 3602879701896397/36028797018963968, and True would be read as 1
    for e, b in [((1.0, True), 0.1), ((1, 0), 0.1), ((1, 0), True)]:
        with pytest.raises(ValueError):
            Direction(e, b)
    for b in (0.1, True):
        with pytest.raises(ValueError, match="segment weights"):
            check_theorem(A2, (0, 1), [b])


def test_dual_set_matches_box_scan_oracle_catalog():
    for name, n, a in lattice.catalog_entries(4):
        normals = coset_minima(a).facet_normals()
        assert dual_set(normals).members == box_scan_dual_set(normals), (name, n)


def _path_form(rng, d):
    """A diagonally dominant form whose nonzero off-diagonal entries form a path in random order."""
    order = rng.sample(range(d), d)
    g = [[F(0)] * d for _ in range(d)]
    for i, j in zip(order, order[1:]):
        g[i][j] = g[j][i] = rng.choice([F(1, 2), F(-1, 2), F(1), F(-1)])
    for i in range(d):
        g[i][i] = 1 + sum(map(abs, g[i])) + rng.choice([0, F(1, 2)])
    return lattice.make_form(g)


def test_dual_set_matches_sign_pattern_oracle_d6_to_d8():
    # the forms of the dual_census bench workload, beyond the box scan's reach: its catalog
    # forms, two random d = 6 forms drawn as it draws them, and three images p -> U^T p of
    # each catalog form under GL(d, Z), which file the search's rows at other depths and
    # give bases with other determinants
    forms = [("E6", None), ("E6*", None), ("E7", None), ("E7*", None), ("E8", None), ("An", 6),
             ("An*", 6), ("Dn", 6), ("Dn*", 6), ("An*", 7), ("Dn*", 7)]
    rng = random.Random(25)
    cases = [((name, n), coset_minima(catalog(name, n)).facet_normals()) for name, n in forms]
    cases += [(("path", 6, i), coset_minima(_path_form(rng, 6)).facet_normals()) for i in range(2)]
    dets = set()
    for key, normals in cases[: len(forms)]:
        d = len(normals[0])
        for _ in range(3):
            u, _ = random_unimodular(rng, d, 2 * d)
            image = [tuple(sum(map(operator.mul, col, p)) for col in zip(*u)) for p in normals]
            cases.append(((key, u), image))
    for key, normals in cases:
        ds = dual_set(normals)
        assert ds.members == sign_pattern_dual_set(normals), key
        # the first independent sorted normals, whatever order the search fixes sigma's coordinates in
        ordered = sorted(normals)
        assert ds.basis_used == tuple(ordered[i] for i in linalg.independent_rows(ordered)), key
        dets.add(abs(det(ds.basis_used)))
    assert dets == {1, 2, 3}  # the catalog's bases have determinant 1 or 2


@st.composite
def mixed_denominator_forms(draw):
    """Forms of dimension 2 to 4, diagonally dominant with margin >= 1,
    whose off-diagonal entries have denominators 3, 5 and 7."""
    d = draw(st.integers(2, 4))
    g = [[F(0)] * d for _ in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        q = draw(st.sampled_from((3, 5, 7)))
        g[i][j] = g[j][i] = F(draw(st.integers(-q, q)), q)
    for i in range(d):
        extra = F(draw(st.integers(0, 2)), draw(st.sampled_from((3, 5, 7))))
        g[i][i] = 1 + sum(abs(x) for x in g[i]) + extra
    return lattice.make_form(g)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(mixed_denominator_forms())
def test_minima_and_dual_set_match_oracles_mixed_denominators(a):
    # margin 1 gives a(v) >= |v|_inf^2, and every class has a 0/1 vector of
    # norm <= sum |A_ij|, so all minima lie in the box of radius isqrt(sum)
    radius = isqrt(int(sum(abs(x) for row in a.gram for x in row)))
    cs = coset_minima(a)
    oracle = box_scan_minima(a.gram, radius)
    for cl in cs.classes:
        assert (cl.min_norm, cl.minima) == oracle[cl.parity], (a.gram, cl.parity)
    normals = cs.facet_normals()
    assert dual_set(normals).members == box_scan_dual_set(normals), a.gram


def test_in_dual_set_witnesses():
    # (1, 1) has product 2 with +/-(1, 1), which normalize_direction names as a witness
    assert not _free_against(A2_NORMALS, (1, 1))
    with pytest.raises(CannotNormalizeError) as exc:
        normalize_direction((1, 1), A2_NORMALS)
    p, w = exc.value.witnesses[1]
    assert w == 2 and p in ((1, 1), (-1, -1)) and not _free_against([p], (1, 1))


def test_normalize_examples():
    assert normalize_direction((0, 2), A2_NORMALS) == (0, 1)
    assert normalize_direction((0, 1), SQ_NORMALS) == (0, 1)
    with pytest.raises(CannotNormalizeError) as exc:
        normalize_direction((2, 1), A2_NORMALS)
    (p1, w1), (p2, w2) = exc.value.witnesses
    assert {w1, w2} == {1, 2}
    with pytest.raises(ValueError):
        normalize_direction((0, 0), SQ_NORMALS)
    # normals that generate only 2Z^2 leave e/w = (1/2, 1/2)
    with pytest.raises(ExtensionError, match="not integral"):
        normalize_direction((1, 1), [(2, 0), (-2, 0), (0, 2), (0, -2)])


def test_sum_square_diagonal_is_hexagon():
    sq = voronoi_cell(Z2)
    s = sum_with_segment(sq, Direction((1, 1), 1))
    want = sorted(
        vec(p) for p in [(2, 2), (2, 0), (0, -2), (-2, -2), (-2, 0), (0, 2)]
    )
    assert list(s.vertices) == want


def test_sum_square_axis_is_box():
    sq = voronoi_cell(Z2)
    s = sum_with_segment(sq, Direction((0, 1), 1))
    want = sorted(vec(p) for p in itertools.product((-1, 1), (-2, 2)))
    assert list(s.vertices) == want


def test_sum_a2_bad_direction_is_octagon():
    hexagon = voronoi_cell(A2)
    s = sum_with_segment(hexagon, Direction((2, 1), 1))
    assert len(s.facet_ids) == 8


def test_sum_added_normals_kill_e_and_support_facets():
    for name, n, e in [("An", 2, (0, 1)), ("An", 3, (1, 0, 0)), ("Zn", 3, (1, 1, 0))]:
        a = catalog(name, n)
        cell = voronoi_cell(a)
        d = Direction(e, F(1, 2))
        s = sum_with_segment(cell, d)
        base = {tuple(iq.normal) for iq in cell.hpoly.ineqs}
        for i in s.facet_ids:
            q = s.hpoly.ineqs[i].normal
            if tuple(q) not in base:
                assert linalg.inner(q, e) == 0


def _ridges_from_points(v):
    """The facet pairs (i, j), i < j, whose common vertices span a (d-2)-face, read from the points alone."""
    on = [set(support_vertex_ids(v, iq.normal, iq.support)) for iq in v.hpoly.ineqs]
    return [
        (i, j) for i, j in itertools.combinations(range(len(on)), 2)
        if on[i] & on[j] and len(affine_direction_space([v.points[k] for k in on[i] & on[j]])) == v.dim - 2
    ]


def test_sum_rows_are_the_cell_facets_and_one_per_transversal_ridge():
    # the facets of P(a) + b[-e, e]: P(a)'s own, moved out by b|<p, e>| or kept where <p, e> = 0,
    # and R + S for each ridge R whose facets' products with e have opposite signs (Ziegler,
    # Lectures on Polytopes, ch. 7); a loose row in the sum's system changes the count
    forms = [a for _, _, a in lattice.catalog_entries(4)]
    forms += [random_pd_form_box6(random.Random(seed), d) for d in (2, 3, 4) for seed in range(3)]
    for a in forms:
        cell = voronoi_cell(a)
        normals = cell.hpoly.normals
        ridges = _ridges_from_points(cell)
        members = dual_set(normals).members
        # the first e in {0, 1, 2}^d that cannot be normalized: two distinct nonzero |<p, e>|
        loose = next(
            e for e in itertools.product(range(3), repeat=a.dim)
            if len({abs(linalg.inner(p, e)) for p in normals} - {0}) > 1
        )
        for e in (*members[:1], loose):
            prods = [linalg.inner(p, e) for p in normals]
            transversal = sum(prods[i] * prods[j] < 0 for i, j in ridges)
            for b in (F(1, 2), F(3)):
                s = sum_with_segment(cell, Direction(e, b))
                assert len(s.hpoly.normals) == len(normals) + transversal, (a.gram, e, b)
                assert set(normals) <= set(s.hpoly.normals), (a.gram, e, b)


def test_voronoi_of_sum_form_examples():
    h = voronoi_of_sum_form(Z2, Direction((1, 1), 1))
    assert {(tuple(int(x) for x in iq.normal), iq.support) for iq in h.ineqs} == {
        ((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2), ((1, -1), 2), ((-1, 1), 2),
    }
    h2 = voronoi_of_sum_form(Z2, Direction((0, 1), 1))
    v2 = enumerate_vertices(h2)
    assert list(v2.vertices) == sorted(vec(p) for p in itertools.product((-1, 1), (-2, 2)))
    a = perturbed_form(A2, Direction((0, 1), 1))
    assert a.gram == ((2, -1), (-1, 3))
    assert len(voronoi_of_sum_form(A2, Direction((0, 1), 1)).ineqs) == 6


def test_voronoi_of_sum_form_needs_integer_e():
    # Direction refuses a rational e, so none reaches the perturbed form
    for e in ((F(1, 2), 0), (F(1), 0)):
        with pytest.raises(ValueError, match="give int entries"):
            Direction(e, 1)


def test_forward_equality_catalog_d_le_3():
    for name, n in [("Zn", 2), ("An", 2), ("Zn", 3), ("An", 3), ("An*", 3)]:
        a = catalog(name, n)
        cell = voronoi_cell(a)
        for e in dual_set(coset_minima(a).facet_normals()).members:
            d = Direction(e, F(1, 2))
            s = sum_with_segment(cell, d)
            v = enumerate_vertices(voronoi_of_sum_form(a, d))
            assert s.vertices == v.vertices, (name, n, e)
            assert is_parallelotope(s).ok


def test_sum_matches_vertex_minkowski_oracle():
    for name, n, e, b in [
        ("An", 2, (1, 0), 1),
        ("An", 2, (2, 1), F(1, 2)),   # non-dual direction: construction still exact
        ("An", 3, (1, 1, 1), 2),
        ("Zn", 3, (3, 1, 2), 1),
    ]:
        cell = voronoi_cell(catalog(name, n))
        s = sum_with_segment(cell, Direction(e, b))
        ok, why = check_sum_against_candidates(s, cell.vertices, e, b)
        assert ok, why


@st.composite
def forms_with_segments(draw):
    """A mixed-denominator form, a nonzero integer e with entries in -2..2 and a weight b."""
    a = draw(mixed_denominator_forms())
    e = tuple(draw(st.lists(st.integers(-2, 2), min_size=a.dim, max_size=a.dim).filter(any)))
    return a, e, draw(st.sampled_from((F(1, 2), F(1), F(3))))


def test_sum_with_segment_matches_candidate_hull_oracle():
    # dual-set directions and the others both occur among the drawn cases
    free = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(forms_with_segments())
    def check(case):
        a, e, b = case
        cell = voronoi_cell(a)
        s = sum_with_segment(cell, Direction(e, b))
        ok, why = check_sum_against_candidates(s, cell.vertices, e, b)
        assert ok, (a.gram, e, b, why)
        free[_free_against(cell.hpoly.normals, e)] += 1

    check()
    assert free[True] and free[False]


def _is_int_vec(v):
    return isinstance(v, tuple) and all(type(x) is int for x in v)


def test_h_side_is_integer():
    for _, _, a in lattice.catalog_entries(max_dim=4):
        assert all(_is_int_vec(n) for n in build_cell(a, coset_minima(a).facet_normals()).normals)
    d4 = catalog("Dn", 4)
    cell = voronoi_cell(d4)
    e = dual_set(coset_minima(d4).facet_normals()).members[0]
    for e in (e, (1, 2, 0, 0)):
        d = Direction(e, F(1, 2))
        assert _is_int_vec(d.e)
        assert all(_is_int_vec(n) for n in sum_with_segment(cell, d).hpoly.normals)
    assert all(_is_int_vec(n) for n in voronoi_of_sum_form(d4, Direction(e, 3)).normals)
    # a normal entry that is no int is refused, an integral Fraction too, and no normal is rescaled
    for bad in (F(1, 2), F(2), 1.0, True):
        with pytest.raises(ValueError, match="give int normal entries"):
            polytope.hpolytope(2, [((bad, 0), F(1, 2)), ((-1, 0), 1), ((0, 1), 2), ((0, -1), 3)])
    # check_theorem sums a rational e as den e with weight b/den, and reports e as given
    square = voronoi_cell(Z2)
    rep = check_theorem(Z2, (F(1, 2), 1), [1])
    got = rep.results[0].sum_cell
    want = sum_with_segment(square, Direction((1, 2), F(1, 2)))
    assert (got.scale, got.points) == (want.scale, want.points)
    assert all(_is_int_vec(n) for n in got.hpoly.normals)
    ok, why = check_sum_against_candidates(got, square.vertices, (F(1, 2), 1), 1)
    assert ok, why
    doc = jsonio.report_to_dict(rep)
    assert doc["e_raw"] == ["1/2", "1"]
    assert [w["abs_product"] for w in doc["cannot_normalize_witnesses"]] == ["1/2", "1"]


def test_sum_with_segment_forms_one_product_per_inequality(monkeypatch):
    d4 = catalog("Dn", 4)
    cell = voronoi_cell(d4)
    e = dual_set(coset_minima(d4).facet_normals()).members[0]
    results = []
    inner = linalg.inner
    monkeypatch.setattr(linalg, "inner", lambda *a: results.append(inner(*a)) or results[-1])
    sum_with_segment(cell, Direction(e, F(1, 2)))
    assert 0 < len(results) <= len(cell.hpoly.ineqs)
    assert all(type(t) is int for t in results)


def test_b_stability_of_perturbed_normals():
    for name, n in [("Zn", 2), ("An", 2), ("An", 3)]:
        a = catalog(name, n)
        for e in dual_set(coset_minima(a).facet_normals()).members:
            seen = {
                coset_minima(perturbed_form(a, Direction(e, b))).facet_normals()
                for b in (F(1, 2), F(1), F(3))
            }
            assert len(seen) == 1, (name, e)


def test_subset_check_square_plus_square():
    sq = voronoi_cell(Z2).hpoly
    ok, witness = subset_check(sq, sq)
    assert ok and witness is None


def test_subset_check_cell_plus_segment():
    h1 = build_cell(A2, A2_NORMALS)
    h2 = segment_as_polytope(Direction((0, 1), 1), A2_NORMALS)
    ok, _ = subset_check(h1, h2, v2=[vec((0, -1)), vec((0, 1))])
    assert ok


def test_subset_check_random_pairs_shared_normals():
    rng = random.Random(17)
    count = 0
    while count < 3:
        g = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        gram = [[g[i][j] + g[j][i] + (5 if i == j else 0) for j in range(3)] for i in range(3)]
        try:
            a1 = lattice.make_form(gram)
        except lattice.LatticeError:
            continue
        a2 = catalog("An", 3)
        normals = tuple(
            sorted(set(coset_minima(a1).facet_normals()) | set(coset_minima(a2).facet_normals()))
        )
        h1 = polytope.hpolytope(3, [(p, eval_form(a1, p)) for p in normals])
        h2 = polytope.hpolytope(3, [(p, eval_form(a2, p)) for p in normals])
        ok, witness = subset_check(h1, h2)
        assert ok, witness
        count += 1


def test_subset_check_normal_mismatch():
    h1 = voronoi_cell(Z2).hpoly
    h2 = voronoi_cell(A2).hpoly
    with pytest.raises(NormalSetMismatchError):
        subset_check(h1, h2)


def test_lemma_l8_examples():
    assert lemma_l8_holds(Z2, voronoi_cell(Z2), (1, 1))
    assert lemma_l8_holds(A2, voronoi_cell(A2), (0, 1))
    d4 = catalog("Dn", 4)
    cell = voronoi_cell(d4)
    for e in dual_set(coset_minima(d4).facet_normals()).members[:6]:
        assert lemma_l8_holds(d4, cell, e)
    # under 2 I the square's corner (1, -1) would need support a(1, -1) = 4, but it has 2
    assert not lemma_l8_holds(lattice.make_form([[2, 0], [0, 2]]), voronoi_cell(Z2), (1, 1))
    with pytest.raises(ValueError):
        lemma_l8_holds(A2, voronoi_cell(A2), (1, 1))


def test_check_theorem_forward_a2():
    rep = check_theorem(A2, (0, 1), [F(1, 2), 1, 3])
    assert rep.in_dual_set and rep.normalized_e == (0, 1)
    assert all(r.equal for r in rep.results)
    assert all(r.parallelotope.ok for r in rep.results)
    assert rep.irreducible_input and not rep.theorem_silent
    assert rep.invariants_ok


def test_check_theorem_converse_a2():
    rep = check_theorem(A2, (2, 1), [1])
    assert not rep.in_dual_set
    r = rep.results[0]
    assert len(r.sum_cell.facet_ids) == 8
    assert r.parallelotope.failure == "belt" and r.parallelotope.belt_length == 8
    assert r.equal is None
    assert not rep.theorem_silent
    assert rep.invariants_ok


def test_check_theorem_reducible_caveat():
    rep = check_theorem(Z2, (2, 1), [1])
    assert not rep.in_dual_set
    assert rep.irreducible_input is False
    assert rep.results[0].parallelotope.ok
    assert rep.theorem_silent
    assert rep.invariants_ok


def test_check_theorem_above_cap_skips_vertices(monkeypatch):
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    rep = check_theorem(catalog("E6"), (1, 0, 0, 0, 0, 0), [1])
    assert rep.results[0].skipped
    assert rep.irreducible_input is None
    assert rep.notes == ("dual-set verdict only, no vertex-level checks: "
                         "double description passed the vertex budget of 10 live vertices",)
    assert rep.invariants_ok


def test_check_theorem_budget_hit_in_a_sum_skips_every_b(monkeypatch):
    # the A3 cell peaks at 14 live vertices and its sum with (1, 2, 0) at 20,
    # so with a budget of 15 the cell fits and the first sum does not
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 15)
    a3 = catalog("An", 3)
    assert len(voronoi_cell(a3).points) == 14
    rep = check_theorem(a3, (1, 2, 0), [F(1, 2), 1])
    assert [r.skipped for r in rep.results] == [True, True]
    assert rep.irreducible_input is None and not rep.theorem_silent
    assert rep.notes[0].endswith("vertex budget of 15 live vertices")
    assert rep.invariants_ok


def test_check_theorem_needs_a_b_sample():
    # with no b there is no vertex-level check, so invariants_ok would say nothing
    with pytest.raises(ValueError, match="at least one segment weight"):
        check_theorem(A2, (0, 1), [])


def test_check_theorem_refuses_b_not_positive_before_any_search(monkeypatch):
    # past the vertex budget no sum is built, so no Direction would see b; within it
    # b = -1 came up only after the cell, its irreducibility graph and the first sum
    monkeypatch.setattr(extension, "coset_minima", lambda a: pytest.fail("minima searched"))
    for budget, bs in ((3, [-1, 0]), (polytope.VERTEX_BUDGET, [1, -1]), (polytope.VERTEX_BUDGET, [F(1, 2), 0])):
        monkeypatch.setattr(polytope, "VERTEX_BUDGET", budget)
        with pytest.raises(ValueError, match="must be positive"):
            check_theorem(A2, (0, 1), bs)


def test_check_theorem_refuses_a_zero_or_wrong_length_e_before_any_search(monkeypatch):
    calls = []
    search = extension.coset_minima
    monkeypatch.setattr(extension, "coset_minima", lambda a: calls.append(a) or search(a))
    with pytest.raises(ValueError, match="must be nonzero"):
        check_theorem(A2, (0, 0), [1])
    with pytest.raises(linalg.DimensionMismatchError, match="length 3"):
        check_theorem(A2, (1, 0, 0), [1])
    assert calls == []
    check_theorem(A2, (0, 1), [1])
    assert calls[0] is A2


def test_check_theorem_scaled_direction_normalizes():
    rep = check_theorem(A2, (0, 3), [1])
    assert rep.in_dual_set and rep.normalized_e == (0, 1)
    assert rep.invariants_ok


def test_theorem_on_every_dual_set_member_of_the_catalog_to_d5():
    # the paper's statement covers every e in the dual set: each member up to sign, at b = 1
    checked = 0
    for name, n, a in lattice.catalog_entries(5):
        for e in dual_set(coset_minima(a).facet_normals()).members:
            if e < tuple(map(operator.neg, e)):
                continue
            rep = check_theorem(a, e, [1])
            assert rep.in_dual_set and rep.invariants_ok, (name, n, e)
            assert not any(r.skipped for r in rep.results), (name, n, e)
            checked += 1
    assert checked == 346


def _six_belt_verdicts(a):
    """(e, predicted, tiles) for each e in {-1, 0, 1}^d up to sign, for the cell of a.

    P + b[-e, e] tiles iff every 6-belt of P has a facet parallel to e (Grishukhin 2006;
    Dutour Sikiric, Grishukhin & Magazinov 2014); the prediction is compared, never used.
    """
    cell = voronoi_cell(a)
    normals = cell.hpoly.normals
    six_belts = [b.facets for b in polytope.belts(cell) if b.length == 6]
    for e in itertools.product((-1, 0, 1), repeat=a.dim):
        if e <= tuple(map(operator.neg, e)):  # the zero vector, or the negative of one taken
            continue
        predicted = all(any(sum(map(operator.mul, normals[i], e)) == 0 for i in b) for b in six_belts)
        yield e, predicted, is_parallelotope(sum_with_segment(cell, Direction(e, 1))).ok


def test_six_belt_criterion_agrees_with_the_tiling_test_of_the_sum():
    seen = Counter()
    for name, n, a in lattice.catalog_entries(4):
        for e, predicted, tiles in _six_belt_verdicts(a):
            assert predicted == tiles, (name, n, e)
            seen[tiles] += 1
    assert sum(seen.values()) == 277 and seen[True] and seen[False]


def test_six_belt_criterion_agrees_with_the_tiling_test_on_random_forms():
    # pinned seeds: the forms stay the same whatever the test's source, unlike derandomized draws
    seen = Counter()
    for d in (2, 3, 4):
        for seed in range(10):
            a = random_pd_form_box6(random.Random(seed), d)
            for e, predicted, tiles in _six_belt_verdicts(a):
                assert predicted == tiles, (d, seed, a.gram, e)
                seen[tiles] += 1
    assert seen == Counter({True: 238, False: 332})  # 570 pairs over 29 distinct forms


def test_converse_on_every_non_normalizable_ternary_direction_of_the_catalog_to_d4():
    # the paper's converse: on an irreducible cell (Zn has no such e), an e in {-1, 0, 1}^d, up to
    # sign, that cannot be normalized into the dual set gives a sum that does not tile
    checked = 0
    for name, n, a in lattice.catalog_entries(4):
        normals = coset_minima(a).facet_normals()
        for e in itertools.product((-1, 0, 1), repeat=n):
            if e <= tuple(map(operator.neg, e)):
                continue
            try:
                normalize_direction(e, normals)
                continue
            except CannotNormalizeError:
                pass
            rep = check_theorem(a, e, [1])
            assert rep.invariants_ok and rep.irreducible_input, (name, n, e)
            assert not rep.in_dual_set and rep.violating, (name, n, e)
            (r,) = rep.results
            assert not r.skipped and not r.parallelotope.ok, (name, n, e)
            checked += 1
    assert checked == 140
