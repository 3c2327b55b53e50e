import itertools
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
    a_e,
    box_scan_dual_set,
    box_scan_minima,
    check_sum_against_candidates,
    f_e,
    p_e_set,
    segment_as_polytope,
    sign_pattern_dual_set,
    subset_check,
)
from voroseg import extension, lattice, linalg, polytope
from voroseg.extension import (
    CannotNormalizeError,
    Direction,
    NotInDualSetError,
    check_theorem,
    dual_set,
    in_dual_set,
    lemma_l8_check,
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
    seg = segment_as_polytope(Direction((0, 1), 1), SQ_NORMALS)
    v = enumerate_vertices(seg)
    assert v.vertices == (linalg.vec((0, -1)), linalg.vec((0, 1)))
    seg3 = segment_as_polytope(Direction((0, 1), 3), A2_NORMALS)
    v3 = enumerate_vertices(seg3)
    assert v3.vertices == (linalg.vec((0, -3)), linalg.vec((0, 3)))
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
                v = enumerate_vertices(seg)
                ev = linalg.vec(e)
                want = tuple(sorted([linalg.vscale(-b, ev), linalg.vscale(b, ev)]))
                assert v.vertices == want


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
    with pytest.raises(ValueError, match=r"facet normal \(1/2, 0\) is not integral"):
        dual_set([(F(1, 2), 0), (F(-1, 2), 0), (0, 1), (0, -1)])


def test_dual_set_matches_box_scan_oracle_catalog():
    for name, n, a in lattice.catalog_entries(4):
        normals = coset_minima(a).facet_normals()
        assert dual_set(normals).members == box_scan_dual_set(normals), (name, n)


def test_dual_set_matches_sign_pattern_oracle_d6_to_d8():
    # the forms of the dual_census bench workload, beyond the box scan's reach
    forms = [("E6", None), ("E6*", None), ("E7", None), ("E7*", None), ("E8", None), ("An", 6),
             ("An*", 6), ("Dn", 6), ("Dn*", 6), ("An*", 7), ("Dn*", 7)]
    for name, n in forms:
        normals = coset_minima(catalog(name, n)).facet_normals()
        assert dual_set(normals).members == sign_pattern_dual_set(normals), (name, n)


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
    ok, bad = in_dual_set(A2_NORMALS, (1, 1))
    assert not ok and ((1, 1) in bad or (-1, -1) in bad)


def test_normalize_examples():
    assert normalize_direction((0, 2), A2_NORMALS) == (0, 1)
    assert normalize_direction((0, 1), SQ_NORMALS) == (0, 1)
    with pytest.raises(CannotNormalizeError) as exc:
        normalize_direction((2, 1), A2_NORMALS)
    (p1, w1), (p2, w2) = exc.value.witnesses
    assert {w1, w2} == {1, 2}
    with pytest.raises(ValueError):
        normalize_direction((0, 0), SQ_NORMALS)


def test_sum_square_diagonal_is_hexagon():
    sq = voronoi_cell(Z2)
    s = sum_with_segment(sq, Direction((1, 1), 1))
    want = sorted(
        linalg.vec(p) for p in [(2, 2), (2, 0), (0, -2), (-2, -2), (-2, 0), (0, 2)]
    )
    assert list(s.vertices) == want


def test_sum_square_axis_is_box():
    sq = voronoi_cell(Z2)
    s = sum_with_segment(sq, Direction((0, 1), 1))
    want = sorted(linalg.vec(p) for p in itertools.product((-1, 1), (-2, 2)))
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
                assert linalg.dot(q, linalg.vec(e)) == 0


def test_voronoi_of_sum_form_examples():
    h = voronoi_of_sum_form(Z2, Direction((1, 1), 1))
    assert {(tuple(int(x) for x in iq.normal), iq.support) for iq in h.ineqs} == {
        ((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2), ((1, -1), 2), ((-1, 1), 2),
    }
    h2 = voronoi_of_sum_form(Z2, Direction((0, 1), 1))
    v2 = enumerate_vertices(h2)
    assert list(v2.vertices) == sorted(linalg.vec(p) for p in itertools.product((-1, 1), (-2, 2)))
    a = perturbed_form(A2, Direction((0, 1), 1))
    assert a.gram == linalg.mat([[2, -1], [-1, 3]])
    assert len(voronoi_of_sum_form(A2, Direction((0, 1), 1)).ineqs) == 6


def test_voronoi_of_sum_form_needs_integer_e():
    with pytest.raises(ValueError):
        voronoi_of_sum_form(Z2, Direction((F(1, 2), 0), 1))


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
        free[in_dual_set(cell.hpoly.normals, e)[0]] += 1

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
    # a rational normal is scaled to integers together with its support
    h = polytope.hpolytope(2, [((F(1, 2), 0), F(1, 2)), ((-1, 0), 1), ((0, F(2, 3)), 2), ((0, -1), 3)])
    assert [(iq.normal, iq.support) for iq in h.ineqs] == [((-1, 0), 1), ((0, -1), 3), ((0, 2), 6), ((1, 0), 1)]
    assert all(_is_int_vec(n) for n in h.normals)
    # a rational e stays in Fractions and gives the same sum as the vertex oracle
    e, b = (F(1, 2), F(1, 2)), 1
    square = voronoi_cell(Z2)
    assert all(type(x) is F for x in Direction(e, b).e)
    s = sum_with_segment(square, Direction(e, b))
    assert all(_is_int_vec(n) for n in s.hpoly.normals)
    ok, why = check_sum_against_candidates(s, square.vertices, e, b)
    assert ok, why


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
    ok, _ = subset_check(h1, h2)
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
    assert lemma_l8_check(Z2, voronoi_cell(Z2), (1, 1))
    assert lemma_l8_check(A2, voronoi_cell(A2), (0, 1))
    d4 = catalog("Dn", 4)
    cell = voronoi_cell(d4)
    for e in dual_set(coset_minima(d4).facet_normals()).members[:6]:
        assert lemma_l8_check(d4, cell, e)
    with pytest.raises(NotInDualSetError):
        lemma_l8_check(A2, voronoi_cell(A2), (1, 1))


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


def test_check_theorem_scaled_direction_normalizes():
    rep = check_theorem(A2, (0, 3), [1])
    assert rep.in_dual_set and rep.normalized_e == (0, 1)
    assert rep.invariants_ok
