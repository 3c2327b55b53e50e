"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import random
import time
from fractions import Fraction as F

import pytest

from oracles import (
    box_scan_minima,
    check_sum_against_candidates,
    layer_index,
    random_pd_form_box6,
    segment_as_polytope,
    subset_check,
)
from voroseg import lattice, linalg
from voroseg.extension import (
    CannotNormalizeError,
    Direction,
    check_theorem,
    dual_set,
    lemma_l8_check,
    normalize_direction,
    sum_with_segment,
    voronoi_of_sum_form,
)
from voroseg.lattice import catalog, coset_minima
from voroseg.polytope import (
    build_cell,
    enumerate_vertices,
    irreducibility_graph,
    is_parallelotope,
    voronoi_cell,
)

B_SAMPLES = (F(1, 2), F(1), F(3))


def _report(n, desc, t0):
    print(f"\nACCEPTANCE {n} PASS: {desc} ({time.time() - t0:.1f}s)")


def _pair_reps(members):
    return sorted({max(e, tuple(-x for x in e)) for e in members})


def test_acceptance_1_theorem_forward():
    t0 = time.time()
    checked = 0
    for name, n in [("An", 2), ("An", 3), ("Dn", 4)]:
        a = catalog(name, n)
        cell = voronoi_cell(a)
        members = dual_set(coset_minima(a).facet_normals()).members
        assert members, (name, n)
        for e in _pair_reps(members):
            for b in B_SAMPLES:
                d = Direction(e, b)
                s = sum_with_segment(cell, d)
                v = enumerate_vertices(voronoi_of_sum_form(a, d))
                assert s.vertices == v.vertices, (name, e, b)
                assert is_parallelotope(s).ok, (name, e, b)
                checked += 1
    _report(1, f"forward direction exact on {checked} (lattice, e, b) triples "
               "over A2, A3, D4", t0)


def test_acceptance_2_theorem_converse():
    t0 = time.time()
    rng = random.Random(20250810)
    for name, n in [("An", 2), ("An", 3), ("Dn", 4)]:
        a = catalog(name, n)
        normals = coset_minima(a).facet_normals()
        cell = voronoi_cell(a)
        assert irreducibility_graph(cell).connected, (name, n)
        done = 0
        while done < 50:
            e = tuple(rng.randint(-4, 4) for _ in range(a.dim))
            if all(x == 0 for x in e):
                continue
            try:
                normalize_direction(e, normals)
                continue
            except CannotNormalizeError:
                pass
            verdict = is_parallelotope(sum_with_segment(cell, Direction(e, 1)))
            assert not verdict.ok, (name, e)
            assert verdict.failure == "belt", (name, e, verdict)
            assert verdict.belt_length not in (4, 6), (name, e, verdict)
            done += 1
    _report(2, "converse: 50 non-normalizable directions per lattice all yield "
               "a belt witness outside {4, 6}", t0)


def test_acceptance_3_empty_dual_sets_of_dual_root_lattices():
    t0 = time.time()
    for name in ("E6*", "E7*"):
        a = catalog(name)
        ds = dual_set(coset_minima(a).facet_normals())
        assert ds.members == (), name
    _report(3, "dual sets of E6* and E7* are empty (no free directions)", t0)


def test_acceptance_4_nonempty_dual_sets_of_root_lattices():
    t0 = time.time()
    sizes = {}
    for name, n in [("Dn", 4), ("Dn", 5), ("E6", None), ("E7", None)]:
        a = catalog(name, n)
        ds = dual_set(coset_minima(a).facet_normals())
        assert ds.members, (name, n)
        sizes[f"{name}{n or ''}"] = len(ds.members)
    _report(4, f"dual sets nonempty: {sizes}", t0)


def test_acceptance_5_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(1234)
    sums_checked = 0
    for d, count in ((3, 25), (4, 25)):
        for _ in range(count):
            a = random_pd_form_box6(rng, d)
            cs = coset_minima(a)
            oracle = box_scan_minima(a.gram, 6)
            for cl in cs.classes:
                norm, minima = oracle[cl.parity]
                assert cl.min_norm == norm, (a.gram, cl.parity)
                assert cl.minima == minima, (a.gram, cl.parity)
            if d == 3:
                cell = voronoi_cell(a)
                members = dual_set(cs.facet_normals()).members
                picks = rng.sample(members, min(5, len(members)))
                for e in picks:
                    s = sum_with_segment(cell, Direction(e, 1))
                    ok, why = check_sum_against_candidates(s, cell.vertices, e, 1)
                    assert ok, (a.gram, e, why)
                    sums_checked += 1
    _report(5, "25+25 random forms match the box-scan oracle; "
               f"{sums_checked} sums match the vertex-Minkowski oracle", t0)


def test_acceptance_6_lemma_suite():
    t0 = time.time()
    rng = random.Random(42)
    irreducible_expect = {
        ("Zn", 2): False, ("Zn", 3): False, ("Zn", 4): False,
        ("An", 2): True, ("An", 3): True, ("Dn", 4): True,
    }
    for name, n, a in lattice.catalog_entries(max_dim=4):
        cell = voronoi_cell(a)
        cs = coset_minima(a)
        # the theorem's inequality system runs over all contact vectors,
        # whose zero-product part is rich enough to pin segments down
        contacts = cs.contact_vectors()
        members = dual_set(cs.facet_normals()).members
        contact_h = contact_v = None

        # reducibility classification
        expected = irreducible_expect.get((name, n))
        if expected is not None:
            assert irreducibility_graph(cell).connected == expected, (name, n)

        for e in members:
            # Lemma lay: integral layers for random lattice vectors
            for _ in range(200):
                layer_index(e, tuple(rng.randint(-10, 10) for _ in range(a.dim)))
            # Lemma l8: transversal shadow codim-2 faces are contact, on 4-belts
            assert lemma_l8_check(a, cell, e), (name, n, e)
            # Lemma l2/lae: segment recovery, vertices exactly +/- b e
            for b in (F(1, 2), F(2)):
                seg = segment_as_polytope(Direction(e, b), contacts)
                sv = enumerate_vertices(seg)
                ev = linalg.vec(e)
                assert sv.vertices == tuple(
                    sorted([linalg.vscale(-b, ev), linalg.vscale(b, ev)])
                ), (name, n, e, b)
            # Lemma a12: cell + segment inside the sum-support cell
            seg_h = segment_as_polytope(Direction(e, 1), contacts)
            if contact_h is None:
                contact_h = build_cell(a, contacts)
                contact_v = enumerate_vertices(contact_h)
            ok, witness = subset_check(contact_h, seg_h, v1=contact_v)
            assert ok, (name, n, e, witness)
    _report(6, "lemma suite (a12, lay, l2/lae, l8) and reducibility classes "
               "hold on the whole d<=4 catalog", t0)


def test_acceptance_7_reducible_caveat_regression():
    t0 = time.time()
    rep = check_theorem(catalog("Zn", 2), (2, 1), [1])
    assert not rep.in_dual_set
    assert rep.irreducible_input is False
    assert rep.results[0].parallelotope.ok          # the sum tiles anyway
    assert rep.theorem_silent                       # but the theorem is silent here
    assert rep.invariants_ok
    _report(7, "Z^2 with e=(2,1): sum is a parallelotope, direction not "
               "normalizable, report flags theorem-silent", t0)


def test_acceptance_8_catalog_above_d5_at_the_default_budget():
    # d = 6 and 7 fit the vertex budget; E7 and E7* fit it too, but at about
    # 1 s and 2 s they are left out of the tier-1 suite
    t0 = time.time()
    for name, n in [("E6", None), ("Dn", 6), ("An", 6), ("Dn", 7)]:
        a = catalog(name, n)
        e = dual_set(coset_minima(a).facet_normals()).members[-1]
        rep = check_theorem(a, e, B_SAMPLES)
        assert rep.in_dual_set and all(r.equal for r in rep.results), (name, n, e)
        assert rep.invariants_ok, (name, n, e, rep.invariant_violations)
    rep = check_theorem(catalog("E6*"), (1, 0, 0, 0, 0, 0), [1])
    verdict = rep.results[0].parallelotope
    assert not rep.in_dual_set and rep.irreducible_input
    assert verdict.failure == "belt" and verdict.belt_index is not None
    assert verdict.belt_length not in (4, 6)
    assert rep.invariants_ok
    _report(8, "forward on E6, D6, A6 and D7, converse on E6* (a belt of "
               f"length {verdict.belt_length}), all at the default vertex budget", t0)
