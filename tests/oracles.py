"""Independent brute-force oracles used to validate the exact engines.

These deliberately avoid the production code paths: minima come from a
plain box scan, dual sets from a box scan bounded by an inverse computed
here, vertices from solving all d-subsets of inequalities, and Minkowski
sums from translating vertex sets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from voroseg import lattice, linalg


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
            den = den * f.denominator // __import__("math").gcd(den, f.denominator)
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


def _reduced_rows(rows) -> list:
    """Reduced row echelon form of rational rows, zero rows dropped (own elimination)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    out = []
    col = 0
    while rows and col < len(rows[0]):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is not None:
            rows.remove(pivot)
            pivot = [x / pivot[col] for x in pivot]
            rows = [[x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
            out = [[x - r[col] * y for x, y in zip(r, pivot)] for r in out]
            out.append(pivot)
        col += 1
    return out


def box_scan_dual_set(normals) -> tuple:
    """All integer e != 0 with every <p, e> in {0, +1, -1}, by scanning a box.

    For d independent normals B, e = B^-1 sigma with |sigma_j| <= 1, so
    |e_i| is at most the i-th row sum of |B^-1|; the box of those radii
    holds every member.  B^-1 comes from the elimination above, not from
    voroseg.
    """
    ns = [tuple(int(x) for x in p) for p in normals]
    d = len(ns[0])
    basis: list = []
    for p in ns:
        if len(_reduced_rows(basis + [p])) > len(basis):
            basis.append(p)
    if len(basis) != d:
        raise ValueError("normals do not span R^d")
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    inverse = [r[d:] for r in _reduced_rows([list(b) + e for b, e in zip(basis, eye)])]
    radii = [int(sum(abs(x) for x in row)) for row in inverse]
    return tuple(
        e
        for e in itertools.product(*(range(-r, r + 1) for r in radii))
        if any(e) and all(sum(a * b for a, b in zip(p, e)) in (-1, 0, 1) for p in ns)
    )


def brute_force_vertices(h) -> tuple:
    """All vertices of an H-polytope by solving every d-subset of equalities."""
    d = h.dim
    pts = set()
    for subset in itertools.combinations(range(len(h.ineqs)), d):
        m = tuple(h.ineqs[i].normal for i in subset)
        if linalg.rank(m) < d:
            continue
        rhs = tuple(h.ineqs[i].support for i in subset)
        x = linalg.solve_linear(m, rhs)
        if all(linalg.dot(iq.normal, x) <= iq.support for iq in h.ineqs):
            pts.add(x)
    return tuple(sorted(pts))


def minkowski_candidates(vertices, e, b) -> tuple:
    """Candidate vertex set {v +/- b e} of a polytope-plus-segment sum."""
    ev = linalg.vec(e)
    shift = linalg.vscale(Fraction(b), ev)
    out = set()
    for v in vertices:
        out.add(linalg.vadd(v, shift))
        out.add(linalg.vsub(v, shift))
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
