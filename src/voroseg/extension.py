"""Segment directions, dual sets, and Minkowski sums of cells with segments.

A direction e is "free" for a cell when its products with every facet
normal lie in {0, +1, -1}; the set of all such integer vectors is the dual
set of the facet normals.  For free directions the sum of the cell with
the segment b*[-e, e] equals the Voronoi cell of the rank-1-perturbed form
(Gram A + b e e^T); for all other directions of an irreducible cell the
sum is not a parallelotope.  Both constructions and the equivalence check
live here; the pipeline needs no more, so lemma L8 (a transversal ridge of
a dual-set direction is a contact face on a 4-belt) is checked only by the
test oracles.  `dual_set` searches the products sigma of e with a basis
of the normals depth first, its sparsest coordinates last; each child is
tested on the normals its coordinate decides, and only then updates the
partial products of the normals still unchecked in one column sweep.
Normals take int entries only, as in `polytope.hpolytope`, and the
weights b int or Fraction ones (`linalg.exact_entries`).  Below
`check_theorem` e is an int vector (`Direction`, which also refuses a
zero e and a b <= 0), so every product <p, e> is an int;
`sum_with_segment` forms one per inequality and reads from that list
the shifted supports, the transversal ridges and the weights of the
new normals, which stay integer.  The supports stay integer too: the
cell's are ints over its scale Q (`HPolytope`), and with b = nb/db every
support of the sum is an int over Q db, so the sum forms no Fraction
from the cell's normals to its vertices.  `check_theorem` takes a
rational e and scales it to an integer vector once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg, lattice, polytope
from .lattice import IntVec, QuadForm, coset_minima
from .linalg import Vec
from .polytope import (
    HPolytope,
    ParallelotopeVerdict,
    VPolytope,
    build_cell,
    enumerate_vertices,
    is_parallelotope,
    prune_to_facets,
    voronoi_cell,
)


class ExtensionError(Exception):
    pass


class CannotNormalizeError(ExtensionError):
    """The direction has two distinct nonzero |products| with facet normals."""

    def __init__(
        self, witnesses: tuple[tuple[IntVec, int | Fraction], tuple[IntVec, int | Fraction]]
    ):
        self.witnesses = witnesses
        (p1, w1), (p2, w2) = witnesses
        super().__init__(
            f"no scaling works: |<{p1}, e>| = {w1} but |<{p2}, e>| = {w2}"
        )


def _ints(v: Sequence, what: str) -> IntVec:
    """v as a tuple of ints; an entry that is no int, a Fraction, float or bool included, raises ValueError naming v."""
    v = tuple(v)
    if not all(type(x) is int for x in v):
        raise ValueError(f"{what} {v!r}: give int entries")
    return v


def _int_direction(e: Sequence) -> IntVec:
    """e as a tuple of ints; a zero e, or any entry that is no int, raises ValueError."""
    e = _ints(e, "direction")
    if not any(e):
        raise ValueError("direction vector must be nonzero")
    return e


@dataclass(frozen=True)
class Direction:
    """A segment direction e, a nonzero int vector, with weight b > 0 (segment = b * [-e, e]).

    e's products with the integer facet normals are ints.  b is an int or
    a Fraction; any other entry, a rational or zero e and a b <= 0 raise ValueError.
    """

    e: IntVec
    b: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "e", _int_direction(self.e))
        (b,) = linalg.exact_entries((self.b,), "segment weight", self.b)
        object.__setattr__(self, "b", Fraction(b))
        if self.b <= 0:
            raise ValueError(f"segment weight b must be positive; got {self.b}")


def perturbed_form(a: QuadForm, dir: Direction) -> QuadForm:
    g = tuple(
        tuple(a.gram[i][j] + dir.b * dir.e[i] * dir.e[j] for j in range(a.dim))
        for i in range(a.dim)
    )
    return lattice.make_form(g)


def _integer_normals(normals: Iterable[Sequence]) -> list[IntVec]:
    """The normals as sorted int tuples; an entry that is no int raises ValueError naming the normal.

    Normals of two lengths raise DimensionMismatchError.
    """
    out = []
    for p in normals:
        p = _ints(p, "facet normal")
        if out and len(p) != len(out[0]):
            raise linalg.DimensionMismatchError(f"facet normals of lengths {len(out[0])} and {len(p)}")
        out.append(p)
    return sorted(out)


@dataclass(frozen=True)
class DualSet:
    members: tuple[IntVec, ...]       # closed under negation, sorted
    basis_used: tuple[IntVec, ...]    # the d independent normals enumerated over

    def __contains__(self, e) -> bool:
        # tuple equality is exact: (3/2, 1) and (1.9, 0) match no int member
        return tuple(e) in self.members


def _depth(r: IntVec) -> int:
    """The index of r's last nonzero entry (0 for a zero row, whose products are all 0)."""
    return max(itertools.compress(range(len(r)), r), default=0)


def dual_set(normals: Sequence[Sequence]) -> DualSet:
    """All integer e with <e, p> in {0, +1, -1} for every normal p.

    e is determined by its products sigma with d linearly independent
    normals B, as e = adj(B) sigma / det(B), with sigma_k in {0, +1, -1}.
    adj(B) and det(B) are computed once, in integers, and so is the row
    r_p = p^T adj(B) of every normal, which gives <p, e> det = <r_p, sigma>;
    column j of all rows at once is the sum over i of adj(B)_ij times
    column i of the normals.  -p has the row -r_p, whose product passes or
    fails with r_p's, so rows are kept up to sign.  A row's depth is its
    last nonzero index k: sigma_0..sigma_k decide its product.  sigma's
    coordinates are fixed in descending order of how many rows are nonzero
    in them, with the rows and the rows of adj(B) permuted the same way, so
    few rows wait for the sparse coordinates; the members do not depend on
    the order, and `basis_used` is the first independent sorted normals.

    The rows are stored by depth, and after them the d rows of adj(B),
    whose products with sigma make the numerator adj(B) sigma and which no
    depth checks.  A depth-first search fixes sigma_0, sigma_1, ... in turn
    and carries one list: the partial products with the prefix of every
    row of depth >= k.  A child s = +-1 is first tested on the rows of
    depth k alone, and cut when one of them has a product outside
    {0, +det, -det}, since no completion of it can be a member.  Only a
    child that passes forms its tail, the deeper rows plus or minus column
    k in one map, and hands it down.  At a leaf the list is the numerator,
    and e is kept when sigma is nonzero
    (adj(B) is nonsingular, so then the numerator is nonzero) and the
    numerator is divisible by det; every normal has been checked on the
    way, so nothing is missed.
    """
    ns = _integer_normals(normals)
    if not ns:
        raise ValueError("dual set of no facet normals")
    basis = [ns[i] for i in linalg.independent_rows(ns)]
    d = len(ns[0])
    if len(basis) < d:
        raise ValueError("facet normals do not span R^d")
    adj, det = linalg.adjugate(basis)
    ncols = tuple(zip(*ns))
    row_cols = []
    for c in zip(*adj):
        acc = [0] * len(ns)
        for x, col in zip(c, ncols):
            if x:
                acc = list(map(operator.add, acc, map(operator.mul, col, itertools.repeat(x))))
        row_cols.append(acc)
    # sigma's coordinates in descending order of how many rows are nonzero in them
    order = sorted(range(d), key=lambda j: -sum(map(bool, row_cols[j])))
    row_cols = [row_cols[j] for j in order]
    by_depth = sorted((_depth(r), r) for r in {max(r, tuple(map(operator.neg, r))) for r in zip(*row_cols)})
    widths = [0] * d  # the number of rows of each depth
    for k, _ in by_depth:
        widths[k] += 1
    rows = [r for _, r in by_depth] + [tuple(map(r.__getitem__, order)) for r in adj]
    # column k of the rows of depth k (heads) and of the deeper rows (tails), which the list holds at depth k
    heads, tails, start = [], [], 0
    for k, w in enumerate(widths):
        heads.append([r[k] for r in rows[start : start + w]])
        tails.append([r[k] for r in rows[start + w :]])
        start += w
    ok = {0, det, -det}
    members: list[IntVec] = []

    def search(k: int, part: list[int]) -> None:
        if k == d:
            if any(part) and not any(x % det for x in part):
                members.append(tuple(x // det for x in part))
            return
        w, head, tail = widths[k], heads[k], tails[k]
        rest = part[w:]
        if ok.issuperset(part[:w]):
            search(k + 1, rest)
        for op in (operator.add, operator.sub):
            # map stops at head's end: only the products of the rows of depth k are formed
            if ok.issuperset(map(op, part, head)):
                search(k + 1, list(map(op, rest, tail)))

    search(0, [0] * len(rows))
    return DualSet(members=tuple(sorted(members)), basis_used=tuple(basis))


def normalize_direction(e_raw: Sequence, normals: Sequence[Sequence]) -> IntVec:
    """Rescale the int vector e so its products with all facet normals land in {0, +1, -1}.

    Possible exactly when the nonzero |products| share a single value w;
    the result is e/w, which then belongs to the dual set.  Otherwise
    raises CannotNormalizeError carrying two witnesses with distinct
    nonzero |products|.  A zero e, or an entry that is no int, raises
    ValueError.
    """
    ev = _int_direction(e_raw)
    ns = _integer_normals(normals)
    by_value: dict[int, IntVec] = {}
    for p in ns:
        t = abs(linalg.inner(p, ev))
        if t != 0 and t not in by_value:
            by_value[t] = p
    if len(by_value) > 1:
        (w1, p1), (w2, p2) = sorted(by_value.items())[:2]
        raise CannotNormalizeError(witnesses=((p1, w1), (p2, w2)))
    if not by_value:
        raise ExtensionError("e is orthogonal to every normal; the normals do not span R^d")
    w = next(iter(by_value))
    if any(x % w for x in ev):
        raise ExtensionError(f"e/{w} is not integral; the normals do not generate Z^d")
    return tuple(x // w for x in ev)


def sum_with_segment(cell: VPolytope, dir: Direction) -> VPolytope:
    """Minkowski sum of the cell with the segment b*[-e, e], facet by facet.

    Every facet of the sum either keeps its normal (parallel facets keep
    their support, transversal ones move out by b|<p, e>|) or is the sum
    of a transversal shadow-boundary codim-2 face with the segment; the
    normal of the latter is the positive combination of the face's two
    facet normals that kills e.  Each normal's product with e is formed
    once and serves all three.  Every support is an int over the cell's
    scale Q times the denominator db of b, handed to `hpolytope` as such.
    The rows enter the double description in id order
    (`nearest_first=False`): in order of support the sum of E8 with
    e1 + e2 passes VERTEX_BUDGET.  Redundant inequalities are pruned.
    """
    h = cell.hpoly
    # over the common denominator Q db, with b = nb/db, a support S/Q becomes S db and b|t| becomes nb Q |t|
    nb, db = dir.b.numerator, dir.b.denominator
    shift = nb * h.scale
    sups = [s * db for s in h.supports]
    prods = [linalg.inner(n, dir.e) for n in h.normals]
    pairs: list[tuple[IntVec, int]] = [(n, s + shift * abs(t)) for n, s, t in zip(h.normals, sups, prods)]
    for i, j in polytope.codim2_faces(cell):
        # a transversal ridge lies on two facets whose products with e have opposite signs
        if prods[i] * prods[j] >= 0:
            continue
        wi, wj = abs(prods[i]), abs(prods[j])
        q = tuple(wj * x + wi * y for x, y in zip(h.normals[i], h.normals[j]))
        pairs.append((q, wj * sups[i] + wi * sups[j]))
    summed = polytope.hpolytope(cell.dim, pairs, h.scale * db)
    return prune_to_facets(enumerate_vertices(summed, nearest_first=False))


def voronoi_of_sum_form(a: QuadForm, dir: Direction) -> HPolytope:
    """The Voronoi cell of the rank-1-perturbed form, by the full pipeline."""
    a2 = perturbed_form(a, dir)
    return build_cell(a2, coset_minima(a2).facet_normals())


@dataclass(frozen=True)
class BSampleResult:
    b: Fraction
    sum_cell: VPolytope | None = None  # None when the sample is skipped
    form_cell: VPolytope | None = None
    equal: bool | None = None
    discrepancy: Vec | None = None
    parallelotope: ParallelotopeVerdict | None = None

    @property
    def skipped(self) -> bool:
        return self.sum_cell is None


@dataclass(frozen=True)
class ExtensionReport:
    """Full verdict of the segment-extension equivalence check."""

    dim: int
    e_raw: Vec
    b_samples: tuple[Fraction, ...]
    normalized_e: IntVec | None
    violating: tuple
    results: tuple[BSampleResult, ...]
    irreducible_input: bool | None
    notes: tuple[str, ...]
    invariant_violations: tuple[str, ...]

    @property
    def in_dual_set(self) -> bool:
        return self.normalized_e is not None

    @property
    def theorem_silent(self) -> bool:
        """e cannot be normalized and the cell is reducible, so the theorem says nothing about the sum."""
        return not self.in_dual_set and self.irreducible_input is False

    @property
    def invariants_ok(self) -> bool:
        return not self.invariant_violations


def check_theorem(a: QuadForm, e_raw: Sequence, b_samples: Sequence) -> ExtensionReport:
    """Run both sum constructions across the b samples and compare exactly.

    When the direction normalizes into the dual set, the facet-built sum
    must coincide with the Voronoi cell of the perturbed form (equal
    canonical integer vertex data, `VPolytope.scale` and `points`) and
    pass the parallelotope test; when it cannot normalize and the input
    cell is irreducible, the sum must fail the test.  On a reducible input
    with a non-normalizable direction the parallelotope verdict is reported
    but flagged theorem-silent.  When the double description of the cell,
    a sum or a perturbed form's cell raises VRepCapError, only the
    dual-set verdict is given and every b sample is skipped.

    ValueError and DimensionMismatchError are its input errors, raised
    before any minima are searched, and `voroseg check` maps them to exit
    2: a float or bool entry of e or of a b and an empty b list raise
    ValueError, an e of a length other than the form's dimension
    DimensionMismatchError, and each b's converse `Direction` a zero e or b <= 0.

    A rational e is scaled once to the integer vector den e, den the lcm
    of its denominators, and the segment b*[-e, e] is the one of den e
    with weight b/den.  The report keeps e and the witnesses' products
    with it as given.
    """
    ev = tuple(map(Fraction, linalg.exact_entries(e_raw, "direction")))
    if len(ev) != a.dim:
        raise linalg.DimensionMismatchError(f"direction of length {len(ev)} for a form of dim {a.dim}")
    e_int, den = linalg.scale_to_integers(ev)
    bs = tuple(map(Fraction, linalg.exact_entries(b_samples, "segment weights")))
    if not bs:
        raise ValueError("check_theorem needs at least one segment weight b")
    converse = [Direction(e_int, b / den) for b in bs]
    normals = coset_minima(a).facet_normals()
    try:
        norm_e: IntVec | None = normalize_direction(e_int, normals)
        violating: tuple = ()
    except CannotNormalizeError as exc:
        norm_e = None
        violating = tuple((p, Fraction(w, den)) for p, w in exc.witnesses)
    in_dual = norm_e is not None
    results: list[BSampleResult] = []
    violations: list[str] = []
    notes: tuple[str, ...] = ()
    try:
        cell = voronoi_cell(a)
        irreducible = polytope.irreducibility_graph(cell).connected
        for b, conv in zip(bs, converse):
            dir = Direction(norm_e, b) if in_dual else conv
            sum_cell = sum_with_segment(cell, dir)
            verdict = is_parallelotope(sum_cell)
            if not in_dual:
                if irreducible and verdict.ok:
                    violations.append(f"b={b}: sum is a parallelotope although e cannot be normalized")
                results.append(BSampleResult(b=b, sum_cell=sum_cell, parallelotope=verdict))
                continue
            form_cell = prune_to_facets(enumerate_vertices(voronoi_of_sum_form(a, dir)))
            # (scale, points) depends only on the vertex set, see VPolytope
            equal = (sum_cell.scale, sum_cell.points) == (form_cell.scale, form_cell.points)
            discrepancy: Vec | None = None
            if not equal:
                disc = sorted(set(sum_cell.vertices) ^ set(form_cell.vertices))
                discrepancy = disc[0] if disc else None
                violations.append(f"b={b}: sum != cell of perturbed form")
            if not verdict.ok:
                violations.append(f"b={b}: sum not a parallelotope despite e in dual set")
            results.append(BSampleResult(
                b=b, sum_cell=sum_cell, form_cell=form_cell, equal=equal,
                discrepancy=discrepancy, parallelotope=verdict,
            ))
    except polytope.VRepCapError as exc:
        results, violations, irreducible = [BSampleResult(b=b) for b in bs], [], None
        notes = (f"dual-set verdict only, no vertex-level checks: {exc}",)
    return ExtensionReport(
        dim=a.dim, e_raw=ev, b_samples=bs, normalized_e=norm_e, violating=violating,
        results=tuple(results), irreducible_input=irreducible, notes=notes,
        invariant_violations=tuple(violations),
    )
