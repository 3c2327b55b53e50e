"""Exact H/V polytope engine for centrally symmetric cells.

Every H-polytope is stored in integers: int normals, int supports and
one common denominator of the supports, their least (`HPolytope.scale`).
`hpolytope` takes int normals only and int or Fraction supports over an
optional common denominator, merges positively parallel normals by their
primitive integer direction, comparing bounds in ints, and sorts on int
tuples.  Every support the package forms is a(p) or a(p) + b|<p, e>|,
an integer over den(A) den(b), so `build_cell` and the segment sum hand
ints and that denominator down, and no Fraction is formed between the
Gram matrix and the vertices.  Every system built is irredundant, by
Voronoi's theorem for a cell and the normal fan of a Minkowski sum for a
segment sum; `prune_to_facets` checks it, named so while bench/tracer.py pins it.

Vertex enumeration is an incremental double-description pass in integer
arithmetic for centrally symmetric systems only: row last-1-i must be the
opposite of row i with the same support > 0, as in every Voronoi cell and
segment sum, and any other system raises PolytopeError before any
insertion.  Inequalities are integer rows, vertices primitive homogeneous
integer pairs and tight sets bitmasks, and the result keeps the vertices
x as the integer points Q x over one common denominator Q
(`VPolytope.points`).  A Voronoi cell's rows enter nearest first, in
ascending order of support, so fewer vertices are built only to be cut
off later (Fukuda & Prodon 1996; Avis, Bremner & Seidel 1997), and a
segment sum's in id order (`_insertion_order`).  The pass starts from
the parallelepiped that the first d independent rows in that order and
their opposites cut out, its vertices numbered so that 2j+1 is the
mirror image of 2j, and inserts every further row of the first half with
its opposite: the opposite row cuts off the mirror images of what the
row cuts off, and its new vertices are the negated new vertices, found
with no second edge search.  Per inequality, the mask of the vertices on
it persists across insertions, and the ids of a pair cut off go to the
next new pair, so ids stay below the peak live count.  The edges of a simple vertex, tight on exactly d
rows, are read from ANDs of these masks; only between two non-simple
vertices are adjacency candidates counted through them and tested.
Whatever symmetry gives is formed once per mirror pair: one record (q, X),
the even vertex's, whose product with a row gives both slacks; one walk of
a new tight set for its rows' masks and its twin's; the odd points; and
the facet test of the rows past the first half.  On top of it sit the ridges, belts, the tiling
(parallelotope) verifier and the facet graph used for irreducibility.
Facets and ridges are found by counting the facets on a face through the
tight masks the double description keeps per vertex: a facet's vertices
lie on no other inequality, a ridge's on exactly its two facets and a
smaller face's on three or more (Ziegler, Lectures on Polytopes, 2.1);
ridges come in mirror pairs, as the opposites of a ridge's two facets
meet in its antipode, and a facet is centrally symmetric iff its
opposite is.  A ridge's belt is named by the plane of its two facets'
normals, and the belt's direction space is written down from their 2x2
minors (`_belt_space`).  The ridges are kept as facet pairs, ascending:
a ridge's vertices, those on both of its facets, are read by no code in
the package.  Ridges, belts and the tiling verdict are computed once per
cell and kept on it.  A belt keeps its
facets in ascending order, not in their cyclic order about it: the
tiling test and the facet graph read only their count and the ridges.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg, lattice
from .lattice import IntMat, IntVec, QuadForm
from .linalg import Vec

# most live vertices of a double description: over 8!, the most a Voronoi cell of d <= 7 has
VERTEX_BUDGET = 50000


class PolytopeError(Exception):
    pass


class UnboundedCellError(PolytopeError):
    pass


class VRepCapError(PolytopeError):
    pass


class NotParallelotopeError(PolytopeError):
    pass


@dataclass(frozen=True)
class Inequality:
    normal: IntVec
    support: Fraction


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <normals[i], x> <= supports[i] / scale.

    Stored in integers and canonical (`hpolytope`): every normal is an int
    vector, no two are positively parallel, they are sorted
    lexicographically and span R^d, so that a symmetric system is bounded,
    and scale is the least common denominator of the rational supports, so
    equal systems have equal fields.  `ineqs` is the rational view, formed
    on first read.
    """

    dim: int
    normals: tuple[IntVec, ...]
    supports: tuple[int, ...]
    scale: int

    @functools.cached_property
    def ineqs(self) -> tuple[Inequality, ...]:
        """The inequalities with Fraction supports, supports / scale, in the order of normals."""
        q = self.scale
        return tuple(Inequality(n, Fraction(s, q)) for n, s in zip(self.normals, self.supports))


def _insertion_order(h: HPolytope, nearest_first: bool) -> tuple[Sequence[int], list[int]]:
    """The row ids in the order `enumerate_vertices` inserts them, and the first d independent rows among them.

    nearest_first: ascending support, a tie going to the lower id; all
    supports are over one scale, and for a Voronoi cell the support is
    a(p), the norm of the lattice vector p, so the facets of the shortest
    vectors come first.  Else ascending id.  UnboundedCellError if the
    normals do not span R^d.  Of a row and its opposite, with one support,
    the lower id comes first in either order and the other depends on it,
    so a symmetric system's basis lies in its first half.
    """
    order = range(len(h.supports))
    if nearest_first:
        order = sorted(order, key=h.supports.__getitem__)
    ids = linalg.independent_rows([h.normals[i] for i in order])
    if len(ids) < h.dim:
        raise UnboundedCellError("normals do not span R^d; cell is unbounded")
    return order, [order[i] for i in ids]


def hpolytope(dim: int, pairs: Iterable[tuple[Sequence[int], int | Fraction]], scale: int = 1) -> HPolytope:
    """The H-polytope of <normal, x> <= support / scale over the (normal, support) pairs, canonicalised in integers.

    Every normal entry is an int and every support an int or a Fraction;
    anything else, a Fraction normal entry or a float or bool anywhere,
    raises ValueError naming the pair.  scale, a positive int, is a common
    denominator of the supports.  Fraction supports are brought to ints
    over one denominator first, and from there on all is in ints.
    Inequalities are keyed by the primitive direction n / gcd(n); of two
    with one key, the bound s / gcd(n) decides, and of equal bounds the
    smaller gcd(n).  The kept supports and their denominator are divided by
    their gcd, which leaves the least one.  UnboundedCellError if the kept
    normals do not span R^d.
    """
    if type(scale) is not int or scale <= 0:
        raise ValueError(f"support denominator {scale!r}: give a positive int")
    rows = []
    for n, s in pairs:
        n = tuple(n)
        if len(n) != dim:
            raise linalg.DimensionMismatchError("normal length != dim")
        # a float would pass for a value it is not, and a bool for 0 or 1
        if type(s) not in (int, Fraction) or not all(type(x) is int for x in n):
            raise ValueError(f"inequality {(n, s)!r}: give int normal entries and an int or Fraction support")
        rows.append((n, s))
    if Fraction in map(type, (s for _, s in rows)):
        m = lcm(*(s.denominator for _, s in rows))
        rows = [(n, s.numerator * (m // s.denominator)) for n, s in rows]
        scale *= m
    by_dir: dict[IntVec, tuple[int, IntVec, int]] = {}
    for n, s in rows:
        g = gcd(*n)
        if g == 1:
            prim = n
        elif g:
            prim = tuple(x // g for x in n)
        else:
            raise ValueError("zero vector has no direction")
        old = by_dir.get(prim)
        # the tighter bound s/g wins, and of equal bounds the smaller multiple g of the
        # direction, so that n and -n keep opposite normals and a symmetric system stays so
        if old is None or (s * old[0], g) < (old[2] * g, old[0]):
            by_dir[prim] = (g, n, s)
    kept = sorted(by_dir.values(), key=operator.itemgetter(1))
    g = gcd(scale, *(s for _, _, s in kept))
    h = HPolytope(dim, tuple(n for _, n, _ in kept), tuple(s // g for _, _, s in kept), scale // g)
    _insertion_order(h, nearest_first=False)  # raises unless the normals span R^d
    return h


def build_cell(a: QuadForm, normals: Iterable[Sequence[int]]) -> HPolytope:
    """The cell {x : <p, x> <= a(p)} over the given symmetric set of int normals.

    Each support is the int <p, G p> over the integer Gram G = den A
    (`QuadForm.integer_gram`), handed to `hpolytope` over den.
    """
    ns = [tuple(p) for p in normals]
    nset = set(ns)
    g, den = a.integer_gram
    sups: dict[IntVec, int] = {}
    for p in ns:
        m = tuple(map(operator.neg, p))
        if m not in nset:
            raise ValueError(f"normal set not symmetric: missing -{p}")
        # a(-p) = a(p): one product per mirror pair
        sups[p] = sups[m] if m in sups else sum(x * sum(map(operator.mul, row, p)) for x, row in zip(p, g) if x)
    return hpolytope(a.dim, [(p, sups[p]) for p in ns], den)


@dataclass(frozen=True)
class VPolytope:
    """Exact vertex representation with facet incidences.

    scale is Q, the lcm of all vertex denominators, and points the sorted
    integer points Q x of the vertices x; Q depends only on the vertex set,
    so equal (scale, points) means equal vertices.  tights[v] is an int with
    bit i set iff vertex v satisfies inequality i with equality; facet_ids
    are the inequalities whose tight vertex set is (d-1)-dimensional.
    """

    hpoly: HPolytope
    scale: int
    points: tuple[IntVec, ...]
    tights: tuple[int, ...]
    facet_ids: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.hpoly.dim

    @functools.cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices x = points / scale as Fractions, in the order of points."""
        q = self.scale
        return tuple(tuple(Fraction(x, q) for x in p) for p in self.points)

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[i] lists the vertex ids lying on inequality i with equality."""
        rows: list[list[int]] = [[] for _ in self.hpoly.normals]
        for vid, t in enumerate(self.tights):
            while t:
                i = t.bit_length() - 1
                rows[i].append(vid)
                t ^= 1 << i
        return tuple(tuple(r) for r in rows)

    @functools.cached_property
    def _symmetric(self) -> bool:
        """Whether the cell is centrally symmetric as the face layer reads it.

        Negation reverses lexicographic order, so vertex V-1-k must be -k, and
        as inequality n-1-i is the opposite of inequality i, its incidence row
        must be row i's vertices k mapped to V-1-k: the relation of the
        mirrored tight masks, read from `incidence`, which every caller reads anyway.
        """
        pts, inc, last = self.points, self.incidence, len(self.points) - 1
        # each antipodal pair once, from the first half; a middle vertex or row would be its own antipode
        return all(pts[-1 - k] == linalg.vneg(pts[k]) for k in range((len(pts) + 1) // 2)) and all(
            inc[-1 - i] == tuple(last - k for k in reversed(inc[i])) for i in range((len(inc) + 1) // 2)
        )

    @functools.cached_property
    def _ridges(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[IntMat, list[int]], ...]]:
        """The ridges as facet pairs (i, j), i < j, ascending, and per belt its direction space and ridges' indices.

        In a full-dimensional cell a ridge lies on exactly 2 facets (the diamond
        property) and a smaller face on at least 3, so a facet pair is a ridge iff
        its common vertices, at least d - 1 of them, lie on no third facet.  Every
        inequality tight on a ridge has its normal in the plane of the pair's
        normals, so the pair's primitive 2x2 minors, first one positive, name the
        ridge's belt, whose direction space is formed once, from its first ridge's pair (`_belt_space`).
        The cell must be centrally symmetric, as every cell the package builds
        is (else PolytopeError).  Then facets n-1-j < n-1-i, the opposites of
        i < j, meet in the antipode of the ridge, with negated minors and so
        the same key, and only pairs with i + j < n-1 are tested (opposite
        facets share no vertex, as every support is > 0): facets are sorted, so
        the loop over j stops at the first j with i + j >= n-1.
        """
        if not self._symmetric:
            raise PolytopeError("ridges are found in mirror pairs: the cell must be centrally symmetric")
        d = self.dim
        normals = self.hpoly.normals
        last = len(normals) - 1
        facet_mask = sum(1 << i for i in self.facet_ids)
        inc = self.incidence
        # a facet's vertices as a mask, whose AND with another's counts and lists their common ones
        members = [(i, sum(1 << k for k in inc[i])) for i in self.facet_ids]
        cols = list(itertools.combinations(range(d), 2))
        found = []
        for a, (i, mi) in enumerate(members):
            p = normals[i]
            for j, mj in members[a + 1:]:
                if i + j >= last:
                    break
                if (common := mi & mj).bit_count() < d - 1:
                    continue
                pair = 1 << i | 1 << j
                if _meet(self.tights, common, pair) & facet_mask == pair:
                    q = normals[j]
                    minors = [p[k] * q[m] - p[m] * q[k] for k, m in cols]
                    g = gcd(*minors) if _pivot(minors) > 0 else -gcd(*minors)
                    key = tuple(x // g for x in minors)
                    found += [(i, j, key), (last - j, last - i, key)]
        ridges: list[tuple[int, int]] = []
        by_key: dict[IntVec, tuple[IntMat, list[int]]] = {}
        for i, j, key in sorted(found):
            if key not in by_key:
                by_key[key] = (_belt_space(normals[i], normals[j]), [])
            by_key[key][1].append(len(ridges))
            ridges.append((i, j))
        return tuple(ridges), tuple(by_key.values())

    @functools.cached_property
    def _belts(self) -> tuple[Belt, ...]:
        """The ridges' belts, ordered by direction space; read through `belts`.

        Each keeps its direction space, its ridges and its sorted facets.  The
        order is that of the RREF rows, which `check` reports as belt_index.
        """
        ridges, groups = self._ridges
        # a primitive row is its pivot times the RREF row, so over the lcm of all
        # pivots the rows are ints that sort like the RREF rows: the belt order is kept
        den = lcm(*(_pivot(r) for space, _ in groups for r in space))

        def key(group):  # one pivot per row
            return [[x * k for x in r] for r, k in zip(group[0], [den // _pivot(r) for r in group[0]])]

        return tuple(
            Belt(
                direction_space=space,
                face_ids=tuple(face_ids),
                facets=tuple(sorted({f for fi in face_ids for f in ridges[fi]})),
            )
            for space, face_ids in sorted(groups, key=key)
        )

    @functools.cached_property
    def _verdict(self) -> ParallelotopeVerdict:
        """The tiling verdict; read through `is_parallelotope`."""
        if not self._symmetric:
            return ParallelotopeVerdict(ok=False, failure="central-symmetry")
        # through `belts`, not `_belts`: bench/tracer.py counts its calls
        for bi, belt in enumerate(belts(self)):
            if belt.length not in (4, 6):
                return ParallelotopeVerdict(ok=False, failure="belt", belt_index=bi, belt_length=belt.length)
        pts = self.points
        last = len(self.hpoly.normals) - 1
        for i in self.facet_ids:
            # facet n-1-i is the antipode of facet i, and symmetric iff it is
            if 2 * i > last:
                break
            ids = self.incidence[i]
            # a point reflection of the facet reverses their order too: it would map its k-th vertex to its
            # (m-1-k)-th, so the first ceil(m/2) pairs, the middle vertex of an odd facet with itself, must
            # all have the first pair's sum; the second half repeats the first
            centre = linalg.vadd(pts[ids[0]], pts[ids[-1]])
            if any(linalg.vadd(pts[j], pts[k]) != centre for j, k in zip(ids[1:(len(ids) + 1) // 2], ids[-2::-1])):
                return ParallelotopeVerdict(ok=False, failure="facet-symmetry", facet_id=i)
        return ParallelotopeVerdict(ok=True)


def _belt_space(p: IntVec, q: IntVec) -> IntMat:
    """The space orthogonal to independent p and q as RREF rows made primitive in integers, pivot > 0.

    With the minors m(x, y) = p_x q_y - p_y q_x, b the last column where p or
    q is nonzero and a the last column before b with m(a, b) != 0, the vector
    with m(a, b) at j, -m(j, b) at a and -m(a, j) at b is orthogonal to p and q
    (the expansion of a 3x3 determinant with a repeated row).  Between a and b
    m(j, b) = 0, and past b both minors are 0, so these rows for j != a, b,
    made primitive with a positive pivot, are the RREF rows with pivot j.
    """

    def m(x: int, y: int) -> int:
        return p[x] * q[y] - p[y] * q[x]

    b = max(j for j, (x, y) in enumerate(zip(p, q)) if x or y)
    a = next(j for j in range(b - 1, -1, -1) if m(j, b))
    mab = m(a, b)
    rows = []
    for j in range(len(p)):
        if j != a and j != b:
            r = [0] * len(p)
            r[j], r[a], r[b] = mab, -m(j, b), -m(a, j)
            g = gcd(*r) if mab > 0 else -gcd(*r)
            rows.append(tuple(x // g for x in r))
    return tuple(rows)


def _pivot(row: Sequence[int]) -> int:
    """The first nonzero entry of a row."""
    return next(x for x in row if x)


def _meet(masks: dict[int, int] | Sequence[int], ids: int, floor: int) -> int:
    """The AND of masks[j] over the bits j of ids, highest first (-1 over none); stops at floor, in each masks[j]."""
    out = -1
    while ids:
        j = ids.bit_length() - 1
        out &= masks[j]
        if out == floor:
            break
        ids ^= 1 << j
    return out


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, highest first."""
    out = []
    while mask:
        b = mask.bit_length() - 1
        out.append(b)
        mask ^= 1 << b
    return out


def _edge_cuts(d: int, bit: int, minus: list[int], plus_mask: int, alive: int, slack: dict[int, int],
               verts: dict[int, IntVec], tights: dict[int, int], on: list[int]) -> dict[IntVec, int]:
    """The points where row `bit` crosses the edges from the vertices it cuts off to those it keeps, with tight masks.

    minus are the vertices it cuts off, plus_mask those strictly inside it and
    slack every live vertex's product with it.  verts holds the pair (q, X)
    of even ids only: an odd end is (q, -X), its sign applied where it is
    read.  `enumerate_vertices` tells how the edges are read from the masks.
    """
    new_pts: dict[IntVec, int] = {}
    for w in minus:
        tw, sw, vw = tights[w], slack[w], verts[w & ~1]
        rows_w, rest = [], tw
        while rest:
            i = rest.bit_length() - 1
            rows_w.append(i)
            rest ^= 1 << i
        ends = []
        if len(rows_w) == d:
            # w is simple: each d - 1 of its rows meet in an edge, whose live vertices
            # are w and one more, the AND of the other rows' masks without w
            pre = [alive & ~(1 << w)]
            for i in rows_w[:-1]:
                pre.append(pre[-1] & on[i])
            suf = -1
            for c in range(d - 1, -1, -1):
                end = pre[c] & suf
                if end & (end - 1):
                    raise PolytopeError("an edge of the double description holds three vertices")
                if end & plus_mask:
                    ends.append(end.bit_length() - 1)
                suf &= on[rows_w[c]]
        else:
            # at_least[c]: the plus vertices tight on at least c of w's inequalities,
            # so at_least[d-1] are those sharing d - 1 of them with w
            at_least = [plus_mask] + [0] * (d - 1)
            for i in rows_w:
                o = on[i]
                for c in range(d - 1, 0, -1):
                    at_least[c] |= at_least[c - 1] & o
            for u in _bits(at_least[d - 1]):
                # a simple u shares an edge's d - 1 rows with w; else no third live
                # vertex may be tight wherever both are (combinatorial adjacency),
                # and the masks on[i] hold live vertices only
                pair = 1 << u | 1 << w
                if tights[u].bit_count() > d and _meet(on, tights[u] & tw, pair) != pair:
                    continue
                ends.append(u)
        for u in ends:
            su, vu = slack[u], verts[u & ~1]
            # the point su w - sw u; past q, an odd end's sign -1 goes into the other end's slack factor
            fw, fu = -su if w & 1 else su, -sw if u & 1 else sw
            x = [fw * b - fu * a for a, b in zip(vu, vw)]
            x[0] = su * vw[0] - sw * vu[0]
            g = gcd(*x)
            x = tuple(x) if g == 1 else tuple([c // g for c in x])
            # x lies strictly inside [u, w], so a processed inequality is
            # tight at x exactly when it is tight at both ends
            new_pts[x] = new_pts.get(x, 0) | tights[u] & tw | bit
    return new_pts


def _mirror_ids(mask: int) -> int:
    """Swap each even bit of mask with the odd bit above it: the mirror images of vertices numbered in pairs."""
    evens = ((1 << (mask.bit_length() + 1 & ~1)) - 1) // 3  # 0b0101...01
    return (mask & evens) << 1 | mask >> 1 & evens


def _check_budget(live: int) -> None:
    if live > VERTEX_BUDGET:
        raise VRepCapError(f"double description passed the vertex budget of {VERTEX_BUDGET} live vertices")


def enumerate_vertices(h: HPolytope, nearest_first: bool = True) -> VPolytope:
    """Exact vertex enumeration of a centrally symmetric system, by mirror-pair insertion.

    Contract: row last-1-i is the opposite of row i with the same support
    s > 0, as in every Voronoi cell and segment sum, so 0 is interior and
    the polytope is symmetric about it.  Any other system raises
    PolytopeError before any insertion.

    Integer double description: inequality <n, x> <= S/Q, with n the int
    normal, S the int support and Q the system's `scale`, enters as the
    integer row (S, -Q n), and a vertex x as the primitive pair (q, X) with
    q > 0 and x = X/q, so the row's product with the pair, the slack
    Sq - Q<n, X>, has the sign of S/Q - <n, x>.  Tight sets are bitmasks;
    u and w are adjacent iff the vertices on every inequality tight at both
    are exactly u and w (Fukuda & Prodon 1996).  Each inequality's mask of
    the live vertices on it is kept across insertions and only changed
    where vertices leave or arrive.  The ids of a pair cut off are cleared
    from every mask before a new vertex arrives, and the even one goes on a
    free list; new pairs take their ids from it before a fresh id is
    taken, so every id stays below the peak live count.  A pair keeps one
    coordinate record, (q, X) under its even id; the odd vertex is (q, -X),
    and `_edge_cuts` applies that sign where it reads an odd end.  A vertex's tight
    rows have rank d.  When w is simple, tight on exactly d
    rows, those rows are independent and each d - 1 of them cut out an
    edge whose only other live vertex is the AND of their masks without w
    (Ziegler, Lectures on Polytopes, ch. 3): prefix and suffix ANDs give all
    d ends, with no count and no meet test.  Likewise a simple plus vertex
    u that shares d - 1 rows with w shares an edge with it.  Only for two
    non-simple vertices, whose d - 1 common rows need not be independent,
    does the general path run: the plus vertices that share d - 1 tight
    inequalities with w, the only ones that can be adjacent to it, are found
    by counting through the masks in time linear in w's tight set, and the
    meet test decides each (`_edge_cuts`).  The result keeps the integer
    points.  Facets are counted: inequality i is a facet iff its vertices,
    at least d, lie on no other inequality, as a smaller face lies on two
    facets or more.

    The pass starts from the parallelepiped that the first d independent
    rows in insertion order (`_insertion_order`) and their opposites cut
    out: with N their normals and S their supports, the vertex with sign
    pattern sigma is adj(N) (sigma S) / (det(N) Q), tight on row i where
    sigma_i = + and on its opposite where sigma_i = -.  Vertex 2j has the
    pattern sigma with first sign + and vertex 2j+1, its mirror image,
    -sigma: the 2^(d-1) vertices with first sign + are formed and negated.
    Each further row k < last/2 then enters in that order (nearest_first:
    ascending support with a tie to the lower id, so for a Voronoi cell the
    nearest first; else ascending id) with its opposite
    m = last-1-k: k's hyperplane <n, x> = s lies strictly inside m's half-space <n, x> >= -s, so m cuts
    off the mirror images of the vertices k cut off, and m's zero set and
    new vertices are k's mirrored, tight sets mapped i -> last-1-i and
    vertex masks with adjacent bits swapped.  Only k's edges are searched,
    and only a pair's record, the even vertex's, is multiplied by row k:
    the odd vertex's slack is 2Sq minus the even one's.  A new vertex's tight
    set is walked once, for the rows' deltas and, through a table of each
    row's opposite bit, its twin's mask.  After each pair that cuts vertices
    off, more than VERTEX_BUDGET live vertices, twice the records, raise
    VRepCapError, whose message names the budget.  At the end the records are
    scaled to the common denominator and negated for the odd ones, and the
    facet test runs on rows i < n/2: row n-1-i is a facet iff row i is.
    """
    d = h.dim
    normals, supports = h.normals, h.supports
    last = len(normals)
    # row i and row last-1-i are checked together, and a middle row would be its own opposite
    if any(supports[i] <= 0 or supports[-1 - i] != supports[i] or normals[-1 - i] != linalg.vneg(normals[i])
           for i in range((last + 1) // 2)):
        raise PolytopeError("row last-1-i must be the opposite of row i, with the same support > 0")
    den = h.scale
    rows = [(s, *(-den * x for x in n)) for n, s in zip(normals, supports)]
    # the first independent rows in insertion order, all in the first half
    order, basis = _insertion_order(h, nearest_first)
    adj, det = linalg.adjugate([normals[i] for i in basis])
    det_q = det * den
    # on[i] holds the live vertices tight on processed inequality i, valid across
    # insertions as a cut-off pair leaves every mask before its ids are reused
    verts: dict[int, IntVec] = {}  # the pair (q, X) of each even id; its twin is (q, -X)
    tights: dict[int, int] = {}
    on = [0] * last
    flip = [1 << (last - 1 - i) for i in range(last)]  # flip[i]: the bit of row i's opposite
    for half in itertools.product((1, -1), repeat=d - 1):
        sigma = (1, *half)
        j = 2 * len(verts)
        x = [sum(a * s * supports[i] for a, s, i in zip(r, sigma, basis)) for r in adj]
        g = gcd(det_q, *x) if det_q > 0 else -gcd(det_q, *x)
        verts[j] = (det_q // g, *(c // g for c in x))
        t = [i if s > 0 else last - 1 - i for s, i in zip(sigma, basis)]
        tights[j], tights[j + 1] = sum(1 << i for i in t), sum(flip[i] for i in t)
        for i in t:
            on[i] |= 1 << j
            on[last - 1 - i] |= 2 << j
    alive = (1 << 2 * len(verts)) - 1
    next_id = 2 * len(verts)
    free: list[int] = []  # the even ids of the pairs cut off, not yet reused
    for k in order:
        if k >= last // 2 or k in basis:
            continue
        m, bit, row = last - 1 - k, 1 << k, rows[k]
        two_s = 2 * row[0]
        slack = {j: sum(map(operator.mul, row, v)) for j, v in verts.items()}
        slack.update([(j + 1, two_s * verts[j][0] - t) for j, t in slack.items()])
        minus = [j for j, t in slack.items() if t < 0]
        zero = [j for j, t in slack.items() if not t]
        on[k] = sum(1 << j for j in zero)
        for j in zero:
            tights[j] |= bit
        if minus:
            cut = sum(1 << j for j in minus)
            new_pts = _edge_cuts(d, bit, minus, alive & ~cut & ~on[k], alive, slack, verts, tights, on)
            # k cuts off the vertices in minus and m their mirror images
            gone = cut | _mirror_ids(cut)
            touched = 0
            for w in minus:
                touched |= tights.pop(w) | tights.pop(w ^ 1)
                del verts[w & ~1]
                free.append(w & ~1)
            for i in _bits(touched):
                on[i] &= ~gone
            # added[i]: the new even vertices on row i, each tight set walked once
            added = [0] * last
            for x, t in new_pts.items():
                if free:
                    j = free.pop()
                else:
                    j = next_id
                    next_id += 2
                verts[j] = x
                mirrored, rest, vbit = 0, t, 1 << j
                while rest:
                    i = rest.bit_length() - 1
                    rest ^= 1 << i
                    added[i] |= vbit
                    mirrored |= flip[i]
                tights[j], tights[j + 1] = t, mirrored
            # row k's new vertices are even, so row m's deltas are k's shifted by one
            for i, mask in enumerate(added):
                if mask:
                    on[i] |= mask
                    on[last - 1 - i] |= mask << 1
            new = added[k]
            alive = alive & ~gone | new | new << 1
            _check_budget(2 * len(verts))
        for j in zero:
            tights[j ^ 1] |= 1 << m
        on[m] = _mirror_ids(on[k])
    # a primitive pair's q is the lcm of the reduced denominators of X/q, so common_q
    # is that of all vertex denominators; the integer points sort like the rationals
    common_q = lcm(*(v[0] for v in verts.values()))
    scaled: dict[int, IntVec] = {}
    for j, v in verts.items():
        c = common_q // v[0]
        scaled[j] = x = tuple([y * c for y in v[1:]])
        scaled[j + 1] = tuple(map(operator.neg, x))
    by_point = sorted(scaled, key=scaled.__getitem__)
    # row last-1-i is a facet iff row i is: its vertices are the mirror images
    half = [i for i in range(last // 2) if on[i].bit_count() >= d and _meet(tights, on[i], 1 << i) == 1 << i]
    return VPolytope(
        hpoly=h,
        scale=common_q,
        points=tuple(scaled[j] for j in by_point),
        tights=tuple(tights[j] for j in by_point),
        facet_ids=(*half, *(last - 1 - i for i in reversed(half))),
    )


def prune_to_facets(v: VPolytope) -> VPolytope:
    """v when every inequality is a facet, else PolytopeError naming the first that is not.

    A cell's rows are facets by Voronoi's theorem and a sum's by the normal
    fan of a Minkowski sum, so nothing is pruned: the name stays only while
    bench/tracer.py pins it.
    """
    n = len(v.hpoly.normals)
    if len(v.facet_ids) < n:
        i = next(k for k, f in enumerate((*v.facet_ids, n)) if k != f)  # facet_ids ascend
        raise PolytopeError(f"row {i} of {n}, normal {v.hpoly.normals[i]}, is no facet")
    return v


def codim2_faces(v: VPolytope) -> tuple[tuple[int, int], ...]:
    """All (d-2)-faces, each as the pair (i, j), i < j, of the facets it lies on, in ascending order.

    Computed once per cell and kept on it.  A ridge's vertices are those on
    both facets; a face of any other dimension, such as the contact face of
    a lattice vector, is found by the test oracles from the cell's points.
    """
    return v._ridges[0]


@dataclass(frozen=True)
class Belt:
    """The ridges of a cell that share one direction space, and the facets on them.

    `facets` lists them in ascending order, not in their cyclic order about
    the belt: the tiling test and the facet graph read only their count
    (`length`) and the ridges.
    """

    direction_space: IntMat  # RREF rows of (aff F - aff F) for each ridge F on it, each a primitive integer row
    face_ids: tuple[int, ...]   # indices into codim2_faces(v)
    facets: tuple[int, ...]     # the facets on its ridges, ascending

    @property
    def length(self) -> int:
        return len(self.facets)


def belts(v: VPolytope) -> tuple[Belt, ...]:
    """Codim-2 faces grouped by exact direction space, each with its facets.

    Computed once per cell and kept on it, like its codim-2 faces.
    """
    # each call still reads the ridges through codim2_faces, whose spans bench/tracer.py counts
    codim2_faces(v)
    return v._belts


@dataclass(frozen=True)
class ParallelotopeVerdict:
    ok: bool
    failure: str | None = None          # "central-symmetry" | "belt" | "facet-symmetry"
    belt_index: int | None = None
    belt_length: int | None = None
    facet_id: int | None = None


def is_parallelotope(v: VPolytope) -> ParallelotopeVerdict:
    """Venkov-McMullen test: central symmetry, 4/6-belts, symmetric facets.

    Computed once per cell and kept on it, like its belts.
    """
    return v._verdict


@dataclass(frozen=True)
class FacetGraph:
    """Facet +/- pairs joined when they share a codim-2 face on a 6-belt."""

    pairs: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    connected: bool


def irreducibility_graph(v: VPolytope) -> FacetGraph:
    verdict = is_parallelotope(v)
    if not verdict.ok:
        raise NotParallelotopeError(f"input is not a parallelotope: {verdict}")
    # inequality n-1-i is the opposite of inequality i, as `_ridges` relies on
    last = len(v.hpoly.normals) - 1
    pairs = [(i, last - i) for i in v.facet_ids if 2 * i < last]
    pair_of = {i: k for k, pair in enumerate(pairs) for i in pair}
    ridges = codim2_faces(v)
    edges: set[tuple[int, int]] = set()
    for belt in belts(v):
        if belt.length != 6:
            continue
        for fi in belt.face_ids:
            a, b = ridges[fi]
            pa, pb = pair_of[a], pair_of[b]
            if pa != pb:
                edges.add((min(pa, pb), max(pa, pb)))
    adj: dict[int, set[int]] = {i: set() for i in range(len(pairs))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0} if pairs else set()
    stack = [0] if pairs else []
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return FacetGraph(
        pairs=tuple(pairs),
        edges=tuple(sorted(edges)),
        connected=len(seen) == len(pairs),
    )


def voronoi_cell(a: QuadForm) -> VPolytope:
    """The Voronoi cell of the form, with exact vertices and incidences.

    Raises VRepCapError, from `enumerate_vertices`, when the double
    description passes VERTEX_BUDGET.
    """
    normals = lattice.coset_minima(a).facet_normals()
    return enumerate_vertices(build_cell(a, normals))
