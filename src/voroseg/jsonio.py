"""JSON (rational strings) and OFF serialization.

Every coordinate and form value is rendered as an exact rational string
"p/q" (or "p" when the denominator is 1); counts and dimensions stay as
JSON numbers.  Vertices and supports are rendered straight from a cell's
integer points or an H-polytope's integer supports and their common
denominator (`VPolytope.points` and `scale`, `HPolytope.supports` and
`scale`), with one gcd per number and no Fraction formed.  A document is rendered in one pass,
byte-identical to `json.dumps(obj, sort_keys=True, indent=2)`: the stdlib
uses its C encoder only without `indent`, and its pure-Python one spends
generator frames on every vector entry.  So a list of ints or of strings
is one join, a list of nonempty int vectors (minima, dual-set members,
bases, incidences) one join per vector, and true, false and null are
written as literals; only a float or an empty container reaches
`json.dumps`.  The writers hand the package's tuples to `dumps` uncopied:
a tuple renders as a list, the empty one as [].  The OFF export is the single
deliberately lossy surface: display-only decimals at 12 significant digits.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from math import gcd
from typing import Sequence

from . import linalg, polytope
from .extension import DualSet, ExtensionReport
from .lattice import ContactVectorSet, QuadForm, make_form
from .polytope import Belt, ParallelotopeVerdict, VPolytope


def rat(x) -> str:
    """An int or a Fraction as "p/q", or "p" when the denominator is 1."""
    if isinstance(x, Fraction) or type(x) is int:
        return str(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def rat_vec(v: Sequence) -> list[str]:
    return [rat(x) for x in v]


def rat_mat(m) -> list[list[str]]:
    return [rat_vec(r) for r in m]


def _over(xs: Sequence[int], q: int) -> list[str]:
    """Each int x over the int q > 0 as `rat` renders Fraction(x, q), by one gcd and no Fraction."""
    gs = [gcd(x, q) for x in xs]
    return [str(x // g) if g == q else f"{x // g}/{q // g}" for x, g in zip(xs, gs)]


def _vertex_strings(v: VPolytope) -> list[list[str]]:
    """The vertices points / scale, each coordinate as `rat` renders its Fraction."""
    q = v.scale
    return [_over(p, q) for p in v.points]


def dumps(obj) -> str:
    """obj as `json.dumps(obj, sort_keys=True, indent=2)` renders it, plus a newline."""
    out: list[str] = []
    _render(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _int_vectors(x, nl: str) -> str:
    """x's nonempty int vectors, one join each, on lines that start with nl.

    Not inside `_render`: before Python 3.12, a comprehension there makes the
    locals it reads closure cells on every call.
    """
    deeper = nl + "  "
    sep, close = "," + deeper, nl + "]"
    return ("," + nl).join(["[" + deeper + sep.join(map(int.__repr__, v)) + close for v in x])


def _render(x, nl: str, out: list[str]) -> None:
    """Append the JSON of x to out; nl is a newline and the indent of x's own line."""
    if isinstance(x, (list, tuple)) and x:
        inner = nl + "  "
        kinds = set(map(type, x))
        if kinds == {int}:
            out += ("[", inner, ("," + inner).join(map(int.__repr__, x)), nl, "]")
        elif kinds == {str}:
            out += ("[", inner, ("," + inner).join(map(_string, x)), nl, "]")
        elif (kinds <= {list, tuple} and all(x) and type(x[0][0]) is int
              and set(map(type, itertools.chain.from_iterable(x))) == {int}):
            # the first entry turns away the vertex lists, whose entries are strings, in O(1)
            out += ("[", inner, _int_vectors(x, inner), nl, "]")
        else:
            sep = "[" + inner
            for y in x:
                out.append(sep)
                _render(y, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif type(x) is str:
        out.append(_string(x))
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif isinstance(x, dict) and x:
        inner = sep = nl + "  "
        out.append("{")
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out += (sep, _string(k), ": ")
            _render(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif x is None:
        out.append("null")
    else:  # a float, an empty list or dict; any type JSON lacks raises TypeError
        out.append(json.dumps(x))


def form_to_dict(a: QuadForm) -> dict:
    return {"dim": a.dim, "gram": rat_mat(a.gram)}


def form_from_dict(doc) -> QuadForm:
    """The form of a JSON document {dim, gram}; a document without a list of lists as gram raises ValueError.

    A gram that is a list of lists goes to `make_form` as given, which
    refuses a ragged or empty Gram, a bad entry and a Gram above the cap.
    """
    if isinstance(doc, dict) and "form" in doc:  # allow re-ingesting documents that embed their form
        doc = doc["form"]
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValueError("no form: expected a gram (or form, or catalogName) entry")
    rows = doc["gram"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("gram must be a square list of rows")
    a = make_form(rows)
    if "dim" in doc and (type(doc["dim"]) is not int or doc["dim"] != a.dim):  # as for n, 4.0 and true are refused
        raise ValueError(f"declared dim {doc['dim']} != gram size {a.dim}")
    return a


def contacts_to_dict(cs: ContactVectorSet) -> dict:
    return {
        "dim": cs.dim,
        "classes": [
            {
                "parity": cl.parity,
                "min_norm": rat(cl.min_norm),
                "minima": cl.minima,
                "relevant": cl.relevant,
            }
            for cl in cs.classes
        ],
        "contact_count": cs.contact_count,
        "facet_normal_count": cs.facet_normal_count,
    }


def verdict_to_dict(v: ParallelotopeVerdict) -> dict:
    out: dict = {"ok": v.ok}
    if v.failure is not None:
        out["failure"] = v.failure
    if v.belt_index is not None:
        out["belt_index"] = v.belt_index
        out["belt_length"] = v.belt_length
    if v.facet_id is not None:
        out["facet_id"] = v.facet_id
    return out


def cell_to_dict(v: VPolytope, belts: Sequence[Belt]) -> dict:
    out = hrep_to_dict(v.hpoly)
    out["vertex_count"] = len(v.points)
    out["vertices"] = _vertex_strings(v)
    out["incidence"] = v.incidence
    out["belt_lengths"] = sorted(b.length for b in belts)
    return out


def hrep_to_dict(h: polytope.HPolytope) -> dict:
    """The inequalities, each support rendered from the H-polytope's integer supports and scale."""
    return {
        "dim": h.dim,
        "ineqs": [
            {"normal": rat_vec(n), "support": s}
            for n, s in zip(h.normals, _over(h.supports, h.scale))
        ],
        "facet_count": len(h.normals),
    }


def dual_set_to_dict(ds: DualSet) -> dict:
    return {
        "count": len(ds.members),
        "members": ds.members,
        "basis_used": ds.basis_used,
    }


def report_to_dict(rep: ExtensionReport) -> dict:
    results = []
    for r in rep.results:
        if r.skipped:
            results.append({"b": rat(r.b), "skipped": True})
            continue
        entry: dict = {
            "b": rat(r.b),
            "skipped": False,
            "sum_facet_count": len(r.sum_cell.facet_ids),
            "sum_vertices": _vertex_strings(r.sum_cell),
            "parallelotope": verdict_to_dict(r.parallelotope),
        }
        if r.equal is not None:
            entry["equal"] = r.equal
            # equal cells have equal (scale, points), so the sum's strings serve
            entry["form_cell_vertices"] = entry["sum_vertices"] if r.equal else _vertex_strings(r.form_cell)
            if r.discrepancy is not None:
                entry["discrepancy_vertex"] = rat_vec(r.discrepancy)
        results.append(entry)
    return {
        "dim": rep.dim,
        "e_raw": rat_vec(rep.e_raw),
        "b_samples": [rat(b) for b in rep.b_samples],
        "normalized_e": rep.normalized_e,
        "in_dual_set": rep.in_dual_set,
        "cannot_normalize_witnesses": [
            {"normal": p, "abs_product": rat(w)} for p, w in rep.violating
        ],
        "results": results,
        "irreducible_input": rep.irreducible_input,
        "theorem_silent": rep.theorem_silent,
        "notes": rep.notes,
        "invariants_ok": rep.invariants_ok,
        "invariant_violations": rep.invariant_violations,
    }


def _cycle_vertex_ids(v: VPolytope, ids: Sequence[int], normal: Sequence[int] | None) -> list[int]:
    """Order the vertices of a 2D face counterclockwise around its centroid.

    A facet of a 3D cell is ordered in the plane of the coordinates other
    than the last one k where its outward normal is nonzero, one to one on
    the facet, and counterclockwise as seen from outside.
    """
    pts = [v.points[i] for i in ids]
    total = functools.reduce(linalg.vadd, pts)
    # the offsets from the centroid times len(pts) * scale > 0: the same angular order
    rel = [tuple(len(pts) * x - t for x, t in zip(p, total)) for p in pts]
    if normal is not None:
        k = max(j for j, x in enumerate(normal) if x)
        rel = [r[:k] + r[k + 1 :] for r in rel]
    order = [ids[i] for i in _angular_order(list(enumerate(rel)))]
    # counterclockwise in that plane is about +e_k for k = 0 or 2 and about -e_k for k = 1
    if normal is not None and (normal[k] > 0) == (k == 1):
        order.reverse()
    return order


def _angular_order(vectors: list[tuple[int, Sequence[int]]]) -> list[int]:
    """Sort ids by the exact counterclockwise angle of 2D vectors."""

    def half(u: Sequence[int]) -> int:
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(a: tuple[int, Sequence[int]], b: tuple[int, Sequence[int]]) -> int:
        ha, hb = half(a[1]), half(b[1])
        if ha != hb:
            return ha - hb
        cr = a[1][0] * b[1][1] - a[1][1] * b[1][0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    return [i for i, _ in sorted(vectors, key=functools.cmp_to_key(cmp))]


def to_off(v: VPolytope) -> str:
    """OFF rendering for d <= 3; decimal coordinates, display only."""
    d = v.dim
    if d > 3:
        raise ValueError("OFF export is limited to d <= 3")

    def coord(x: Fraction) -> str:
        return f"{float(x):.12g}"

    lines = ["OFF"]
    verts = [" ".join(coord(c) for c in x) + (" 0" * (3 - d)) for x in v.vertices]
    if d == 3:
        faces = [
            _cycle_vertex_ids(v, v.incidence[i], v.hpoly.normals[i]) for i in v.facet_ids
        ]
        nedges = len(polytope.codim2_faces(v))
    elif d == 2:
        faces = [_cycle_vertex_ids(v, range(len(v.vertices)), None)]
        nedges = len(v.vertices)
    else:
        faces = []
        nedges = len(v.vertices) - 1
    lines.append(f"{len(v.vertices)} {len(faces)} {nedges}")
    lines.extend(verts)
    for f in faces:
        lines.append(str(len(f)) + " " + " ".join(str(i) for i in f))
    return "\n".join(lines) + "\n"
