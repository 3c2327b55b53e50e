"""Command-line front end: cells, relevant vectors, dual sets, theorem checks.

Commands
    cell          H-representation and, within the vertex budget, vertices of a cell
    relevant      parity-class minima and facet normals
    dual-set      all free directions of a cell's facet normals
    check         run the segment-extension equivalence check for one e
    verify        tiling (parallelotope) verdict plus irreducibility
    catalog-list  named lattices
    report        per-lattice summary table (markdown + JSON)

Past `polytope.VERTEX_BUDGET` live vertices, `cell` gives the H-representation
only, `check` the dual-set verdict only, `report` n/a for irreducibility, and
`verify` exits 2; each prints the VRepCapError message, which names the budget.

All JSON payloads use exact rational strings; only the OFF export renders
decimals.  Exit code is 1 when a check's report invariants fail and 2 when
the input is bad (as for argparse's own usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from . import extension, jsonio, lattice, linalg, polytope
from .lattice import catalog, coset_minima


def _input_error(command: str, why: str) -> NoReturn:
    print(f"voroseg {command}: error: {why}", file=sys.stderr)
    raise SystemExit(2)  # 1 means a check's invariants failed


def _within_cap(n) -> None:
    """Every command enumerates minima, so a dimension above their cap is bad input."""
    if type(n) is int and n > lattice.DEFAULT_DIM_CAP:
        raise lattice.DimensionCapError(f"dimension {n} exceeds enumeration cap {lattice.DEFAULT_DIM_CAP}")


def _load_form(args) -> tuple[lattice.QuadForm, dict]:
    """The form of the one source given, and the --job document ({} without one), read once.

    Bad input exits with status 2, a catalog n before its form is built.
    """
    flags = [f for f in ("--job", "--form", "--lattice") if hasattr(args, f[2:])]
    given = [f for f in flags + ["--n"] if getattr(args, f[2:]) is not None]
    if given not in (["--job"], ["--form"], ["--lattice"], ["--lattice", "--n"]):
        why = " and ".join(given) + " given" if given else "no form given"
        _input_error(args.command, f"{why}: give exactly one of {', '.join(flags)}, and --n only with --lattice")
    job: dict = {}
    try:
        if given == ["--job"]:
            job = json.loads(Path(args.job).read_text())
            if isinstance(job, dict) and "catalogName" in job:
                _within_cap(job.get("n"))
                return catalog(job["catalogName"], job.get("n")), job
            a = jsonio.form_from_dict(job)  # which refuses any document but a dict
        elif given == ["--form"]:
            a = jsonio.form_from_dict(json.loads(Path(args.form).read_text()))
        else:
            _within_cap(args.n)
            return catalog(args.lattice, args.n), job
        _within_cap(a.dim)
    except (OSError, ValueError, lattice.LatticeError) as exc:  # JSONDecodeError is a ValueError
        _input_error(args.command, str(exc))
    return a, job


def _rationals(entries) -> tuple[Fraction, ...] | None:
    """A list's entries as Fractions, or None unless it is a list of exact rationals.

    Entries are integers or strings such as "1/2", as `linalg.parse_rational`
    reads them; a float or a bool is refused, not rewritten.
    """
    if not isinstance(entries, list):
        return None
    try:
        return tuple(linalg.parse_rational(x) for x in entries)
    except ValueError:
        return None


def _direction(entries, dim: int) -> tuple[int, ...]:
    """The direction e as integers; any other input exits with status 2."""
    e = _rationals(entries)
    if e is None or len(e) != dim or not any(e) or any(x.denominator != 1 for x in e):
        _input_error("check", f"e must be {dim} integers, not all zero; got {entries!r}")
    return tuple(int(x) for x in e)


def _weights(entries) -> tuple[Fraction, ...]:
    """The segment weights b; any other input than positive rationals exits with status 2."""
    b = _rationals(entries)
    if not b or any(x <= 0 for x in b):
        _input_error("check", f"b must be a non-empty list of positive rationals; got {entries!r}")
    return b


def _write(command: str, path: str, text: str) -> None:
    """Write an output file; a path that cannot be written exits with status 2."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _input_error(command, str(exc))


def _emit(args, doc: dict, summary: str) -> None:
    print(summary)
    if getattr(args, "json", None):
        _write(args.command, args.json, jsonio.dumps(doc))
        print(f"wrote {args.json}")


def cmd_cell(args) -> int:
    a, _ = _load_form(args)
    if args.off and a.dim > 3:
        _input_error("cell", f"--off needs d <= 3; got d {a.dim}")
    doc: dict = {"form": jsonio.form_to_dict(a)}
    try:
        v = polytope.voronoi_cell(a)
    except polytope.VRepCapError as exc:
        h = polytope.build_cell(a, coset_minima(a).facet_normals())
        doc["cell"] = jsonio.hrep_to_dict(h)
        doc["cell"]["note"] = f"H-representation only: {exc}"
        summary = f"cell: dim {a.dim}, {len(h.ineqs)} facets (H-rep only: {exc})"
    else:
        belts = polytope.belts(v)
        doc["cell"] = jsonio.cell_to_dict(v, belts)
        lengths = sorted(b.length for b in belts)
        summary = (
            f"cell: dim {a.dim}, {len(v.facet_ids)} facets, "
            f"{len(v.points)} vertices, belt lengths {lengths}"
        )
        if args.off:
            _write("cell", args.off, jsonio.to_off(v))
            summary += f"; wrote OFF to {args.off}"
    _emit(args, doc, summary)
    return 0


def cmd_relevant(args) -> int:
    a, _ = _load_form(args)
    cs = coset_minima(a)
    doc = {"form": jsonio.form_to_dict(a), "contacts": jsonio.contacts_to_dict(cs)}
    summary = (
        f"relevant: dim {a.dim}, {len(cs.contact_vectors())} contact vectors, "
        f"{len(cs.facet_normals())} facet normals over {len(cs.classes)} classes"
    )
    _emit(args, doc, summary)
    return 0


def cmd_dual_set(args) -> int:
    a, _ = _load_form(args)
    ds = extension.dual_set(coset_minima(a).facet_normals())
    doc = {"form": jsonio.form_to_dict(a), "dual_set": jsonio.dual_set_to_dict(ds)}
    _emit(args, doc, f"dual-set: {len(ds.members)} members")
    return 0


def cmd_check(args) -> int:
    a, job = _load_form(args)
    e = args.e or job.get("e")
    bs = args.b or job.get("b")
    if e is None:
        _input_error("check", "needs --e (or a --job file with an e entry)")
    e = _direction(e, a.dim)
    bs = (Fraction(1),) if bs is None else _weights(bs)
    rep = extension.check_theorem(a, e, bs)
    doc = {"form": jsonio.form_to_dict(a), "report": jsonio.report_to_dict(rep)}
    status = "ok" if rep.invariants_ok else "INVARIANT VIOLATION"
    if all(r.skipped for r in rep.results):
        status += ", " + rep.notes[0]
    summary = (
        f"check: e={list(e)} in_dual_set={rep.in_dual_set} "
        f"normalized={list(rep.normalized_e) if rep.normalized_e else None} "
        f"irreducible={rep.irreducible_input} theorem_silent={rep.theorem_silent} [{status}]"
    )
    _emit(args, doc, summary)
    return 0 if rep.invariants_ok else 1


def cmd_verify(args) -> int:
    a, _ = _load_form(args)
    try:
        v = polytope.voronoi_cell(a)
    except polytope.VRepCapError as exc:
        _input_error("verify", f"needs vertices; {exc}")
    verdict = polytope.is_parallelotope(v)
    graph = polytope.irreducibility_graph(v) if verdict.ok else None
    doc = {
        "form": jsonio.form_to_dict(a),
        "parallelotope": jsonio.verdict_to_dict(verdict),
        "irreducible": graph.connected if graph else None,
        "facet_pairs": len(graph.pairs) if graph else None,
    }
    summary = (
        f"verify: parallelotope={verdict.ok} "
        f"irreducible={graph.connected if graph else 'n/a'}"
    )
    _emit(args, doc, summary)
    return 0 if verdict.ok else 1


DEFAULT_REPORT = "Zn:2,Zn:3,An:2,An:3,An*:3,Dn:4"


def cmd_report(args) -> int:
    rows = []
    for spec in args.lattices.split(","):
        name, _, n = spec.strip().partition(":")
        try:
            n = int(n) if n else None
            _within_cap(n)
            a = catalog(name, n)
        except (ValueError, lattice.LatticeError) as exc:
            _input_error("report", f"lattice spec {spec.strip()!r}: {exc}")
        cs = coset_minima(a)
        normals = cs.facet_normals()
        ds = extension.dual_set(normals)
        try:
            cell = polytope.voronoi_cell(a)
        except polytope.VRepCapError:
            irreducible: bool | str = "n/a"
        else:
            irreducible = polytope.irreducibility_graph(cell).connected
        sample = list(ds.members[0]) if ds.members else None
        rows.append(
            {
                "lattice": spec.strip(),
                "dim": a.dim,
                "facet_normals": len(normals),
                "contact_vectors": len(cs.contact_vectors()),
                "dual_set": len(ds.members),
                "irreducible": irreducible,
                "free_direction": sample,
            }
        )
    header = "| lattice | dim | facets | contacts | dual set | irreducible | free direction |"
    sep = "|---|---|---|---|---|---|---|"
    lines = [header, sep]
    for r in rows:
        free = r["free_direction"]
        lines.append(
            f"| {r['lattice']} | {r['dim']} | {r['facet_normals']} | "
            f"{r['contact_vectors']} | {r['dual_set']} | {r['irreducible']} | "
            f"{free if free is not None else 'none'} |"
        )
    md = "\n".join(lines)
    print(md)
    if args.json:
        _write("report", args.json, jsonio.dumps({"rows": rows}))
        print(f"wrote {args.json}")
    if args.md:
        _write("report", args.md, md + "\n")
        print(f"wrote {args.md}")
    return 0


def cmd_catalog_list(args) -> int:
    print("parametric: Zn (n>=1), An, An* (n>=1), Dn, Dn* (n>=3)")
    print("fixed: E6, E6* (dim 6), E7, E7* (dim 7), E8 (dim 8)")
    return 0


def _add_form_args(p: argparse.ArgumentParser, with_job: bool = False) -> None:
    p.add_argument("--form", help="path to a JSON form document {dim, gram}")
    p.add_argument("--lattice", help="catalog name, e.g. An, Dn, E6*")
    p.add_argument("--n", type=int, help="dimension for parametric catalog names")
    p.add_argument("--json", help="write the full JSON document here")
    if with_job:
        p.add_argument("--job", help="JSON job file {form|catalogName, e, b}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="voroseg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cell", help="cell of a form: facets, vertices, belts")
    _add_form_args(p)
    p.add_argument("--off", help="write an OFF file (d <= 3)")
    p.set_defaults(fn=cmd_cell)

    p = sub.add_parser("relevant", help="parity-class minima and facet normals")
    _add_form_args(p)
    p.set_defaults(fn=cmd_relevant)

    p = sub.add_parser("dual-set", help="free directions of the facet normals")
    _add_form_args(p)
    p.set_defaults(fn=cmd_dual_set)

    p = sub.add_parser("check", help="segment-extension equivalence check")
    _add_form_args(p, with_job=True)
    p.add_argument("--e", type=lambda s: s.split(","), help="direction, e.g. 0,1")
    p.add_argument("--b", type=lambda s: s.split(","), help="weights, e.g. 1/2,1,3")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="parallelotope verdict and irreducibility")
    _add_form_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog-list", help="list known lattice names")
    p.set_defaults(fn=cmd_catalog_list)

    p = sub.add_parser("report", help="summary table over catalog lattices")
    p.add_argument("--lattices", default=DEFAULT_REPORT,
                   help=f"comma list of specs like Dn:4 or E6* (default {DEFAULT_REPORT})")
    p.add_argument("--json", help="write rows as JSON here")
    p.add_argument("--md", help="write the markdown table here")
    p.set_defaults(fn=cmd_report)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
