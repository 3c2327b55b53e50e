"""Time the re-anchor baseline stages of the ROADMAP and write a results file.

    python3 bench/baseline.py [--out bench/results/baseline.json]

Stages, each with the coset_minima memo cleared first and timed through
the library calls that the CLI makes: the A5* cell and its irreducibility
graph, minima and dual set of E7* and E8, and check_theorem with
b = 1/2, 1, 3 on D4 and A3 for one forward and one converse direction.
Each stage reports the median of its REPEATS runs in wall seconds and in the
benchmark's calibrated seconds (see calibrate.py), and every repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from fractions import Fraction

from calibrate import Clock
from run import import_voroseg

B = (Fraction(1, 2), Fraction(1), Fraction(3))
REPEATS = 3


def stages(v):
    lat, poly, ext = v.lattice, v.polytope, v.extension
    a5s = lat.catalog("An*", 5)

    def a5s_cell():
        return poly.voronoi_cell(a5s)

    cell = a5s_cell()
    out = {
        "A5*.voronoi_cell": a5s_cell,
        "A5*.irreducibility_graph": lambda: poly.irreducibility_graph(cell),
    }
    for name in ("E7*", "E8"):
        form = lat.catalog(name)
        out[f"{name}.coset_minima"] = lambda form=form: lat.coset_minima(form)
        out[f"{name}.coset_minima+dual_set"] = lambda form=form: ext.dual_set(lat.coset_minima(form).facet_normals())
    for name, n, fwd, conv in (("Dn", 4, (0, 0, 0, 1), (1, 2, 0, 0)), ("An", 3, (0, 0, 1), (1, 2, 0))):
        form = lat.catalog(name, n)
        for kind, e in (("forward", fwd), ("converse", conv)):
            out[f"{name}{n}.check_theorem.{kind}"] = lambda form=form, e=e: ext.check_theorem(form, e, B)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "results", "baseline.json"))
    args = ap.parse_args(argv)
    v = import_voroseg()
    clock = Clock()
    results = {}
    for name, fn in stages(v).items():
        cal, wall = [], []
        for _ in range(REPEATS):
            v.lattice.coset_minima.cache_clear()
            t, w, _ = clock.time(fn)
            cal.append(t)
            wall.append(w)
        results[name] = {
            "median_s": statistics.median(cal),
            "median_wall_s": statistics.median(wall),
            "runs_s": cal,
            "runs_wall_s": wall,
        }
        print(f"{name:36s} {statistics.median(cal):8.3f} s calibrated, {statistics.median(wall):8.3f} s wall")
    doc = {
        "what": "ROADMAP re-anchor baseline, re-measured with the seed-commit library",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "stages": results,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
