"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is one `voroseg` subcommand, given as the argv that `voroseg.cli.main`
takes, plus what the benchmark knows about its answer.  Catalog forms and
their directions are fixed, so their output digests are the same for every
seed and are checked against `golden.json` on every run.  Random forms come
from the workload seed; their digests are checked only for DEFAULT_SEED,
and on every seed the `check` verdict must match the label the generator
gave the direction.

The generator may call the library (to list a form's facet normals and
dual set); it runs before any timed region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
B_SAMPLES = "1/2,1,3"

# Cell sizes from the literature (Conway & Sloane ch. 21): lattice -> (vertices, facets).
CELL_COUNTS = {
    "An3": (14, 12),
    "An*3": (24, 14),
    "Dn4": (24, 24),
    "An*4": (120, 30),
    "An*5": (720, 62),
    **{f"Zn{d}": (2 ** d, 2 * d) for d in range(1, 9)},
}
# Irreducibility of the catalog cells in verify jobs: Zd is a direct sum of
# segments, the root lattices and their duals are irreducible.
IRREDUCIBLE = {"An*4": True, "An5": True, "Dn5": True, "Dn*5": True, "An*5": True, "Zn5": False}
# Dual sets known to be empty: no free directions.
EMPTY_DUAL_SETS = {"E6*", "E7*", "E8"}

WORKLOADS = ("theorem_mix", "cell_census", "dual_census")

# (catalog name, n) per workload; n is None for the fixed-dimension E lattices.
THEOREM_CATALOG = [("An", 2), ("An", 3), ("An*", 3), ("Dn", 4), ("An", 4)]
CELL_CATALOG = [("An*", 4), ("An", 5), ("Dn", 5), ("Dn*", 5), ("Zn", 5), ("An*", 5)]
# A7 and D7 are left out to keep a run short; their duals, with the larger
# normal sets, stay.
DUAL_CATALOG = [("E6", None), ("E6*", None), ("E7", None), ("E7*", None), ("E8", None)] + [
    ("An", 6), ("An*", 6), ("Dn", 6), ("Dn*", 6), ("An*", 7), ("Dn*", 7)
]
# Untimed cells whose sizes are checked against CELL_COUNTS on theorem_mix,
# whose timed jobs produce no cell of their own.
THEOREM_REFERENCE_CELLS = [("An", 3), ("An*", 3), ("Dn", 4), ("Zn", 3)]


def random_form_gram(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Random rational Gram matrix, positive definite by diagonal dominance.

    Like the acceptance suite's generator, the diagonal exceeds each row's
    absolute sum by 1 or 3/2, so the cell is a zonotope whose combinatorial
    type is set by which off-diagonal entries are nonzero.  Here those form
    a path through the coordinates in random order, with random values in
    {+-1/2, +-1}: every seed gives a cell of one type (30 facets and 162
    vertices for d = 5), so a job's cost barely moves with the seed while
    its numbers do.
    """
    half = Fraction(1, 2)
    order = rng.sample(range(d), d)
    g = [[Fraction(0)] * d for _ in range(d)]
    for i, j in zip(order, order[1:]):
        g[i][j] = g[j][i] = rng.choice([half, -half, Fraction(1), Fraction(-1)])
    for i in range(d):
        g[i][i] = 1 + sum(abs(x) for x in g[i]) + rng.choice((0, half))
    return g


def _products(normals, e) -> set[int]:
    return {abs(sum(p_i * e_i for p_i, e_i in zip(p, e))) for p in normals}


def is_free(normals, e) -> bool:
    """e lies in the dual set: every product with a facet normal is 0 or +-1."""
    return _products(normals, e) <= {0, 1}


def is_non_normalizable(normals, e) -> bool:
    """No rescaling of e is free: its nonzero |products| take two values."""
    return len(_products(normals, e) - {0}) > 1


def pick_directions(voroseg, form, rng: random.Random, n_fwd: int, n_conv: int):
    """n_fwd dual-set members and n_conv non-normalizable directions of a form.

    Forward picks come from the library's dual set, converse picks from a
    scan of small integer vectors; both are classified again here from the
    facet normals, independently of the library's `normalize_direction`.
    """
    normals = voroseg.lattice.coset_minima(form).facet_normals()
    members = voroseg.extension.dual_set(normals).members
    fwd = rng.sample(sorted(members), n_fwd)
    if not all(is_free(normals, e) for e in fwd):
        raise RuntimeError(f"library dual set has a member that is not free: {fwd}")
    conv: list[tuple[int, ...]] = []
    for _ in range(10_000):
        e = tuple(rng.randint(-2, 2) for _ in range(form.dim))
        if e not in conv and is_non_normalizable(normals, e):
            conv.append(e)
        if len(conv) == n_conv:
            return fwd, conv
    raise RuntimeError("no non-normalizable direction in the box [-2, 2]^d")


def _catalog_key(name: str, n: int | None) -> str:
    return name if n is None else f"{name}{n}"


def _catalog_args(name: str, n: int | None) -> list[str]:
    return ["--lattice", name] + ([] if n is None else ["--n", str(n)])


def _job(jid: str, form_key: str, argv: list[str], fixed: bool, label: bool | None = None) -> dict:
    return {"id": jid, "form": form_key, "argv": argv, "fixed": fixed, "label": label}


def _random_forms(voroseg, rng: random.Random, d: int, count: int, work: Path):
    """(key, form, form-file args) for `count` seeded random forms of dimension d."""
    out = []
    for i in range(count):
        gram = random_form_gram(rng, d)
        key = f"rand{d}.{i}"
        path = work / f"{key}.json"
        path.write_text(json.dumps({"dim": d, "gram": [[str(x) for x in row] for row in gram]}))
        out.append((key, voroseg.lattice.make_form(gram), ["--form", str(path)]))
    return out


def _theorem_jobs(voroseg, seed: int, work: Path) -> list[dict]:
    """check --b 1/2,1,3: two forward and two converse directions per catalog
    form, one of each per random form (two forms each of d = 3 and d = 4)."""
    forms = []
    for name, n in THEOREM_CATALOG:
        key = _catalog_key(name, n)
        forms.append((key, voroseg.lattice.catalog(name, n), _catalog_args(name, n), True, 2))
    rng = random.Random(seed)
    for d in (3, 4):
        for key, form, args in _random_forms(voroseg, rng, d, 2, work):
            forms.append((key, form, args, False, 1))
    jobs = []
    for key, form, args, fixed, k in forms:
        # catalog directions come from a fixed stream, so their digests never move
        drng = random.Random(key) if fixed else rng
        fwd, conv = pick_directions(voroseg, form, drng, k, k)
        for e, label in [(e, True) for e in fwd] + [(e, False) for e in conv]:
            ecsv = ",".join(map(str, e))
            argv = ["check", *args, f"--e={ecsv}", f"--b={B_SAMPLES}"]
            jobs.append(_job(f"check:{key}:{ecsv}", key, argv, fixed, label))
    return jobs


def _pair_jobs(voroseg, seed, work, catalog, commands, rand_dim, rand_count) -> list[dict]:
    forms = [(_catalog_key(name, n), _catalog_args(name, n), True) for name, n in catalog]
    rng = random.Random(seed)
    forms += [(key, args, False) for key, _, args in _random_forms(voroseg, rng, rand_dim, rand_count, work)]
    return [
        _job(f"{cmd}:{key}", key, [cmd, *args], fixed)
        for key, args, fixed in forms
        for cmd in commands
    ]


def generate(voroseg, workload: str, seed: int, work: Path) -> tuple[list[dict], list[dict]]:
    """(timed jobs in pass order, untimed reference jobs) for a workload and seed."""
    if workload == "theorem_mix":
        jobs = _theorem_jobs(voroseg, seed, work)
        ref = [
            _job(f"cell:{_catalog_key(name, n)}", _catalog_key(name, n), ["cell", *_catalog_args(name, n)], True)
            for name, n in THEOREM_REFERENCE_CELLS
        ]
    elif workload == "cell_census":
        jobs = _pair_jobs(voroseg, seed, work, CELL_CATALOG, ("cell", "verify"), 5, 5)
        ref = []
    elif workload == "dual_census":
        jobs = _pair_jobs(voroseg, seed, work, DUAL_CATALOG, ("relevant", "dual-set"), 6, 2)
        ref = []
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return jobs, ref


# --- output checks ----------------------------------------------------------

def check_output(job: dict, doc: dict) -> str | None:
    """What is wrong with one job's JSON output, judged from the output alone."""
    cmd = job["argv"][0]
    if cmd == "check":
        rep = doc["report"]
        if rep["in_dual_set"] != job["label"]:
            return f"in_dual_set={rep['in_dual_set']} but the direction is labelled {job['label']}"
        if not rep["invariants_ok"]:
            return f"invariant violations: {rep['invariant_violations']}"
    elif cmd == "cell":
        cell = doc["cell"]
        verts = {tuple(Fraction(x) for x in v) for v in cell["vertices"]}
        if verts != {tuple(-x for x in v) for v in verts}:
            return "cell vertices are not centrally symmetric"
        want = CELL_COUNTS.get(job["form"])
        if want and (cell["vertex_count"], cell["facet_count"]) != want:
            return f"cell has {cell['vertex_count']} vertices, {cell['facet_count']} facets; literature {want}"
    elif cmd == "verify":
        if not doc["parallelotope"]["ok"]:
            return "Voronoi cell fails the parallelotope test"
        want = IRREDUCIBLE.get(job["form"])
        if want is not None and doc["irreducible"] != want:
            return f"irreducible={doc['irreducible']}, expected {want}"
    elif cmd == "dual-set":
        members = [tuple(e) for e in doc["dual_set"]["members"]]
        if set(members) != {tuple(-x for x in e) for e in members}:
            return "dual set is not closed under negation"
        if job["form"] in EMPTY_DUAL_SETS and members:
            return f"dual set of {job['form']} should be empty, has {len(members)} members"
    return None


def check_dual_pairs(jobs: list[dict], docs: dict[str, dict]) -> dict[str, str]:
    """Every dual-set member is free for the facet normals the relevant job listed."""
    errors = {}
    for job in jobs:
        if job["argv"][0] != "dual-set":
            continue
        rel = docs.get(f"relevant:{job['form']}")
        ds = docs.get(job["id"])
        if rel is None or ds is None:
            continue
        normals = [p for cl in rel["contacts"]["classes"] if cl["relevant"] for p in cl["minima"]]
        bad = [e for e in ds["dual_set"]["members"] if not is_free(normals, e)]
        if bad:
            errors[job["id"]] = f"{len(bad)} members not free, e.g. {bad[0]}"
    return errors
