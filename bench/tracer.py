"""Per-layer tracing of the voroseg package from outside it.

`Tracer.install` replaces each traced function at every binding site: the
defining module and every package module that imported it by name (`cli`
and `extension` import `coset_minima`, `enumerate_vertices` and others with
`from ... import`, so patching the defining module alone would miss their
calls).  A span records name, start, end, parent span and job run; a
span's self time is its duration minus the time its direct children cover,
where a duration leaves out the calibration probes (calibrate.py) that ran
inside it.  The linalg primitives get call counters only: a span per `dot`
would cost more than the `dot`.  `uninstall` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "voroseg"
SPAN_MODULES = ("lattice", "polytope", "extension", "jsonio", "cli")
COUNTED = {"linalg": ("dot", "solve_linear", "rank")}
# Leaf helpers called per vector or per coordinate.  Spans on them would
# dominate the trace; their time stays in the calling span's self time.
LEAVES = {
    "lattice.eval_form",
    "jsonio.rat",
    "jsonio.rat_vec",
    "jsonio.rat_mat",
    "extension.f_e",
    "extension.a_e",
    "polytope.face_facets",
}

# Spans per name for `check --lattice An --n 2 --e=0,1 --b=1/2,1,3`, counted
# by reading the code: check_theorem asks coset_minima for A (miss), then
# voronoi_cell asks again (hit); each of the 3 b samples builds the
# perturbed form's cell (one more miss), the segment sum (enumerate +
# prune), its tiling test, and the perturbed cell's vertices (enumerate +
# prune).  irreducibility_graph runs is_parallelotope and then belts and
# codim2_faces again; belts runs once per is_parallelotope call and in
# irreducibility_graph, and codim2_faces once per belts call, once in
# irreducibility_graph and once per sum_with_segment: 9 calls for 7 cells.
SELF_CHECK_ARGV = ["check", "--lattice", "An", "--n", "2", "--e=0,1", "--b=1/2,1,3"]
SELF_CHECK_COUNTS = {
    "cli.main": 1,
    "cli.cmd_check": 1,
    "extension.check_theorem": 1,
    "extension.normalize_direction": 1,
    "lattice.coset_minima": 5,
    "polytope.voronoi_cell": 1,
    "polytope.enumerate_vertices": 7,
    "polytope.prune_to_facets": 6,
    "extension.sum_with_segment": 3,
    "extension.voronoi_of_sum_form": 3,
    "polytope.is_parallelotope": 4,
    "polytope.irreducibility_graph": 1,
    "polytope.belts": 5,
    "polytope.codim2_faces": 9,
    "jsonio.report_to_dict": 1,
    "jsonio.dumps": 1,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache wrappers
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, job run number, probe seconds inside]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._minima_hits = 0
        self._clock = None

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in SPAN_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in _public_functions(mod):
                if f"{short}.{name}" not in LEAVES:
                    wrappers[id(fn)] = self._span(f"{short}.{name}", fn)
        for short, names in COUNTED.items():
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._counter(f"{short}.{name}.calls", fn)
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def begin_job(self, job: int, minima, clock) -> None:
        """Start the spans of job run number `job`.

        `minima` is the memo itself; `clock` is the calibrate.Clock that
        will time the job, whose probe time is taken out of every span.
        """
        self.job = job
        self._minima_hits = minima.cache_info().hits
        self._clock = clock

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            probe0 = self._clock.probe_s
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[5] = self._clock.probe_s - probe0
                stack.pop()
            if after is not None:
                after(fn, rec, args, out)
            return out

        return traced

    # --- work counts, taken at the same boundaries as the spans -------------

    def _after_lattice_coset_minima(self, fn, rec, args, out) -> None:
        hits = fn.cache_info().hits
        if hits > self._minima_hits:
            self.counts["lattice.coset_minima.hits"] += 1
        else:
            self.counts["lattice.coset_minima.classes"] += len(out.classes)
        self._minima_hits = hits

    def _after_extension_dual_set(self, fn, rec, args, out) -> None:
        self.counts["extension.dual_set.patterns"] += 3 ** len(out.basis_used) - 1
        self.counts["extension.dual_set.members"] += len(out.members)

    def _after_polytope_enumerate_vertices(self, fn, rec, args, out) -> None:
        n_in = len(out.hpoly.ineqs)
        self.counts["polytope.enumerate_vertices.ineqs_in"] += n_in
        self.counts["polytope.enumerate_vertices.vertices_out"] += len(out.vertices)
        parent = rec[3]
        if parent >= 0 and self.spans[parent][0] == "extension.sum_with_segment":
            self.counts["extension.sum_with_segment.candidate_ineqs"] += n_in

    def _after_polytope_prune_to_facets(self, fn, rec, args, out) -> None:
        self.counts["polytope.prune_to_facets.ineqs_in"] += len(args[0].hpoly.ineqs)
        self.counts["polytope.prune_to_facets.facets_kept"] += len(out.hpoly.ineqs)

    def _after_jsonio_dumps(self, fn, rec, args, out) -> None:
        self.counts["jsonio.bytes_out"] += len(out.encode())

    # --- summaries ----------------------------------------------------------

    def span_counts(self, job: int | None = None) -> Counter:
        return Counter(s[0] for s in self.spans if job is None or s[4] == job)

    def self_times(self, scale: dict[int, float]) -> dict[str, float]:
        """Self time per span name, each span scaled by its job's factor in `scale`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1] - s[5]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1] - s[5] - child[i]) * scale.get(s[4], 1.0)
        return out

    def layer_metrics(self, passes: int, scale: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics per pass of the job list (passes >= 1).

        `scale` maps a job run number to calibrated over wall time for
        that job, so self times are calibrated seconds like the job times.
        """
        calls = self.span_counts()
        selft = self.self_times(scale)
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        def module_self(prefix):
            return sum(v for k, v in selft.items() if k.startswith(prefix))

        m = {
            "lattice.coset_minima.calls": calls["lattice.coset_minima"],
            "lattice.coset_minima.self_s": selft.get("lattice.coset_minima", 0.0),
            "lattice.coset_minima.cache_hit_frac": frac(c["lattice.coset_minima.hits"], calls["lattice.coset_minima"]),
            "lattice.coset_minima.classes": c["lattice.coset_minima.classes"],
            "extension.dual_set.self_s": selft.get("extension.dual_set", 0.0),
            "extension.dual_set.patterns": c["extension.dual_set.patterns"],
            "extension.dual_set.hit_frac": frac(c["extension.dual_set.members"], c["extension.dual_set.patterns"]),
            "polytope.enumerate_vertices.calls": calls["polytope.enumerate_vertices"],
            "polytope.enumerate_vertices.self_s": selft.get("polytope.enumerate_vertices", 0.0),
            "polytope.enumerate_vertices.ineqs_in": c["polytope.enumerate_vertices.ineqs_in"],
            "polytope.enumerate_vertices.vertices_out": c["polytope.enumerate_vertices.vertices_out"],
            "polytope.codim2_faces.calls": calls["polytope.codim2_faces"],
            "polytope.codim2_faces.self_s": selft.get("polytope.codim2_faces", 0.0),
            "polytope.belts.calls": calls["polytope.belts"],
            "polytope.belts.self_s": selft.get("polytope.belts", 0.0),
            "polytope.is_parallelotope.self_s": selft.get("polytope.is_parallelotope", 0.0),
            "polytope.irreducibility_graph.self_s": selft.get("polytope.irreducibility_graph", 0.0),
            "extension.sum_with_segment.calls": calls["extension.sum_with_segment"],
            "extension.sum_with_segment.self_s": selft.get("extension.sum_with_segment", 0.0),
            "extension.sum_with_segment.candidate_ineqs": c["extension.sum_with_segment.candidate_ineqs"],
            "polytope.prune_to_facets.self_s": selft.get("polytope.prune_to_facets", 0.0),
            "extension.voronoi_of_sum_form.self_s": selft.get("extension.voronoi_of_sum_form", 0.0),
            "extension.check_theorem.self_s": selft.get("extension.check_theorem", 0.0),
            "linalg.dot.calls": c["linalg.dot.calls"],
            "linalg.solve_linear.calls": c["linalg.solve_linear.calls"],
            "linalg.rank.calls": c["linalg.rank.calls"],
            "jsonio.self_s": module_self("jsonio."),
            "jsonio.bytes_out": c["jsonio.bytes_out"],
            "cli.self_s": module_self("cli."),
        }
        m = {k: v if k.endswith("_frac") else v / passes for k, v in m.items()}
        m["polytope.facet_yield"] = frac(c["polytope.prune_to_facets.facets_kept"], c["polytope.prune_to_facets.ineqs_in"])
        return m
