"""voroseg benchmark: closed loop, one client, no threads.

    python3 bench/run.py --workload theorem_mix --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --record-golden

Each job is one `voroseg` subcommand run in-process through
`voroseg.cli.main(argv)` with `--json` to a temporary file; the package memo
(`coset_minima.cache_clear()`) is reset before each job, so a job costs
what a fresh `voroseg` process pays.  A run executes whole passes over the
workload's job list until `--seconds` have elapsed (at least one pass),
then checks every output.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from calibrate import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 9
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def import_voroseg():
    """Import voroseg from this checkout's src/ and nowhere else."""
    pkg = SRC / "voroseg"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no voroseg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import voroseg
    import voroseg.cli  # noqa: F401

    if Path(voroseg.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported voroseg from {voroseg.__file__}, not {pkg}")
    return voroseg


class Runner:
    """Runs one job at a time and keeps what the checks need."""

    def __init__(self, voroseg, work: Path):
        self.cli = voroseg.cli
        self.minima = voroseg.lattice.coset_minima  # the memo itself, never a trace wrapper
        self.out = work / "out.json"
        self.docs: dict[str, dict] = {}
        self.clock = Clock()
        self.runs = 0  # job runs so far; a traced run's spans carry its number

    def _call(self, argv: list[str]) -> tuple[object, str | None]:
        """(exit code, error) of one in-process CLI call, stdout discarded."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # a failing job is counted, the run goes on
            return None, f"{type(exc).__name__}: {exc}"

    def run(self, job: dict, tracer: tracing.Tracer | None = None) -> dict:
        self.minima.cache_clear()
        self.out.unlink(missing_ok=True)
        self.runs += 1
        if tracer is not None:
            tracer.begin_job(self.runs, self.minima, self.clock)
        argv = job["argv"] + ["--json", str(self.out)]
        t, wall, (rc, error) = self.clock.time(lambda: self._call(argv))
        digest = None
        if error is None and rc == 0:
            data = self.out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if job["id"] not in self.docs:
                self.docs[job["id"]] = json.loads(data)
        elif error is None:
            error = f"exit code {rc}"
        return {"id": job["id"], "run": self.runs, "t": t, "wall": wall, "digest": digest, "error": error}


def _traced_run(runner: Runner, job: dict, tracer: tracing.Tracer) -> dict:
    tracer.install()
    try:
        return runner.run(job, tracer) | {"traced": True}
    finally:
        tracer.uninstall()


def run_passes(runner: Runner, jobs: list[dict], seconds: float, tracer=None):
    """Whole passes over the job list until `seconds` have elapsed; at least one.

    With a tracer, every job runs traced, and every other job also runs
    untraced right before or after (alternately), so that the two runs of a
    pair see the same machine state; both records of a pair carry its number.
    """
    records = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            if tracer is None:
                records.append(runner.run(job))
            elif i % 2:
                records.append(_traced_run(runner, job, tracer))
            else:
                pair = len(records)
                for traced in (True, False) if (i // 2 + passes) % 2 else (False, True):
                    rec = _traced_run(runner, job, tracer) if traced else runner.run(job)
                    records.append(rec | {"pair": pair})
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return records, passes, time.perf_counter() - t0


def load_inputs(jobs: list[dict]) -> None:
    """Import voroseg.cli and load every job's input form through the CLI's own code.

    The job's argv is parsed with the CLI's form arguments (`_add_form_args`)
    and the form is loaded by the CLI's loader (`_load_form`); the
    subcommand's other arguments are left unparsed.
    """
    cli = importlib.import_module("voroseg.cli")
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_form_args(parser, with_job=True)
    for job in jobs:
        args, _ = parser.parse_known_args(job["argv"][1:])
        cli._load_form(args)


def measure_setup(jobs: list[dict]) -> float:
    """Median calibrated time to import voroseg afresh and load the inputs.

    The package's modules are dropped from sys.modules before each repeat;
    the standard library stays loaded, so interpreter start-up, which no
    change to voroseg can move, is left out.
    """
    clock = Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "voroseg" or m.startswith("voroseg.")]:
            del sys.modules[name]
        t, _, _ = clock.time(lambda: load_inputs(jobs))
        times.append(t)
    return statistics.median(times)


def judge(seed: int, jobs: list[dict], runner: Runner, records: list[dict], golden: dict | None) -> dict[str, str]:
    """Failure reason per job id; a job id absent from the result passed.

    `golden` maps job ids to expected digests; None skips that comparison.
    """
    bad: dict[str, str] = {}
    first: dict[str, str] = {}
    by_id = {j["id"]: j for j in jobs}
    for rec in records:
        jid = rec["id"]
        if rec["error"]:
            bad.setdefault(jid, rec["error"])
        elif first.setdefault(jid, rec["digest"]) != rec["digest"]:
            bad.setdefault(jid, "output differs between passes")
    for jid, doc in runner.docs.items():
        job = by_id[jid]
        why = workloads.check_output(job, doc)
        if why is None and golden is not None and (job["fixed"] or seed == workloads.DEFAULT_SEED):
            want = golden.get(jid)
            if want is None:
                why = "no golden digest recorded"
            elif want != first.get(jid):
                why = "output digest differs from the golden one"
        if why:
            bad.setdefault(jid, why)
    for jid, why in workloads.check_dual_pairs(jobs, runner.docs).items():
        bad.setdefault(jid, why)
    return bad


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError(f"{len(s)} jobs leave no percentile with {TAIL_BEYOND} jobs beyond it")
    return s[k], 100.0 * (k + 1) / len(s)


def self_check(voroseg, work: Path) -> str | None:
    """On A2 `check`, span counts must equal the hand-counted call counts."""
    runner = Runner(voroseg, work)
    tr = tracing.Tracer()
    tr.install()
    try:
        rec = runner.run({"id": "self-check", "argv": tracing.SELF_CHECK_ARGV}, tr)
    finally:
        tr.uninstall()
    if rec["error"]:
        return f"self-check job failed: {rec['error']}"
    got = tr.span_counts(rec["run"])
    wrong = {k: (got[k], v) for k, v in tracing.SELF_CHECK_COUNTS.items() if got[k] != v}
    return f"span counts (traced, hand-counted) differ: {wrong}" if wrong else None


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    voroseg = import_voroseg()
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        jobs, ref_jobs = workloads.generate(voroseg, workload, seed, work)
        setup_s = measure_setup(jobs + ref_jobs)
        voroseg = import_voroseg()  # the modules the last setup repeat imported
        if trace:
            why = self_check(voroseg, work)
            if why:
                problems.append(why)
        runner = Runner(voroseg, work)
        tr = tracing.Tracer() if trace else None
        records, passes, elapsed = run_passes(runner, jobs, seconds, tr)
        refs = [runner.run(job) for job in ref_jobs]
        golden = json.loads(GOLDEN.read_text())["digests"].get(workload, {}) if GOLDEN.is_file() else {}
        bad = judge(seed, jobs + ref_jobs, runner, records + refs, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    plain = [r for r in records if not r.get("traced")]
    attempted = len(records) + len(refs)
    failed = sum(1 for r in records + refs if r["id"] in bad)
    for jid, why in sorted(bad.items()):
        print(f"FAILED {jid}: {why}")
    print(f"workload {workload}, seed {seed}: {len(records)} job runs in {passes} pass(es), {elapsed:.2f} s; "
          f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    if trace:
        traced = [r for r in records if r.get("traced")]
        twins = {r["pair"]: r for r in plain}
        paired = [(twins[r["pair"]], r) for r in traced if "pair" in r]
        differ = sorted({u["id"] for u, t in paired if u["digest"] != t["digest"]})
        if differ:
            problems.append(f"traced outputs differ from untraced ones: {differ[:5]}")
        metrics = tr.layer_metrics(passes, {r["run"]: r["t"] / r["wall"] for r in traced})
        metrics["trace_overhead_frac"] = sum(t["t"] for _, t in paired) / sum(u["t"] for u, _ in paired) - 1
    else:
        times = [r["t"] for r in plain]
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "jobs_per_s": len(plain) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall = [r["wall"] for r in plain]
        print(f"job_tail_s is p{tail_pct:.1f} of {len(times)} jobs ({TAIL_BEYOND} jobs beyond it); "
              f"uncalibrated wall time: job_p50 {statistics.median(wall):.4f} s, "
              f"job_tail {tail(wall)[0]:.4f} s, {len(wall) / sum(wall):.4f} jobs/s")
    for why in problems:
        print(f"FAILED {why}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    return {
        "correct": not bad and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def record_golden() -> None:
    """Write golden.json: one pass of every workload at DEFAULT_SEED."""
    voroseg = import_voroseg()
    digests = {}
    for workload in workloads.WORKLOADS:
        work = ROOT / ".bench_work" / f"golden-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            jobs, ref_jobs = workloads.generate(voroseg, workload, workloads.DEFAULT_SEED, work)
            runner = Runner(voroseg, work)
            records = [runner.run(job) for job in jobs + ref_jobs]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = judge(workloads.DEFAULT_SEED, jobs + ref_jobs, runner, records, None)
        if errors:
            raise BenchError(f"{workload}: not recording golden outputs, checks fail: {errors}")
        digests[workload] = {r["id"]: r["digest"] for r in records}
        print(f"{workload}: {len(records)} digests")
    with contextlib.suppress(OSError):
        (ROOT / ".bench_work").rmdir()
    GOLDEN.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
