"""The bench's own checks, run with the tests so that a break shows without a bench run."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_span_counts_match_the_hand_counts(tmp_path, monkeypatch):
    # the traced A2 `check` must make the public calls bench/tracer.py counted by
    # hand, and every linalg name the tracer counts must still exist
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules by name
    spec = importlib.util.spec_from_file_location("voroseg_bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.self_check(run.import_voroseg(), tmp_path) is None
