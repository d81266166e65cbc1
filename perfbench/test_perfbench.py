"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=perfbench python3 -m pytest -q perfbench/test_perfbench.py

They check that the output gates bite (a corrupted digest and a broken
tolerance each make a job count as failed) and that two traced runs of the
same job give identical work counts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _job(workload, name, seed=0, **overrides):
    reference = json.loads(workloads.REFERENCE.read_text())
    job = next(j for j in workloads.jobs(workload, seed) if j["name"] == name)
    job = dict(job, expect=workloads.expected(workload, seed, reference)[name],
               trace=False)
    job.update(overrides)
    return job


def _run(job, tmp_path, tag="job"):
    return run.run_job(job, tmp_path / tag, time.monotonic() + 120)


def test_reference_digest_passes(tmp_path):
    sample = _run(_job("arith", "construct-paper-1"), tmp_path)
    assert sample["ok"], sample["error"]
    assert sample["setup_s"] > 0 and sample["wall_s"] > 0


def test_corrupted_digest_fails(tmp_path):
    job = _job("arith", "construct-paper-1")
    digest = job["expect"]["state.json"]
    job["expect"] = dict(job["expect"], **{"state.json": digest[::-1]})
    sample = _run(job, tmp_path)
    assert not sample["ok"]
    assert "state.json digest" in sample["error"]


def test_broken_tolerance_fails(tmp_path):
    small = dict(n_max=4, draws=1)
    good = _run(_job("fourier", "series-invert", **small), tmp_path, "good")
    assert good["ok"], good["error"]
    broken = _job("fourier", "series-invert", expect={"series": 1e-30}, **small)
    sample = _run(broken, tmp_path, "broken")
    assert not sample["ok"]
    assert "grid and series paths differ" in sample["error"]


def test_kam_gate_rejects_other_stage_count(tmp_path):
    job = _job("fourier", "linearize-32")
    job["argv"] = [a if a != "32" else "16" for a in job["argv"]]
    job["expect"] = {"kam": dict(job["expect"]["kam"], stages=99)}
    sample = _run(job, tmp_path)
    assert not sample["ok"]
    assert "kam summary" in sample["error"]


# small jobs that reach every deterministic counter named by the benchmark
COUNT_JOBS = (
    ("arith", "construct-paper-1", {}),
    ("arith", "analyze-golden", {}),
    ("arith", "schedule-pair",
     {"argv": ["schedule", "--alpha", "golden", "--stages", "5", "--flat-stages", "2"],
      "gate": []}),
    ("fourier", "linearize-32",
     {"argv": ["linearize", "--n-max", "8", "--stages", "8", "--epsilon", "1e-3"],
      "gate": []}),
    ("fourier", "series-compose", {"n_max": 6, "draws": 1}),
)

COUNT_KEYS = ("diophantine.omega_min.vectors", "schedule.advance_stage.mode_dirs",
              "fourier.evaluate.macs", "fourier.evaluate.bytes",
              "fourier.multiply.pairs_useful", "fourier.multiply.pairs_done",
              "precision.resolve_floor.rounds", "kam.stages")


def _counts(sample):
    return {k: v for k, v in sample["counts"].items()
            if not (k.endswith(".s") or k.endswith("_s"))}


def test_traced_counts_repeat(tmp_path):
    seen = set()
    for workload, name, overrides in COUNT_JOBS:
        job = _job(workload, name, trace=True, **overrides)
        first = _run(job, tmp_path, name + "-1")
        second = _run(job, tmp_path, name + "-2")
        assert first["ok"] and second["ok"], (first["error"], second["error"])
        assert _counts(first) == _counts(second), name
        assert not first["missing"]
        assert all(end >= start for _, start, end, _ in first["spans"])
        seen.update(k for k, v in first["counts"].items() if v)
    assert set(COUNT_KEYS) <= seen


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
