"""kamtorus benchmark: two workloads, each of two parts aimed at one layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs in its own fresh interpreter, one at a time, the way a CLI
user runs it, so no cache outlives a job.  The first pass runs every job of
the workload once; further passes repeat jobs, in order, while they fit in
the time budget.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with
--trace 1 the budget is split between an untraced and a traced phase and the
object carries the per-layer metrics, the tracing overhead and the
layer-attribution self-check of each part.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0          # hard stop so a run always exits within 180 s
SETUP_SAMPLES = 8            # set-up probes per run, spread over the jobs
BLAS_THREADS = 1             # fixed for steadiness on a shared machine

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("precision.int_nth_root.calls", "count"), ("precision.int_nth_root.s", "s"),
    ("precision.int_nth_root.bits", "bit"),
    ("precision.big_gcd.calls", "count"), ("precision.big_gcd.s", "s"),
    ("precision.resolve_floor.calls", "count"), ("precision.resolve_floor.s", "s"),
    ("precision.resolve_floor.rounds", "count"), ("precision.floor_exp.s", "s"),
    ("diophantine.omega_min.calls", "count"), ("diophantine.omega_min.vectors", "count"),
    ("diophantine.omega_min.exact_s", "s"), ("diophantine.omega_min.mpf_s", "s"),
    ("diophantine.bryuno_partial_sum.s", "s"), ("diophantine.continued_fraction.s", "s"),
    ("diophantine.omega_min_1d.s", "s"),
    ("construction.construct_step.s", "s"), ("construction.level_direction_data.s", "s"),
    ("construction.verify_construction.s", "s"),
    ("construction.verify_divisor_bounds.s", "s"),
    ("construction.verify_criteria.s", "s"), ("construction.state_to_jsonable.s", "s"),
    ("schedule.dyadic_weight_recipe.s", "s"), ("schedule.delta_schedule.s", "s"),
    ("schedule.dimension_one_check.s", "s"),
    ("schedule.advance_stage.calls", "count"), ("schedule.advance_stage.s", "s"),
    ("schedule.advance_stage.mode_dirs", "count"),
    ("schedule.oracle.distance_calls", "count"), ("schedule.oracle.hit_ratio", "ratio"),
    ("fourier.evaluate.calls", "count"), ("fourier.evaluate.s", "s"),
    ("fourier.evaluate.points", "count"), ("fourier.evaluate.macs", "count"),
    ("fourier.evaluate.bytes", "B"),
    ("fourier.compose_shift.grid_s", "s"),
    ("fourier.invert_near_identity.s", "s"), ("fourier.invert_near_identity.sweeps", "count"),
    ("fourier.norm_xi.s", "s"),
    ("fourier.multiply.calls", "count"), ("fourier.multiply.s", "s"),
    ("fourier.multiply.useful_ratio", "ratio"),
    ("fourier.compose_shift.series_s", "s"), ("fourier.invert_series.s", "s"),
    ("kam.run_linearize.s", "s"), ("kam.kam_step.s", "s"), ("kam.kam_step.calls", "count"),
    ("kam.solve_cohomological.s", "s"), ("kam.manufacture_test_map.s", "s"),
    ("kam.compose_conjugacy.s", "s"), ("kam.direct_conjugacy_defect.s", "s"),
    ("kam.stages", "count"), ("kam.direct_defect", "abs"),
    ("kam.assembly_mismatch_max", "abs"), ("kam.spill_max", "abs"),
    ("cli.construct_s", "s"), ("cli.analyze_s", "s"), ("cli.schedule_s", "s"),
    ("cli.linearize_s", "s"), ("cli.verify_s", "s"),
    ("serialize.write_json.s", "s"), ("serialize.bytes_written", "B"),
    ("proc.cpu_s", "s"),
    ("fail_frac", "ratio"),
    ("trace.traced_wall_s", "s"), ("trace.overhead", "ratio"),
    *(item for part in workloads.PARTS
      for item in ((f"attribution.{part}.share", "ratio"),
                   (f"attribution.{part}.rank", "count"))),
    *((f"self_s.{group}", "s") for group in tracing.GROUPS),
)

# counters combined across a pass's jobs by max instead of sum
MAX_COUNTERS = ("kam.direct_defect", "kam.assembly_mismatch_max", "kam.spill_max")


def environment(seed: int) -> dict:
    """What produced the numbers: interpreter, libraries, BLAS, machine."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def job_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("KAMTORUS_PRECISION", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(spec: dict, workdir: Path, deadline: float) -> dict:
    """Spawn one job interpreter, wait for it, and return its sample."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, out=str(workdir / "artifacts"), result=str(workdir / "result.json"))
    Path(spec["result"]).unlink(missing_ok=True)
    spec_file = workdir / "spec.json"
    spec_file.write_text(json.dumps(spec))
    with open(workdir / "log.txt", "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "job.py"), str(spec_file)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=job_env())
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - spawn
    try:
        result = json.loads(Path(spec["result"]).read_text())
    except (OSError, ValueError):
        result = {"ok": False, "error": (workdir / "log.txt").read_text()[-2000:]}
    ok = proc.returncode == 0 and result.get("ok", False)
    sample = {
        "job": spec["name"], "part": spec.get("part"), "ok": ok, "elapsed": elapsed,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "error": None if ok else (result.get("error") or f"exit {proc.returncode}"),
    }
    if result.get("ready") is not None:
        sample["setup_s"] = result["ready"] - spawn
    if result.get("done") is not None:
        sample["wall_s"] = result["done"] - result["ready"]
    for key in ("counts", "self_s", "spans", "missing", "observed"):
        if key in result:
            sample[key] = result[key]
    return sample


def probe_setup(jobs: list, workdir: Path, hard_deadline: float) -> list:
    """Spawn each job in set-up-only mode (imports and inputs, then exit)
    until SETUP_SAMPLES set-up times are taken; returns the samples."""
    samples = []
    for k in range(-(-SETUP_SAMPLES // len(jobs))):
        for job in jobs:
            if time.monotonic() > hard_deadline:
                return samples
            dirs = {j["name"]: str(workdir / j["name"] / "artifacts") for j in jobs}
            sample = run_job(dict(job, trace=False, setup_only=True, dirs=dirs),
                             workdir / "setup" / job["name"], hard_deadline)
            sample["pass"] = f"setup{k}"
            samples.append(sample)
    return samples


def run_phase(jobs: list, workdir: Path, trace: bool, budget: float,
              hard_deadline: float) -> list:
    """Passes over the job list: the first pass runs every job; later passes
    start a job only if its last duration still fits in the budget.
    Returns a list of passes, each a list of samples."""
    start = time.monotonic()
    passes = []
    last = {}
    while True:
        samples = []
        for job in jobs:
            now = time.monotonic()
            if passes and now - start + last[job["name"]] > budget:
                break
            if now > hard_deadline:
                break
            dirs = {name: str(workdir / name / "artifacts") for name in last}
            sample = run_job(dict(job, trace=trace, dirs=dirs),
                             workdir / job["name"], hard_deadline)
            sample["pass"] = len(passes)
            last[job["name"]] = sample["elapsed"]
            samples.append(sample)
        if samples:
            passes.append(samples)
        if len(samples) < len(jobs) or time.monotonic() - start >= budget:
            return passes


def per_job(passes: list, key: str) -> dict:
    out = {}
    for samples in passes:
        for s in samples:
            if s["ok"] and key in s:
                out.setdefault(s["job"], []).append(s[key])
    return out


def summed(passes: list, key: str, pick=statistics.median) -> float:
    """Sum over jobs of one statistic of each job's samples (a complete job
    list's cost)."""
    return sum(pick(v) for v in per_job(passes, key).values())


def end_to_end(passes: list, probes: list) -> dict:
    setups = [s["setup_s"] for samples in passes + [probes]
              for s in samples if "setup_s" in s]
    rss = per_job(passes, "rss_mb")
    return {
        # fastest repeat: the shared host's contention only ever adds time,
        # and it comes and goes within seconds (see README)
        "wall_s": summed(passes, "wall_s", min),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((statistics.median(v) for v in rss.values()), default=0.0),
    }


def pass_layers(samples: list) -> dict:
    """Per-layer counters and self times of one traced pass."""
    total = {}
    for s in samples:
        for key, value in s.get("counts", {}).items():
            if key in MAX_COUNTERS:
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0.0) + value
        for group, value in s.get("self_s", {}).items():
            for key in ("self_s." + group, f"{s['part']}.self_s.{group}"):
                total[key] = total.get(key, 0.0) + value
    return total


def layer_metrics(workload: str, untraced: list, traced: list,
                  attempted: int, failed: int) -> dict:
    rows = [pass_layers(p) for p in traced if len(p) == len(traced[0])]
    keys = set().union(*rows)
    med = {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}
    out = {}
    for name, _ in PER_LAYER:
        out[name] = med.get(name, 0.0)
    for cmd in ("construct", "analyze", "schedule", "linearize", "verify"):
        out[f"cli.{cmd}_s"] = med.get(f"cli.{cmd}.s", 0.0)
    out["schedule.oracle.hit_ratio"] = (
        med.get("schedule.oracle.distance_hits", 0.0)
        / med["schedule.oracle.distance_calls"]
        if med.get("schedule.oracle.distance_calls") else 0.0)
    out["fourier.multiply.useful_ratio"] = (
        med.get("fourier.multiply.pairs_useful", 0.0) / med["fourier.multiply.pairs_done"]
        if med.get("fourier.multiply.pairs_done") else 0.0)
    out["proc.cpu_s"] = summed(untraced, "cpu_s")
    out["fail_frac"] = failed / attempted
    traced_wall = summed(traced, "wall_s", min)
    untraced_wall = summed(untraced, "wall_s", min)
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    for part in workloads.WORKLOADS[workload]:
        groups = {g: med.get(f"{part}.self_s.{g}", 0.0) for g in tracing.GROUPS}
        target = groups[workloads.TARGET_GROUP[part]]
        total = sum(groups.values())
        out[f"attribution.{part}.share"] = target / total if total else 0.0
        out[f"attribution.{part}.rank"] = 1 + sum(v > target for v in groups.values())
    return out


def write_spans(path: Path, traced: list) -> None:
    """Spans of every traced job: [name, start, end, parent] per span, with
    the job id "<pass>:<job>"."""
    with open(path, "w") as fh:
        for samples in traced:
            for s in samples:
                fh.write(json.dumps({"job": f"{s['pass']}:{s['job']}",
                                     "missing": s.get("missing", []),
                                     "spans": s.get("spans", [])}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    if not (ROOT / "src" / "kamtorus" / "__init__.py").is_file():
        print(f"error: no kamtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(workloads.REFERENCE.read_text())
    expect = workloads.expected(args.workload, args.seed, reference)
    jobs = [dict(job, expect=expect[job["name"]])
            for job in workloads.jobs(args.workload, args.seed)]

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = environment(args.seed)
    hard_deadline = t0 + RUN_LIMIT_S

    probes = [] if args.trace else probe_setup(jobs, rundir / "untraced", hard_deadline)
    budget = args.seconds / 2 if args.trace else args.seconds - (time.monotonic() - t0)
    untraced = run_phase(jobs, rundir / "untraced", False, budget, hard_deadline)
    traced = []
    if args.trace:
        traced = run_phase(jobs, rundir / "traced", True,
                           args.seconds - (time.monotonic() - t0), hard_deadline)

    samples = probes + [s for p in untraced + traced for s in p]
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    complete = all(len(p) == len(jobs) for p in untraced[:1] + traced[:1])
    correct = failed == 0 and complete and bool(untraced) and (bool(traced) or not args.trace)

    if args.trace:
        values = layer_metrics(args.workload, untraced, traced, attempted, failed)
        units = dict(PER_LAYER)
        write_spans(rundir / "spans.jsonl", traced)
    else:
        values = end_to_end(untraced, probes)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for s in samples:
        if not s["ok"]:
            print(f"FAILED {s['job']} (pass {s['pass']}): {s['error'].strip()}")
    for part in workloads.WORKLOADS[args.workload] if args.trace else ():
        print(f"attribution: {part} target {workloads.TARGET_GROUP[part]} "
              f"share {values[f'attribution.{part}.share']:.3f} "
              f"rank {values[f'attribution.{part}.rank']}")
    record = {"workload": args.workload,
              "variants": {part: workloads.variant(part, args.seed)
                           for part in workloads.WORKLOADS[args.workload]},
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
              "metrics": metrics}
    (rundir / "record.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
