"""Record the reference outputs that gate the exact-layer and KAM jobs.

Usage (from the root of a checkout):

    python3 perfbench/record.py [--part NAME ...]

Runs every input-table entry of the exact-arith, mpf-schedule and kam-grid
parts once,
untraced, and writes the SHA-256 digests of state.json, analyze.csv,
schedule.csv and the verification verdicts, and the KAM stage counts, to
perfbench/reference.json.  An entry is refused (and the script exits 1) when
a job fails, a verification check fails, or a KAM run does not converge
within the defect bound or takes another stage count than the README input:
the tables must hold inputs that do the same work.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import workloads

TABLE_SIZE = {"exact-arith": len(workloads.Q0_TABLE),
              "mpf-schedule": len(workloads.PRIME_PAIRS),
              "kam-grid": len(workloads.KAM_SEEDS)}


def record_variant(part: str, seed: int) -> dict:
    workdir = run.OUT / "record" / workloads.variant(part, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = [dict(job, expect=None, trace=False)
            for job in workloads.part_jobs(part, seed)]
    passes = run.run_phase(jobs, workdir, False, 0.0, time.monotonic() + 600)
    table = {}
    for s in passes[0]:
        if not s["ok"]:
            raise RuntimeError(f"{s['job']} failed: {s['error']}")
        seen = s["observed"]
        if "verdicts" in seen:
            failing = [v for v in workloads.verdicts(workloads.report_file(
                workdir / s["job"] / "artifacts")) if v[-1] is False]
            if failing:
                raise RuntimeError(f"{s['job']}: failing checks {failing}")
        if "kam" in seen:
            kam = seen["kam"]
            if not (kam["converged"] and kam["direct_defect"] <= workloads.KAM_DEFECT_TOL):
                raise RuntimeError(f"{s['job']}: {kam}")
            seen["kam"] = {"stages": kam["stages"],
                           "direct_defect_max": workloads.KAM_DEFECT_TOL}
        table[s["job"]] = seen
        print(f"  {s['job']}: {s['elapsed']:.2f} s {json.dumps(seen)}", flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", action="append", choices=sorted(TABLE_SIZE))
    args = parser.parse_args(argv)
    reference = (json.loads(workloads.REFERENCE.read_text())
                 if workloads.REFERENCE.exists() else {})
    status = 0
    for part in args.part or sorted(TABLE_SIZE):
        tables = {}
        for seed in range(TABLE_SIZE[part]):
            key = workloads.variant(part, seed)
            print(f"{part} {key}", flush=True)
            try:
                tables[key] = record_variant(part, seed)
            except RuntimeError as exc:
                print(f"  refused: {exc}", flush=True)
                status = 1
        if part == "kam-grid":
            readme = tables.get(workloads.variant(part, 0), {})
            for key, table in tables.items():
                if any(table[j]["kam"]["stages"] != readme[j]["kam"]["stages"]
                       for j in table if j in readme):
                    print(f"  refused: {key} takes another stage count than the "
                          f"README input", flush=True)
                    status = 1
        reference[part] = tables
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
