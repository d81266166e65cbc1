"""Run one benchmark job in a fresh interpreter.

Usage: python3 perfbench/job.py SPEC.json

SPEC names the job (see workloads.py), its output directory, its output
gate, whether to trace, and the file the result is written to.  The result
holds the monotonic instants at which the job became ready (imports done,
inputs built) and finished, the gate verdict, and in a traced job the spans
and counters.  The instant the interpreter was spawned is taken by the
parent, so `ready - spawn` is the set-up time.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result = {"ready": None, "done": None, "ok": False, "error": None}
    tracer = None
    try:
        import kamtorus
        if Path(kamtorus.__file__).resolve().parent != ROOT / "src" / "kamtorus":
            raise RuntimeError(f"kamtorus imported from {kamtorus.__file__}, "
                               f"not from this checkout")
        import workloads

        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        run = workloads.prepare(spec)
        result["ready"] = time.monotonic()
        if spec.get("setup_only"):
            result["ok"] = True
            return _finish(spec, result, tracer)
        value = tracer.run("job", run) if tracer else run()
        result["done"] = time.monotonic()
        if spec["expect"] is None:      # recording reference outputs
            result["observed"] = workloads.observe(spec, value)
        else:
            workloads.check(spec, value)
        result["ok"] = True
    except Exception:  # a failed job is a measured outcome, not a crash
        result["error"] = traceback.format_exc(limit=6)
    return _finish(spec, result, tracer)


def _finish(spec: dict, result: dict, tracer) -> int:
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["self_s"] = tracer.self_times()
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
