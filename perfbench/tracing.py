"""Spans and counters around the public functions of every kamtorus layer.

The package is not edited: `install` replaces each traced function at every
module attribute (and module-level dict entry) that is bound to it, because
several modules import their helpers by name (`kam` binds
`invert_near_identity`, `norm_xi`, ...; `schedule` binds `omega_min`;
`construction` binds the `precision` helpers; `cli.COMMANDS` holds the
subcommand functions).  Methods are patched on their class.  A target that
no longer exists is skipped and listed in `Tracer.missing`, so the benchmark
keeps running when a later version renames or removes it.

Spans stay in memory as [name, start, end, parent] and are written out by
the caller once the job ends.  Hot small calls (`DivisorOracle.distance`)
get counters but no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

# attribution groups: a span's self time is charged to the group of its name
GROUPS = ("precision", "diophantine", "construction", "schedule",
          "fourier.grid", "fourier.multiply", "fourier.other", "kam", "cli",
          "serialize", "job")


def group_of(name: str) -> str:
    if name in ("fourier.evaluate", "fourier.reexpand"):
        return "fourier.grid"
    if name == "fourier.multiply":
        return "fourier.multiply"
    layer = name.split(".", 1)[0]
    return "fourier.other" if layer == "fourier" else layer


def canonical_count(d: int, lower: int, upper: int) -> int:
    """Number of lattice vectors l with lower <= |l|_sup <= upper whose first
    nonzero entry is positive (the canonical half of the annulus)."""
    return ((2 * upper + 1) ** d - (2 * max(lower, 1) - 1) ** d) // 2


class Tracer:
    def __init__(self):
        self.spans = []                    # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.active = defaultdict(int)     # name -> nesting depth
        self.missing = []

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  `before(counts, bound)` may replace bound
        arguments; `after(counts, bound, result, seconds)` adds counters."""
        sig = inspect.signature(fn) if (before or after) else None
        spans, stack, counts, active = (self.spans, self.stack, self.counts,
                                        self.active)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(counts, bound)
                args, kwargs = bound.args, bound.kwargs
            rec = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                active[name] -= 1
            seconds = rec[2] - rec[1]
            counts[name + ".calls"] += 1
            if not active[name]:           # outermost call of this name
                counts[name + ".s"] += seconds
            if after is not None:
                after(counts, bound, result, seconds)
            return result

        return wrapper

    def run(self, name, fn):
        """Run fn() inside a root span (the whole job)."""
        return self.span(name, fn)()

    def self_times(self) -> dict:
        """Self time per attribution group: span duration minus the time
        its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(GROUPS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            group = group_of(name)
            out[group] = out.get(group, 0.0) + (end - start - covered)
        return out


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "kamtorus" or mod_name.startswith("kamtorus.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


# ---------------------------------------------------------------------------
# counter hooks


def _nth_root_bits(counts, bound, result, seconds):
    counts["precision.int_nth_root.bits"] += bound.arguments["n"].bit_length()


def _count_rounds(counts, bound):
    expr = bound.arguments["interval_expr"]

    def counted():
        counts["precision.resolve_floor.rounds"] += 1
        return expr()

    bound.arguments["interval_expr"] = counted


def _omega_min(counts, bound, result, seconds):
    alpha = bound.arguments["alpha"]
    counts["diophantine.omega_min.vectors"] += canonical_count(
        len(alpha), bound.arguments["lower"], bound.arguments["N"])
    exact = all(isinstance(a, (Fraction, int)) for a in alpha)
    counts["diophantine.omega_min." + ("exact_s" if exact else "mpf_s")] += seconds


def _advance_stage(counts, bound, result, seconds):
    grid, n = bound.arguments["grid"], bound.arguments["n"]
    hi = 1 << (n + 1)
    lo = (1 << n) + 1 if bound.arguments["variant"] == "annulus" else 1
    counts["schedule.advance_stage.mode_dirs"] += (
        canonical_count(grid.dimension, lo, hi) * len(grid))


def _evaluate(counts, bound, result, seconds):
    # computed, not measured: the factorized evaluation contracts a
    # (c, M, ..., M) coefficient block with d phase matrices of shape (M, P)
    f = bound.arguments["self"]
    P = result.shape[-1]
    M = 2 * f.n_max + 1
    c, d = f.components, f.d
    counts["fourier.evaluate.points"] += P
    counts["fourier.evaluate.macs"] += c * M ** d * P + (c * M * P if d > 1 else 0)
    counts["fourier.evaluate.bytes"] += 16 * (c * M ** d + d * M * P
                                              + (2 * c * M * P if d > 1 else 0)
                                              + c * P)


def _compose_shift(counts, bound, result, seconds):
    path = "series_s" if bound.arguments["method"] == "series" else "grid_s"
    counts["fourier.compose_shift." + path] += seconds


def _inversion_sweeps(counts, bound, result, seconds):
    counts["fourier.invert_near_identity.sweeps"] += result.info.get("sweeps", 0)


def _multiply(counts, bound, result, seconds):
    a = bound.arguments["f"].coeffs[0]
    b = bound.arguments["g"].coeffs[0]
    nnz_a = int((a != 0).sum())
    counts["fourier.multiply.pairs_useful"] += nnz_a * int((b != 0).sum())
    counts["fourier.multiply.pairs_done"] += nnz_a * b.size


def _run_linearize(counts, bound, result, seconds):
    report = result[1]
    counts["kam.stages"] += report.stages
    counts["kam.direct_defect"] = max(counts["kam.direct_defect"],
                                      report.direct_defect)
    for step in report.step_reports:
        counts["kam.assembly_mismatch_max"] = max(
            counts["kam.assembly_mismatch_max"], step.assembly_mismatch)
        counts["kam.spill_max"] = max(counts["kam.spill_max"], step.spill)


def _bytes_written(counts, bound, result, seconds):
    counts["serialize.bytes_written"] += len(bound.arguments["text"].encode())


# (span name, module, attribute path, before hook, after hook)
SPANS = (
    ("precision.int_nth_root", "kamtorus.precision", "int_nth_root", None, _nth_root_bits),
    ("precision.big_gcd", "kamtorus.precision", "big_gcd", None, None),
    ("precision.resolve_floor", "kamtorus.precision", "resolve_floor", _count_rounds, None),
    ("precision.floor_exp", "kamtorus.precision", "floor_exp", None, None),
    ("diophantine.omega_min", "kamtorus.diophantine", "omega_min", None, _omega_min),
    ("diophantine.bryuno_partial_sum", "kamtorus.diophantine", "bryuno_partial_sum", None, None),
    ("diophantine.continued_fraction", "kamtorus.diophantine", "continued_fraction", None, None),
    ("diophantine.omega_min_1d", "kamtorus.diophantine", "omega_min_1d", None, None),
    ("construction.construct_step", "kamtorus.construction", "construct_step", None, None),
    ("construction.level_direction_data", "kamtorus.construction", "level_direction_data", None, None),
    ("construction.verify_construction", "kamtorus.construction", "verify_construction", None, None),
    ("construction.verify_divisor_bounds", "kamtorus.construction", "verify_divisor_bounds", None, None),
    ("construction.verify_criteria", "kamtorus.construction", "verify_criteria", None, None),
    ("construction.state_to_jsonable", "kamtorus.construction", "state_to_jsonable", None, None),
    ("schedule.dyadic_weight_recipe", "kamtorus.schedule", "dyadic_weight_recipe", None, None),
    ("schedule.delta_schedule", "kamtorus.schedule", "delta_schedule", None, None),
    ("schedule.dimension_one_check", "kamtorus.schedule", "dimension_one_check", None, None),
    ("schedule.advance_stage", "kamtorus.schedule", "advance_stage", None, _advance_stage),
    ("fourier.evaluate", "kamtorus.fourier", "FourierMap.evaluate", None, _evaluate),
    ("fourier.reexpand", "kamtorus.fourier", "_reexpand", None, None),
    ("fourier.compose_shift", "kamtorus.fourier", "compose_shift", None, _compose_shift),
    ("fourier.invert_near_identity", "kamtorus.fourier", "invert_near_identity", None, _inversion_sweeps),
    ("fourier.norm_xi", "kamtorus.fourier", "norm_xi", None, None),
    ("fourier.multiply", "kamtorus.fourier", "multiply", None, _multiply),
    ("fourier.invert_series", "kamtorus.fourier", "invert_series", None, None),
    ("kam.run_linearize", "kamtorus.kam", "run_linearize", None, _run_linearize),
    ("kam.kam_step", "kamtorus.kam", "kam_step", None, None),
    ("kam.solve_cohomological", "kamtorus.kam", "solve_cohomological", None, None),
    ("kam.manufacture_test_map", "kamtorus.kam", "manufacture_test_map", None, None),
    ("kam.compose_conjugacy", "kamtorus.kam", "compose_conjugacy", None, None),
    ("kam.direct_conjugacy_defect", "kamtorus.kam", "direct_conjugacy_defect", None, None),
    ("cli.construct", "kamtorus.cli", "cmd_construct", None, None),
    ("cli.analyze", "kamtorus.cli", "cmd_analyze", None, None),
    ("cli.schedule", "kamtorus.cli", "cmd_schedule", None, None),
    ("cli.linearize", "kamtorus.cli", "cmd_linearize", None, None),
    ("cli.verify", "kamtorus.cli", "cmd_verify", None, None),
    ("serialize.write_json", "kamtorus.serialize", "write_json", None, None),
    ("serialize.atomic_write_text", "kamtorus.serialize", "atomic_write_text", None, _bytes_written),
)


def _oracle_distance(tracer, original):
    counts = tracer.counts

    @functools.wraps(original)
    def distance(self, l):
        counts["schedule.oracle.distance_calls"] += 1
        cache = getattr(self, "_cache", None)
        if cache is not None and tuple(l) in cache:
            counts["schedule.oracle.distance_hits"] += 1
        return original(self, l)

    return distance


def install(tracer: Tracer) -> None:
    """Wrap every target in SPANS (plus the oracle counter) in place."""
    import kamtorus.cli  # noqa: F401  (imports every traced module)

    for name, mod_name, path, before, after in SPANS:
        owner = sys.modules.get(mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.missing.append(name)
            continue
        wrapper = tracer.span(name, original, before, after)
        if cls_path:
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)
    oracle = getattr(sys.modules["kamtorus.schedule"], "DivisorOracle", None)
    if oracle is None or not hasattr(oracle, "distance"):
        tracer.missing.append("schedule.oracle")
    else:
        oracle.distance = _oracle_distance(tracer, oracle.distance)
