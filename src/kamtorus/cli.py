"""Command-line front end: configuration, orchestration, artifact emission.

Subcommands
    construct   build the exact two-frequency vector, emit state + checks
    analyze     Diophantine profile: continued fraction, Omega table, sums
    schedule    direction-resolved delta schedule as CSV + headline JSON
    linearize   manufactured-map KAM run with per-stage CSV and summary
    verify      the cross-module consistency suite
    report      deterministic SVG plots from previously emitted CSV

Configuration is a single JSON file (--config) whose keys mirror the long
flag names; explicit flags win.  Unknown config keys are rejected.  All
artifacts are written atomically and are byte-identical across runs with
the same config and seed.  Exit codes: 0 success, 2 validation failure,
3 guarded numerical failure (a machine-readable diagnostic JSON is written
either way).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from . import construction as con
from . import diophantine as dio
from . import fourier as fr
from . import kam
from . import plots
from . import schedule as sch
from .errors import KamTorusError, SchemaMismatch
from .precision import set_working_precision, working_precision_bits
from .serialize import atomic_write_text, read_json, write_json

SCHEDULE_CSV_COLUMNS = ("stage", "beta_angle", "delta",
                        "constraint_argmin_l1", "constraint_argmin_l2",
                        "variant")


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamtorus",
        description="small divisors, exact vector construction, and KAM "
                    "linearization on the torus")
    parser.add_argument("--config", type=Path,
                        help="JSON config; keys mirror long flag names, flags win")
    parser.add_argument("--precision", type=int, default=256,
                        help="working precision in bits")
    parser.add_argument("--out-dir", type=Path, default=Path("artifacts"))
    parser.add_argument("--seed", type=int, default=2026,
                        help="seed for randomized inputs; recorded in artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the exact vector")
    p.add_argument("--mode", choices=("paper", "toy"), default="toy")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--scale", default="1/8", help="toy exponent scale in (0,1]")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--theta-bar", default="0.4")
    p.add_argument("--q0", type=int, default=100)
    p.add_argument("--q0-bar", type=int, default=101)
    p.add_argument("--digit-budget", type=int, default=10 ** 6)

    p = sub.add_parser("analyze", help="Diophantine profile of a vector")
    p.add_argument("--alpha", default="golden",
                   help="golden | sqrt-pair | liouville | constructed:STATE.json "
                        "| comma-separated floats")
    p.add_argument("--depth", type=int, default=12)

    p = sub.add_parser("schedule", help="delta schedule CSV + headline")
    p.add_argument("--alpha", default="sqrt-pair")
    p.add_argument("--stages", type=int, default=6)
    p.add_argument("--grid-count", type=int, default=16)
    p.add_argument("--variant", choices=("full_range", "annulus"),
                   default="full_range")
    p.add_argument("--gothic-d", type=float, default=0.4)
    p.add_argument("--flat-stages", type=int, default=2,
                   help="stages held at the starting radius before solving")
    p.add_argument("--weights", default="dyadic",
                   help="dyadic | flat:VALUE | construction:STATE.json")
    p.add_argument("--c1", type=float, default=1.0)

    p = sub.add_parser("linearize", help="manufactured-map KAM run")
    p.add_argument("--alpha", default="sqrt-pair")
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--stages", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="size of the manufacturing conjugacy |H*-id|")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--target-defect", type=float, default=1e-10)
    p.add_argument("--svg", action="store_true", help="emit the decay SVG")

    p = sub.add_parser("verify", help="cross-module consistency suite")
    p.add_argument("--levels", type=int, default=4,
                   help="toy construction depth for the suite")
    p.add_argument("--depth", type=int, default=8,
                   help="one-dimensional schedule depth")

    p = sub.add_parser("report", help="render SVG from an emitted CSV")
    p.add_argument("--csv", type=Path, required=True)
    p.add_argument("--kind", choices=("schedule", "kam"), required=True)
    p.add_argument("--out", type=Path, help="output SVG path")
    return parser


def _known_dests(parser: argparse.ArgumentParser) -> set:
    dests = set()
    for action in parser._actions:
        dests.add(action.dest)
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                dests.update(a.dest for a in sp._actions)
    dests.discard("help")
    return dests


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Load --config (if given) into parser defaults; explicit flags win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=Path)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    data = read_json(known.config)
    if not isinstance(data, dict):
        raise SchemaMismatch("config must be a JSON object")
    valid = _known_dests(parser)
    cleaned = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise SchemaMismatch(f"unknown config key {key!r}")
        cleaned[dest] = Path(value) if dest in ("out_dir", "csv", "out") else value
    parser.set_defaults(**cleaned)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                sp.set_defaults(**{k: v for k, v in cleaned.items()
                                   if k in {a.dest for a in sp._actions}})
    return argv


# ---------------------------------------------------------------------------
# shared helpers


def resolve_alpha(spec: str):
    """Named vectors, a constructed-state reference, or literal floats."""
    if spec == "golden":
        return ((mpmath.sqrt(5) - 1) / 2,)
    if spec == "sqrt-pair":
        return (mpmath.sqrt(2) - 1, mpmath.sqrt(3) - 1)
    if spec == "liouville":
        return (dio.synthetic_liouville(4),)
    if spec.startswith("constructed:"):
        state = con.state_from_jsonable(read_json(spec.split(":", 1)[1]))
        return con.alpha_approx(state)
    try:
        parts = tuple(float(x) for x in spec.split(","))
    except ValueError:
        raise SchemaMismatch(f"cannot interpret alpha spec {spec!r}") from None
    if not 1 <= len(parts) <= 2:
        raise SchemaMismatch("alpha must have one or two components")
    return parts


def _alpha_record(spec: str) -> dict:
    """How an artifact names its alpha: a constructed state by the SHA-256 of
    its file's bytes, not by its path, so the artifact does not depend on
    where the state lives; any other spec as given."""
    if spec.startswith("constructed:"):
        # imported here: hashlib loads OpenSSL, about 3 MB of resident
        # memory that no other command needs
        import hashlib

        data = Path(spec.split(":", 1)[1]).read_bytes()
        return {"alpha": "constructed",
                "alpha_state_sha256": hashlib.sha256(data).hexdigest()}
    return {"alpha": spec}


def _artifact_header(args) -> dict:
    return {
        "command": args.command,
        "seed": args.seed,
        "precision_bits": working_precision_bits(),
    }


def _write_csv(path: Path, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _print_report(rep) -> None:
    for line in rep.summary_lines():
        print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    schedule = con.GrowthSchedule(
        mode=args.mode, base=args.base,
        exponent_scale=Fraction(str(args.scale)) if args.mode == "toy" else Fraction(1, 8),
        digit_budget=args.digit_budget)
    state = con.build(theta_bar=args.theta_bar, levels=args.levels,
                      mode=args.mode, schedule=schedule,
                      q0=args.q0, q0_bar=args.q0_bar)
    rep = con.verify_construction(state)
    out = args.out_dir
    write_json(out / "state.json", con.state_to_jsonable(state))
    payload = _artifact_header(args)
    payload["growth"] = schedule.describe()
    payload["report"] = rep.to_jsonable()
    write_json(out / "construction_report.json", payload)
    _print_report(rep)
    print(f"state -> {out / 'state.json'}")
    return 0


def cmd_analyze(args) -> int:
    alpha = resolve_alpha(args.alpha)
    records = []
    total = dio.bryuno_partial_sum(alpha, args.depth, records=records)
    rows = []
    partial = mpmath.mpf(0)
    for k, rec in enumerate(records, start=1):
        partial += rec.bryuno_term()
        rows.append((k, rec.N, repr(float(rec.value_mpf())),
                     repr(float(partial))))
    out = args.out_dir
    _write_csv(out / "analyze.csv", ("k", "scale", "omega", "partial_sum"), rows)
    payload = _artifact_header(args)
    payload.update(_alpha_record(args.alpha), depth=args.depth,
                   bryuno_partial_sum=float(total))
    if len(alpha) == 1:
        try:
            cf = dio.continued_fraction(alpha[0], min(args.depth, 30))
            b_part, q_part = dio.bryuno_1d(alpha[0], min(args.depth, 25))
            payload["continued_fraction"] = {
                "quotients": list(cf.quotients),
                "denominators": [str(q) for q in cf.denominators],
            }
            payload["b_function_partial"] = float(b_part)
            payload["denominator_sum_partial"] = float(q_part)
        except KamTorusError as exc:
            payload["continued_fraction_error"] = str(exc)
    write_json(out / "analyze.json", payload)
    print(f"bryuno partial sum (K={args.depth}): {float(total):.6g}")
    print(f"rows -> {out / 'analyze.csv'}")
    return 0


def _build_weights(args, alpha):
    spec = args.weights
    if spec == "dyadic":
        return sch.dyadic_weight_recipe(alpha, args.stages,
                                        gothic_d=args.gothic_d,
                                        N=args.flat_stages)
    if spec.startswith("flat:"):
        value = float(spec.split(":", 1)[1])
        return sch.WeightSequence(c=(value,) * (args.stages + 2),
                                  N=args.flat_stages, gothic_d=args.gothic_d)
    if spec.startswith("construction:"):
        state = con.state_from_jsonable(read_json(spec.split(":", 1)[1]))
        return sch.construction_weights(state, args.stages,
                                        gothic_d=args.gothic_d,
                                        N=args.flat_stages)
    raise SchemaMismatch(f"unknown weight recipe {spec!r}")


def cmd_schedule(args) -> int:
    alpha = resolve_alpha(args.alpha)
    weights = _build_weights(args, alpha)
    grid = (sch.DirectionGrid.pair() if len(alpha) == 1
            else sch.DirectionGrid.circle(args.grid_count))
    result = sch.delta_schedule(alpha, grid, weights, args.stages,
                                variant=args.variant, c1=args.c1)
    out = args.out_dir
    _write_csv(out / "schedule.csv", SCHEDULE_CSV_COLUMNS, result.csv_rows())
    payload = _artifact_header(args)
    payload.update(_alpha_record(args.alpha), headline=result.headline(),
                   scan=result.scan)
    write_json(out / "schedule.json", payload)
    print(json.dumps(result.headline(), sort_keys=True))
    print(f"rows -> {out / 'schedule.csv'}")
    return 0


def _manufactured_h_star(args):
    rng = np.random.default_rng(args.seed)
    modes = {}
    for l in ((1, 0), (0, 1), (1, 1)):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        modes[l] = vec
    h = fr.FourierMap.from_modes(2, args.n_max, modes)
    return h.scaled(args.epsilon / h.l1_norm())


def cmd_linearize(args) -> int:
    alpha = tuple(float(a) for a in resolve_alpha(args.alpha))
    if len(alpha) != 2:
        raise SchemaMismatch("linearize expects a two-component alpha")
    h_star = _manufactured_h_star(args)
    f = kam.manufacture_test_map(h_star, alpha)
    params = kam.KamParams(n_max=args.n_max, max_stages=args.stages,
                           repeats=args.repeats,
                           target_defect=args.target_defect)
    conjugacy, report, state = kam.run_linearize(f, alpha, params)
    out = args.out_dir
    _write_csv(out / "kam_stages.csv", kam.CSV_COLUMNS,
               (r.csv_row() for r in report.step_reports))
    payload = _artifact_header(args)
    payload.update(alpha=list(alpha), epsilon=args.epsilon,
                   summary=report.to_jsonable())
    write_json(out / "kam_summary.json", payload)
    if args.svg:
        series = _kam_series([r.csv_row() for r in report.step_reports])
        if state.ledger is not None:
            series.append(("epsilon_ledger",
                           [(n, float(v)) for n, v in
                            enumerate(state.ledger.values) if float(v) > 0]))
        atomic_write_text(out / "kam_decay.svg",
                          plots.decay_curves(series, title="kam decay"))
    print(f"converged={report.converged} stages={report.stages} "
          f"defect={report.defect:.3e} |H-id|={report.h_total_norm:.3e}")
    print(f"rows -> {out / 'kam_stages.csv'}")
    return 0


def cmd_verify(args) -> int:
    reports = []

    paper = con.build(levels=1, mode="paper")
    reports.append(con.verify_construction(paper))
    reports.append(con.verify_divisor_bounds(paper, 0))

    toy = con.build(levels=args.levels, mode="toy",
                    schedule=con.GrowthSchedule(mode="toy", base=2,
                                                exponent_scale="1/8"))
    reports.append(con.verify_construction(toy))
    reports.append(con.verify_criteria(toy, max_scale=128))

    golden = (mpmath.sqrt(5) - 1) / 2
    dim1_rep, _ = sch.dimension_one_check([golden], args.depth)
    reports.append(dim1_rep)

    rng = np.random.default_rng(args.seed)
    grid = sch.DirectionGrid.circle(8)
    dom = fr.SlicedDomain(grid=grid, radii=(0.08,) * 8)
    shrunk = fr.SlicedDomain(grid=grid, radii=(0.072,) * 8)
    modes = {}
    for _ in range(6):
        l = tuple(int(rng.integers(-6, 7)) for _ in range(2))
        if l != (0, 0):
            modes[l] = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.1
    test_map = fr.FourierMap.from_modes(2, 6, modes)
    reports.append(fr.remainder_split_check(test_map, dom, shrunk, 3))

    payload = _artifact_header(args)
    payload["reports"] = [r.to_jsonable() for r in reports]
    all_ok = all(r.all_passed() for r in reports)
    payload["all_passed"] = all_ok
    write_json(args.out_dir / "verify_report.json", payload)
    for rep in reports:
        _print_report(rep)
    print(f"suite {'PASS' if all_ok else 'FAIL'} -> "
          f"{args.out_dir / 'verify_report.json'}")
    return 0 if all_ok else 3


def _read_csv_checked(path: Path, expected_columns) -> list:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SchemaMismatch(f"cannot read CSV: {exc}") from exc
    if not rows or tuple(rows[0]) != tuple(expected_columns):
        raise SchemaMismatch(
            f"CSV header {rows[0] if rows else '(empty)'} does not match "
            f"{list(expected_columns)}")
    return rows[1:]


def _kam_series(rows):
    head = [(int(r[0]), float(r[2])) for r in rows]
    tail = [(int(r[0]), float(r[3])) for r in rows]
    defect = [(int(r[0]), float(r[6])) for r in rows]
    return [("norm_head", head), ("norm_tail", tail), ("defect", defect)]


def cmd_report(args) -> int:
    if args.kind == "schedule":
        rows = _read_csv_checked(args.csv, SCHEDULE_CSV_COLUMNS)
        try:
            data = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
        except ValueError as exc:
            raise SchemaMismatch(f"malformed schedule row: {exc}") from exc
        svg = plots.schedule_heatmap(data)
        default_name = "schedule_heatmap.svg"
    else:
        rows = _read_csv_checked(args.csv, kam.CSV_COLUMNS)
        try:
            series = _kam_series(rows)
        except ValueError as exc:
            raise SchemaMismatch(f"malformed kam row: {exc}") from exc
        svg = plots.decay_curves(series, title="kam decay")
        default_name = "kam_decay.svg"
    out = args.out or (args.out_dir / default_name)
    atomic_write_text(out, svg)
    print(f"svg -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "construct": cmd_construct,
    "analyze": cmd_analyze,
    "schedule": cmd_schedule,
    "linearize": cmd_linearize,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _write_diagnostic(args, exc: Exception) -> None:
    try:
        diag = exc.diagnostic() if isinstance(exc, KamTorusError) else {
            "error": type(exc).__name__, "message": str(exc)}
        diag["command"] = getattr(args, "command", None)
        out_dir = getattr(args, "out_dir", Path("artifacts"))
        write_json(Path(out_dir) / "diagnostic.json", diag)
    except OSError:
        pass


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # artifacts convert exact integers through `serialize`, which needs no
    # lift; the CLI owns its process and lifts CPython's int/str digit
    # limit (0 = none) for any message that prints a huge integer directly
    if 0 < sys.get_int_max_str_digits() < 2_100_000:
        sys.set_int_max_str_digits(2_100_000)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
    except (SchemaMismatch, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        set_working_precision(args.precision)
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](args)
    except SchemaMismatch as exc:
        _write_diagnostic(args, exc)
        print(json.dumps(exc.diagnostic()), file=sys.stderr)
        return 2
    except ValueError as exc:
        _write_diagnostic(args, exc)
        print(json.dumps({"error": "ValueError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except KamTorusError as exc:
        _write_diagnostic(args, exc)
        print(json.dumps(exc.diagnostic()), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
