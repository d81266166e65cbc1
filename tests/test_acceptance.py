"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Every expected value is either exact (integer arithmetic), an
independently computed oracle, or a measured constant that is reported
rather than asserted.
"""

import math
import time
import mpmath
import numpy as np

from kamtorus import construction as con
from kamtorus import diophantine as dio
from kamtorus import fourier as fr
from kamtorus import kam
from kamtorus import schedule as sch
from kamtorus.precision import working_precision


def _failure_lines(rep):
    """The lines of the failed entries of a VerificationReport."""
    return [e.line() for e in rep.entries if e.passed is False]


PAIR = (math.sqrt(2) - 1, math.sqrt(3) - 1)

_cache = {}


def paper_state():
    if "paper" not in _cache:
        _cache["paper"] = con.build(levels=1)
    return _cache["paper"]


def toy6_state():
    if "toy6" not in _cache:
        _cache["toy6"] = con.build(
            levels=6,
            schedule=con.GrowthSchedule(mode="toy", base=2, exponent_scale="1/8"))
    return _cache["toy6"]


def _line(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


def test_criterion_01_construction_exactness():
    t0 = time.monotonic()
    with working_precision(256):
        lo = con.build(levels=1)
        lo_dir = con.level_direction_data(lo)
    with working_precision(512):
        hi = con.build(levels=1)
        hi_dir = con.level_direction_data(hi)
    assert (lo.p, lo.q, lo.p_bar, lo.q_bar, lo.a, lo.c) == \
        (hi.p, hi.q, hi.p_bar, hi.q_bar, hi.a, hi.c)
    assert lo_dir == hi_dir
    # the two growth factors, pinned against independent 512-bit enclosures
    assert lo.a[0] == 92456120875
    with working_precision(512):
        assert int(mpmath.floor(mpmath.exp(mpmath.mpf(101) / 4))) == lo.a[0]
        assert int(mpmath.floor(mpmath.exp(101 / (2 * mpmath.log(2))))) == lo.a[1]
    assert len(str(lo.a[1])) == 32
    rep = con.verify_construction(lo)
    assert rep.all_passed(), _failure_lines(rep)
    for name in ("growth_sandwich_lower", "growth_sandwich_upper",
                 "even_gcd_bound", "convergent_gcd_divides",
                 "direction_size_bound", "direction_coprime"):
        entries = [e for e in rep.entries if e.name == name]
        assert entries and all(e.passed for e in entries), name
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _line(1, f"level 0->1 exact at 256/512 bits, all structural checks green "
             f"({elapsed:.2f}s < 5s)")


def test_criterion_02_small_divisor_structure():
    t0 = time.monotonic()
    rep = con.verify_divisor_bounds(paper_state(), 0)
    argmin = next(e for e in rep.entries if e.name == "argmin_is_direction")
    lower = next(e for e in rep.entries if e.name == "omega_lower_bound")
    assert argmin.passed and "(100, -101)" in argmin.margin
    assert lower.passed
    assert rep.all_passed(), _failure_lines(rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _line(2, f"ball |l|<=101 scan: argmin = +/-(100,-101), exact lower bound "
             f"({elapsed:.2f}s < 10s)")


def test_criterion_03_non_bryuno_band():
    state = toy6_state()
    rep = con.verify_criteria(state, max_scale=128)
    bands = [e for e in rep.entries if e.name == "loss_rate_band"]
    assert len(bands) == state.level
    assert all(e.passed for e in bands), [e.line() for e in bands]
    nominal = [e for e in rep.entries if e.name == "loss_rate_paper_band"]
    assert len(nominal) == state.level  # recomputed + nominal both reported
    growth = [e for e in rep.entries if e.name == "scale_growth"]
    assert all(e.passed for e in growth)
    _line(3, f"toy 6-level vector: per-level loss rate inside the recomputed "
             f"band at all {len(bands)} levels (nominal constants reported)")


def test_criterion_04_dimension_one_equivalence():
    t0 = time.monotonic()
    golden = (mpmath.sqrt(5) - 1) / 2
    rep, det = sch.dimension_one_check([golden], 12)
    assert rep.all_passed(), _failure_lines(rep)
    duals = [e for e in rep.entries if e.name == "budget_dual_path"]
    assert len(duals) == 12 and all(e.passed for e in duals)
    assert det["inf_delta"] > 0
    # reference schedule drops are the budgets by construction; the dual-path
    # entries certify each budget to 1e-12 against the convergent fast path
    for n in range(12):
        drop = det["reference"][n] - det["reference"][n + 1]
        assert abs(drop - float(det["budgets"][n])) <= 1e-12 * max(1.0, drop)

    liou = dio.synthetic_liouville(4)
    rep2, det2 = sch.dimension_one_check([liou], 16, gothic_d=0.75)
    assert rep2.all_passed(), _failure_lines(rep2)
    assert det2["cumulative_budget"] > 0.75      # burns any fixed budget
    assert det2["reference"][-1] < 0
    assert det2["inf_delta"] < 0                 # realized schedule dives too
    deltas = [row[0] for row in det2["schedule"].values]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _line(4, f"golden: budgets dual-path <= 1e-12 (n <= 12), inf delta = "
             f"{det['inf_delta']:.4f} > 0; liouville: cumulative budget "
             f"{det2['cumulative_budget']:.2f} > 0.75, schedule dives below 0 "
             f"({elapsed:.1f}s < 30s)")


def test_criterion_05_schedule_properties():
    grid = sch.DirectionGrid.circle(16)
    runs = [
        ("full_range", sch.dyadic_weight_recipe(PAIR, 6, gothic_d=0.4, N=3)),
        ("annulus", sch.WeightSequence(c=(0.05,) * 9, N=3, gothic_d=0.4)),
    ]
    for variant, w in runs:
        s = sch.delta_schedule(PAIR, grid, w, 6, variant=variant)
        for n in range(s.stages() - 1):
            for i in range(len(grid)):
                assert s.values[n + 1][i] <= s.values[n][i]  # exact
    # domination under downward perturbation, re-run one stage
    w = sch.dyadic_weight_recipe(PAIR, 6, gothic_d=0.4, N=2)
    s = sch.delta_schedule(PAIR, grid, w, 4)
    oracle = sch.DivisorOracle(PAIR)
    base = s.values[3]
    lowered = [v - 0.005 * (1 + (i % 4)) for i, v in enumerate(base)]
    hi, _, _, _ = sch.advance_stage(oracle, grid, w, base, 3)
    lo, _, _, _ = sch.advance_stage(oracle, grid, w, lowered, 3)
    assert all(a <= b + 1e-10 for a, b in zip(lo, hi))
    # grid refinement comparison (reported)
    fine = sch.delta_schedule(PAIR, sch.DirectionGrid.circle(32), w, 3)
    coarse = sch.delta_schedule(PAIR, grid, w, 3)
    diffs = [abs(coarse.values[3][i] - fine.values[3][2 * i])
             for i in range(len(grid))]
    _line(5, f"monotone (exact, both variants), domination <= 1e-10, grid "
             f"16->32 refinement max delta change {max(diffs):.3e} (reported)")


def test_criterion_06_norm_algebra_and_calculus():
    rng = np.random.default_rng(606)
    dom = fr.SlicedDomain.constant(2, 0.04)
    violations = 0
    for _ in range(100):
        def rand_scalar():
            modes = {}
            for _ in range(4):
                l = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                if l != (0, 0):
                    modes[l] = (rng.standard_normal() + 1j * rng.standard_normal())
            return fr.FourierMap.from_modes(2, 4, modes, components=1)
        a, b = rand_scalar(), rand_scalar()
        lhs = fr.norm_xi(fr.multiply(a, b), fr.SlicedDomain.constant(2, 0.04))
        rhs = fr.norm_xi(a, dom) * fr.norm_xi(b, dom)
        if lhs > rhs * (1 + 1e-10):
            violations += 1
    assert violations == 0
    for _ in range(25):
        modes = {}
        for _ in range(5):
            l = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            if l != (0, 0):
                modes[l] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = fr.FourierMap.from_modes(2, 5, modes)
        dom5 = fr.SlicedDomain.constant(2, 0.03)
        base = fr.norm_xi(f, dom5)
        for j in (1, 2):
            if fr.norm_xi(fr.derivative(f, j), dom5) > \
                    2 * math.pi * 5 * base * (1 + 1e-12):
                violations += 1
    assert violations == 0
    grid = sch.DirectionGrid.circle(8)
    dom_o = fr.SlicedDomain(grid=grid, radii=(0.08,) * 8)
    dom_s = fr.SlicedDomain(grid=grid, radii=(0.072,) * 8)
    for _ in range(20):
        modes = {}
        for _ in range(6):
            l = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            if l != (0, 0):
                modes[l] = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.2
        f = fr.FourierMap.from_modes(2, 6, modes)
        rep = fr.remainder_split_check(f, dom_o, dom_s, 3)
        if not rep.all_passed():
            violations += 1
    assert violations == 0
    _line(6, "algebra inequality (100 pairs), derivative bound (25 maps), "
             "remainder split (20 tails x 8 directions): zero violations")


def test_criterion_07_cohomological_residuals():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        modes = {}
        while len(modes) < 20:
            l = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
            if l != (0, 0):
                modes[l] = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 1e-3
        df = fr.FourierMap.from_modes(2, 8, modes)
        h = kam.solve_cohomological(df, PAIR, 8)
        worst = max(worst, kam.cohomological_residual(h, df, PAIR, 8) / df.l1_norm())
    assert worst <= 1e-12
    _line(7, f"50 random trig polynomials, N = 8: worst relative residual "
             f"{worst:.2e} <= 1e-12")


def test_criterion_08_inversion_composition_oracles():
    rng = np.random.default_rng(808)
    f = fr.FourierMap.from_modes(2, 10, {
        (1, 0): rng.standard_normal(2) * 0.3 + 1j * rng.standard_normal(2) * 0.3,
        (0, 1): rng.standard_normal(2) * 0.2,
        (2, 1): rng.standard_normal(2) * 0.05})
    h0 = fr.FourierMap.from_modes(2, 10, {
        (1, 0): [2e-4, 1e-4j], (0, 1): [-1.3e-4, 2.1e-4], (1, 1): [7e-5, -5e-5]})
    grid_path = fr.compose_shift(f, h0)
    series = fr.compose_shift(f, h0, method="series")
    dual = float(np.abs(grid_path.coeffs - series.coeffs).sum())
    assert dual <= 1e-10
    g_grid = fr.invert_near_identity(h0)
    g_series = fr.invert_series(h0)
    assert float(np.abs(g_grid.coeffs - g_series.coeffs).sum()) <= 1e-10
    pts = fr._sample_points(2, 32)
    ratios = []
    for k in range(6):
        h = h0.scaled(2.0 ** -k)
        g = fr.invert_near_identity(h)
        y = pts - h.evaluate(pts).T + g.evaluate(pts).T
        z = y + h.evaluate(y).T
        assert np.abs(z - pts).max() <= 1e-12
        ratios.append(g.l1_norm() / h.l1_norm() ** 2)
    assert max(ratios) <= 4 * min(ratios)
    _line(8, f"dual paths agree to {dual:.1e} <= 1e-10, round trip <= 1e-12, "
             f"|g|/|h|^2 in [{min(ratios):.2f}, {max(ratios):.2f}] (factor-4 band)")


def test_criterion_09_kam_convergence():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    modes = {}
    for l in ((1, 0), (0, 1), (1, 1)):
        modes[l] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h_star = fr.FourierMap.from_modes(2, 32, modes)
    h_star = h_star.scaled(1e-3 / h_star.l1_norm())     # |H* - id| ~ 1e-3
    f = kam.manufacture_test_map(h_star, PAIR)
    params = kam.KamParams(max_stages=8, target_defect=1e-9)
    conj, rep, state = kam.run_linearize(f, PAIR, params)
    elapsed = time.monotonic() - t0
    assert rep.stages <= 8
    assert rep.defect <= 1e-8
    assert rep.direct_defect <= 1e-8
    assert rep.h_total_norm <= math.sqrt(rep.initial_norm)
    norms = [rep.initial_norm] + [r.defect for r in rep.step_reports]
    floor = 1e-13
    ratios = [norms[i + 1] / norms[i] ** 1.5
              for i in range(len(norms) - 1) if norms[i + 1] > floor]
    assert not ratios or max(ratios) < 50
    assert elapsed < 60.0
    margin = math.sqrt(rep.initial_norm) / rep.h_total_norm
    _line(9, f"defect {rep.defect:.2e} <= 1e-8 in {rep.stages} stages, "
             f"|H-id| = {rep.h_total_norm:.2e} (sqrt-eps margin {margin:.1f}x), "
             f"3/2-ratios bounded, {elapsed:.1f}s < 60s")


def test_criterion_10_determinism(tmp_path):
    from kamtorus import cli

    outputs = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        assert cli.main(["--out-dir", str(run_dir), "--seed", "11",
                         "construct", "--mode", "toy", "--levels", "2"]) == 0
        assert cli.main(["--out-dir", str(run_dir), "--seed", "11",
                         "schedule", "--alpha", "sqrt-pair", "--stages", "4",
                         "--grid-count", "8", "--flat-stages", "2"]) == 0
        assert cli.main(["--out-dir", str(run_dir), "--seed", "11",
                         "report", "--csv", str(run_dir / "schedule.csv"),
                         "--kind", "schedule"]) == 0
        outputs.append({
            name: (run_dir / name).read_bytes()
            for name in ("state.json", "construction_report.json",
                         "schedule.csv", "schedule.json",
                         "schedule_heatmap.svg")})
    assert outputs[0] == outputs[1]
    _line(10, "construct + schedule + report artifacts byte-identical across "
              "two runs with the same config and seed")
