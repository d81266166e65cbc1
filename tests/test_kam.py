"""Tests for the cohomological solver and the linearization loop."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from kamtorus import cli
from kamtorus import diophantine as dio
from kamtorus import fourier as fr
from kamtorus import kam
from kamtorus.errors import (DomainExhausted, ResonanceDetected, StageDefect,
                             StepDiverged)
from kamtorus.serialize import canonical_dumps

ALPHA = (math.sqrt(2) - 1, math.sqrt(3) - 1)


def small_h_star(n_max=16, scale=1.0):
    return fr.FourierMap.from_modes(
        2, n_max,
        {(1, 0): [2.0e-4 * scale, 1.0e-4j * scale],
         (0, 1): [-1.2e-4 * scale, 2.2e-4 * scale],
         (1, 1): [8e-5 * scale, -6e-5 * scale]})


# -- cohomological equation ----------------------------------------------------

def test_solve_zero():
    df = fr.FourierMap.zeros(2, 8)
    h = kam.solve_cohomological(df, ALPHA, 8)
    assert h.l1_norm() == 0


def test_solve_single_mode_closed_form():
    eps = 3e-4
    df = fr.FourierMap.from_modes(2, 8, {(2, 1): [eps, 0.0]}, hermitian=False)
    h = kam.solve_cohomological(df, ALPHA, 8)
    divisor = np.exp(2j * np.pi * (2 * ALPHA[0] + ALPHA[1])) - 1
    assert h.mode((2, 1))[0] == pytest.approx(eps / divisor, rel=1e-14)
    assert abs(h.mean()).max() == 0
    assert kam.cohomological_residual(h, df, ALPHA, 8) <= 1e-16 * eps


def test_solver_residual_random_maps():
    rng = np.random.default_rng(101)
    for _ in range(20):
        modes = {}
        for _ in range(20):
            l = tuple(int(rng.integers(-8, 9)) for _ in range(2))
            if l == (0, 0):
                continue
            modes[l] = rng.standard_normal(2) * 1e-3 + 1j * rng.standard_normal(2) * 1e-3
        df = fr.FourierMap.from_modes(2, 8, modes)
        h = kam.solve_cohomological(df, ALPHA, 8)
        res = kam.cohomological_residual(h, df, ALPHA, 8)
        assert res <= 1e-12 * df.l1_norm()


def test_solver_detects_resonance():
    df = fr.FourierMap.from_modes(2, 8, {(4, 0): [1e-3, 0.0]})
    with pytest.raises(ResonanceDetected):
        kam.solve_cohomological(df, (0.25, math.sqrt(3) - 1), 8)


def test_solver_mode_range():
    df = fr.FourierMap.from_modes(2, 8, {(7, 0): [1e-3, 0.0], (2, 0): [1e-3, 0.0]})
    h = kam.solve_cohomological(df, ALPHA, 4)
    assert abs(h.mode((7, 0))).max() == 0       # beyond N: untouched
    assert abs(h.mode((2, 0))).max() > 0


# -- manufactured maps -----------------------------------------------------------

def test_manufacture_identity():
    zero = fr.FourierMap.zeros(2, 8)
    f = kam.manufacture_test_map(zero, ALPHA)
    assert f.l1_norm() < 1e-14


def test_manufacture_first_order():
    eps = 1e-5
    h_star = fr.FourierMap.from_modes(2, 12, {(1, 0): [eps, 0.5 * eps]})
    f = kam.manufacture_test_map(h_star, ALPHA)
    divisor = np.exp(2j * np.pi * ALPHA[0]) - 1
    lead = f.mode((1, 0))
    expected = h_star.mode((1, 0)) * divisor
    assert np.abs(lead - expected).max() <= 10 * eps ** 2


# -- single step ------------------------------------------------------------------

def test_step_on_zero_perturbation():
    params = kam.KamParams(max_stages=2)
    state = kam.initial_state(fr.FourierMap.zeros(2, 8), ALPHA, params)
    out = kam.kam_step(state)
    assert out.delta_f.l1_norm() < 1e-14
    assert out.reports[0].assembly_mismatch < 1e-14


def test_step_records_schedule_radii():
    params = kam.KamParams(max_stages=3)
    f = kam.manufacture_test_map(small_h_star(16), ALPHA)
    state = kam.initial_state(f, ALPHA, params)
    out = kam.kam_step(state)
    col = min(1, out.schedule.stages() - 1)
    assert out.reports[0].radii_min == pytest.approx(
        min(float(v) for v in out.schedule.values[col]))


def test_step_assembly_matches_direct_composition():
    params = kam.KamParams(max_stages=4)
    f = kam.manufacture_test_map(small_h_star(16), ALPHA)
    state = kam.initial_state(f, ALPHA, params)
    for _ in range(2):
        state = kam.kam_step(state)
    for rep in state.reports:
        assert rep.assembly_mismatch <= 1e-10


def test_step_diverges_near_resonance(monkeypatch):
    # a constant drift (rotation vector off alpha) feeding a near-resonant
    # mode: the solved mode stays under the inversion guard, but its
    # derivative against the drift outweighs the removed mode, so the
    # perturbation grows and the step must fail with the ledger attached
    alpha = (0.5 + 5e-7, math.sqrt(3) - 1)
    df = fr.FourierMap.from_modes(2, 8, {(2, 0): [1e-8, 0.0]})
    df = df + fr.FourierMap.constant(2, 8, [5e-4, 3e-4])
    params = kam.KamParams(max_stages=4, target_defect=1e-18)
    state = kam.initial_state(df, alpha, params)
    built = []                             # every state a stage builds
    monkeypatch.setattr(kam, "replace", lambda *a, **kw: built.append(
        dataclasses.replace(*a, **kw)) or built[-1])
    with pytest.raises(StepDiverged) as exc:
        for _ in range(4):
            state = kam.kam_step(state)
    # the ledger is the rows of the state the diverged stage built: the
    # finished stages, then the diverged one
    err = exc.value
    assert err.ledger == built[-1].rows()
    assert err.ledger[:-1] == state.rows()
    assert len(err.ledger) == err.stage + 1 == built[-1].stage
    assert err.ledger[-1][0] == err.diagnostic()["stage"] == err.stage


# -- the loop ----------------------------------------------------------------------

def test_linearize_pure_rotation():
    params = kam.KamParams(max_stages=3, target_defect=1e-13)
    conj, rep, _ = kam.run_linearize(fr.FourierMap.zeros(2, 8), ALPHA, params)
    assert rep.converged
    assert rep.defect < 1e-13
    assert conj.l1_norm() < 1e-13


def test_linearize_manufactured_map():
    h_star = small_h_star(16)
    f = kam.manufacture_test_map(h_star, ALPHA)
    params = kam.KamParams(max_stages=8, target_defect=1e-10)
    conj, rep, state = kam.run_linearize(f, ALPHA, params)
    assert rep.converged and rep.stages <= 8
    assert rep.defect <= 1e-10
    # direct defect: H o (R_alpha + df_n) == f o H pointwise
    assert rep.direct_defect <= 1e-10
    # the accumulated conjugacy reproduces the manufacturing map
    assert np.abs(conj.coeffs - fr.retruncate(h_star, conj.n_max).coeffs).max() \
        <= 1e-8
    assert rep.h_total_norm <= math.sqrt(rep.initial_norm)


def test_linearize_quadratic_type_contraction():
    f = kam.manufacture_test_map(small_h_star(16, scale=5.0), ALPHA)
    params = kam.KamParams(max_stages=6, target_defect=1e-14)
    _, rep, _ = kam.run_linearize(f, ALPHA, params)
    norms = [rep.initial_norm] + [r.defect for r in rep.step_reports]
    floor = 1e-13
    ratios = [norms[i + 1] / norms[i] ** 1.5
              for i in range(len(norms) - 1) if norms[i + 1] > floor]
    assert ratios and max(ratios) < 50
    # constant-term smallness: |mean(df_{n+1})| <= measured_const * |df_n|^2,
    # checkable while the squared norm sits above the double-precision floor
    for i, r in enumerate(rep.step_reports):
        if norms[i] > 1e-7:
            assert r.const_term <= 100 * norms[i] ** 2


def test_linearize_refuses_large_input():
    big = fr.FourierMap.from_modes(2, 8, {(1, 0): [0.2, 0.1]})
    with pytest.raises(ValueError, match="smallness"):
        kam.run_linearize(big, ALPHA)


def test_summary_stage_diagnostics():
    f = kam.manufacture_test_map(small_h_star(12), ALPHA)
    params = kam.KamParams(max_stages=5, target_defect=1e-12)
    _, rep, state = kam.run_linearize(f, ALPHA, params)
    data = json.loads(canonical_dumps(rep.to_jsonable(state)))
    diag = data["stage_diagnostics"]
    assert len(diag) == rep.stages == len(rep.step_reports) >= 2
    # a stage is one solve: it adds one map to the conjugacy
    assert len(state.conjugacy) == rep.stages
    for entry, r in zip(diag, rep.step_reports):
        assert entry == {"stage": r.stage, "assembly_mismatch": r.assembly_mismatch,
                         "identity_bound": r.identity_bound,
                         "spill": r.spill, "h_norm": r.h_norm,
                         "inversion_sweeps": r.inversion_sweeps,
                         "inversion_residual": r.inversion_residual,
                         "taylor_order_df": r.taylor_order_df,
                         "taylor_radius_df": r.taylor_radius_df,
                         "taylor_order_h": r.taylor_order_h,
                         "taylor_radius_h": r.taylor_radius_h,
                         "schedule_column": state.column(r.stage + 1)}
        # the stage's sweep evaluates h at least once and stops below tol
        assert entry["inversion_sweeps"] >= 1
        assert entry["inversion_residual"] < 1e-14
        # both Taylor routes take an order, and a radius that covers the
        # offsets they were given
        for route in ("df", "h"):
            assert 0 <= entry[f"taylor_order_{route}"] <= fr.TAYLOR_MAX_ORDER
            assert entry[f"taylor_radius_{route}"] > 0
    # the defect is head plus tail, and each kam_stages.csv row is the
    # CSV_COLUMNS fields written out one by one
    for r, row in zip(rep.step_reports, state.rows(), strict=True):
        assert r.defect == r.norm_head + r.norm_tail
        assert row == (r.stage, r.trunc, repr(r.norm_head), repr(r.norm_tail),
                       repr(r.residual), repr(r.const_term),
                       repr(r.norm_head + r.norm_tail), repr(r.radii_min))
    # the stage rows live in kam_stages.csv alone
    assert "stage_rows" not in data and "csv_columns" not in data


def test_every_stage_field_reaches_an_artifact():
    fields = {f.name for f in dataclasses.fields(kam.StepReport)}
    assert fields == set(kam.CSV_COLUMNS) | set(kam.STAGE_DIAGNOSTICS)


# -- the stage gates -----------------------------------------------------------------

def _first_order_inverse(h, values, w, y):
    # the sweep cut to the first-order inverse v - h(x + alpha), its
    # residual reported as zero: the mutation the identity gate must catch.
    # The stage sweeps for offsets from x + alpha, so this is offset 0, where
    # the Taylor values are the translated h's grid values; the output
    # df_k(x) is then the start w - h(x + alpha), which lies within the
    # Taylor radius.  It ignores the stage's start y, whose one step is
    # nearly exact
    base = np.zeros_like(w)
    return base, values(base).T, 0.0, 1


def _manufactured_state(n_max=16):
    f = kam.manufacture_test_map(small_h_star(n_max), ALPHA)
    return kam.initial_state(f, ALPHA, kam.KamParams(max_stages=4))


def test_gate_catches_missing_inversion_correction(monkeypatch):
    state = _manufactured_state()
    monkeypatch.setattr(kam, "_preimages", _first_order_inverse)
    with pytest.raises(StageDefect) as exc:
        kam.kam_step(state)
    err = exc.value
    assert err.stage == 0 and err.ledger == []       # no finished stage yet
    assert err.terms["check"] == "conjugacy identity"
    assert err.terms["value"] > 1e6 * err.terms["bound"]
    # the bound's inputs, among them the stage's own diagnostics
    assert {"lipschitz_h", "offset_max", "perturbation_l1", "assembled_sup",
            "spill", "inversion_residual", "taylor_order_h",
            "taylor_radius_h"} <= err.terms.keys()
    diag = err.diagnostic()
    assert diag["error"] == "StageDefect" and diag["stage"] == 0


def test_gate_ledger_holds_the_finished_stages(monkeypatch):
    state = kam.kam_step(_manufactured_state())
    monkeypatch.setattr(kam, "_preimages", _first_order_inverse)
    with pytest.raises(StageDefect) as exc:
        kam.kam_step(state)
    assert exc.value.stage == 1
    assert exc.value.ledger == [r.csv_row() for r in state.reports]


def test_gate_catches_wrong_solved_band(monkeypatch):
    # a wrong translate corrupts the band h o R_alpha - h; translate is used
    # by the cohomological residual only, so the stage identity stays at
    # rounding level and the residual gate must fire
    state = _manufactured_state()
    right = fr.translate
    monkeypatch.setattr(kam, "translate", lambda f, v: right(f, -np.asarray(v)))
    h = kam.solve_cohomological(state.delta_f, ALPHA, state.truncation(0))
    _, diagnostics, _ = kam._conjugate(state.delta_f, h, ALPHA)
    assert diagnostics["assembly_mismatch"] <= diagnostics["identity_bound"]
    with pytest.raises(StageDefect) as exc:
        kam.kam_step(state)
    assert exc.value.stage == 0
    assert exc.value.terms["check"] == "cohomological residual"
    assert exc.value.terms["value"] > 1e6 * exc.value.terms["bound"]


def test_gate_budgets_the_inversion_residual(monkeypatch):
    # a coarser inversion is still a correct one: its identity defect follows
    # its sweep residual, far above rounding, and the bound's residual term
    # must carry it.  The sweep starts at offset 0, x + alpha, one sweep
    # behind the stage's start, from which the first residual is already
    # near 1e-13; the cold start v, offset w, lies beyond the Taylor radius.
    # The stage works in offsets from x + alpha, so its rounding is far
    # below 1e-12: the defect must exceed the bound taken with no residual
    # (the rounding part) a thousandfold
    state = _manufactured_state()
    right = fr._preimages
    monkeypatch.setattr(kam, "_preimages", lambda h, values, w, y: right(
        h, values, w, np.zeros_like(w), tol=1e-8))
    bound = kam._identity_bound
    seen = []

    def record(*args, **kwargs):
        seen.append((bound(*args, **kwargs)[0],
                     bound(*args, **dict(kwargs, r_inv=0.0))[0]))
        return bound(*args, **kwargs)

    monkeypatch.setattr(kam, "_identity_bound", record)
    out = kam.kam_step(state)
    rep = out.reports[0]
    (b, rounding), = seen
    assert 1e-12 < rep.inversion_residual < 1e-8
    assert 1e3 * rounding < rep.assembly_mismatch <= b < 1e-8


def test_cli_stage_defect_exit_and_diagnostic(tmp_path, monkeypatch):
    monkeypatch.setattr(kam, "_preimages", _first_order_inverse)
    rc = cli.main(["--out-dir", str(tmp_path), "linearize", "--n-max", "12",
                   "--stages", "3"])
    assert rc == 3
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    assert diag["error"] == "StageDefect" and diag["stage"] == 0
    assert diag["command"] == "linearize"
    assert diag["terms"]["check"] == "conjugacy identity"
    assert not (tmp_path / "kam_stages.csv").exists()


def _dense_identity_bound(lhs, rhs, h, df, spill, r_inv, assembled_sup, m,
                          **_):
    """The identity bound of the dense route that the Taylor route replaced,
    on the same inputs: each of the sweep's and the check's dense
    evaluations of h charged E_h = u (1.5 (M + 1) L + (6 s + 10) |h|)
    (s the nonzero radius of h, L = Lip(h)), and M entered the rounding of
    the sweep's target, its residual and the check's point y:

        (1 + L) (spill + 3 u P + 2 (rho + 2u) sqrt(N) S + 2 u M)
        + L (r_inv + 5 u M) + 2 E_h + 4 u M."""
    u = kam.UNIT_ROUNDOFF
    points = m ** h.d
    M = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    lip = fr._lipschitz(h)
    P = df.l1_norm() + h.l1_norm()
    rho = fr._fft_rho(points)
    e_h = u * (1.5 * (M + 1) * lip
               + (6 * fr.nonzero_radius(h) + 10) * h.l1_norm())
    delta = (spill + 3 * u * P
             + 2 * (rho + 2 * u) * math.sqrt(points) * assembled_sup
             + 2 * u * M)
    return (1 + lip) * delta + lip * (r_inv + 5 * u * M) + 2 * e_h + 4 * u * M


def test_readme_run_identity_within_bound(tmp_path, monkeypatch):
    seen = []
    bound = kam._identity_bound

    def record(lhs, rhs, *args, **kwargs):
        b, terms = bound(lhs, rhs, *args, **kwargs)
        seen.append((float(np.abs(lhs - rhs).max()), b,
                     _dense_identity_bound(lhs, rhs, *args, **kwargs)))
        return b, terms

    monkeypatch.setattr(kam, "_identity_bound", record)
    assert cli.main(["--out-dir", str(tmp_path), "linearize", "--n-max", "32",
                     "--stages", "8", "--epsilon", "1e-3"]) == 0
    diag = json.loads((tmp_path / "kam_summary.json").read_text())[
        "summary"]["stage_diagnostics"]
    assert len(seen) == len(diag) >= 2
    for (identity, b, dense), entry in zip(seen, diag):
        assert entry["assembly_mismatch"] == identity <= b
        assert entry["identity_bound"] == b
        # the bound is a rounding budget, far below a structural error, and
        # no looser than the dense route's on the same inputs
        assert b < 1e-12
        assert b <= dense


@pytest.mark.parametrize("d, n_max, alpha", [(2, 8, ALPHA), (1, 32, ALPHA[:1])],
                         ids=["d2", "d1"])
def test_residual_bound_covers_random_solves(d, n_max, alpha):
    # the bound holds only while translate and the solver round the phase
    # alike (`fourier._phase`): rounding (2 pi i l) v in one and
    # 2 pi i (l v) in the other breaks it in d = 1
    rng = np.random.default_rng(202)
    for _ in range(20):
        modes = {}
        for _ in range(20):
            l = tuple(int(rng.integers(-n_max, n_max + 1)) for _ in range(d))
            if any(l):
                modes[l] = (rng.standard_normal(d)
                            + 1j * rng.standard_normal(d)) * 10.0 ** rng.integers(-8, 0)
        df = fr.FourierMap.from_modes(d, n_max, modes)
        h = kam.solve_cohomological(df, alpha, n_max)
        assert kam.cohomological_residual(h, df, alpha, n_max) <= kam._residual_bound(df, h)


def readme_map(n_max):
    """The manufactured map and alpha of the README `linearize --n-max
    N_MAX --epsilon 1e-3` at the default seed and alpha."""
    alpha = tuple(float(a) for a in cli.resolve_alpha("sqrt-pair"))
    args = SimpleNamespace(seed=2026, n_max=n_max, epsilon=1e-3)
    return kam.manufacture_test_map(cli._manufactured_h_star(args), alpha), alpha


def test_stage_sweep_starts_second_order(monkeypatch):
    # the stage sweeps for offsets from x + alpha and starts at
    # y0 = w - H(0), w = h(x) + df(x + h(x)) and H the Taylor sums of the
    # translated h, whose order-0 values are H(0).  The preimage offset is
    # df_k(x), so y0 - df_k(x) = h(x + alpha + df_k(x)) - H(0), at most
    # L |df_k| with L = Lip(h) < 1 under the contraction guard (the factor 2
    # leaves (1 - L) |df_k| for the errors of the values it is formed
    # from), plus the 2 roundings forming w and y0 (2 u M, M the largest
    # |offset|).  The first residual is y0 + H(y0) - w = H(y0) - H(0) plus
    # the rounding of y0: the order-0 values, grid errors included, cancel,
    # and what is left is at most L |y0| for the translated h, its tail T,
    # the Horner rounding, the synthesis errors of the higher orders
    # (|y0| times `GridTaylor.rounding`'s synthesis factor), and u M each for
    # the rounding of y0, of y0 + H(y0) and of the difference with w.  That
    # budget is below the one of the dense start that it replaces, which
    # charged a dense evaluation of h, an inverse FFT of the translated h
    # and the rounding of its coefficients.  A cold start y0 = w is off by
    # h(x + alpha + df_k(x)) itself and fails the first check at stage 0
    calls = []
    right = fr._preimages

    def record(h, values, w, y):
        calls.append((h, values, w, y))
        return right(h, values, w, y)

    monkeypatch.setattr(kam, "_preimages", record)
    f, alpha = readme_map(32)
    params = kam.KamParams(max_stages=8, target_defect=1e-10)
    state = kam.initial_state(f, alpha, params)
    u = kam.UNIT_ROUNDOFF
    m = fr._grid_size(32)
    while state.delta_f.l1_norm() >= params.target_defect:
        state = kam.kam_step(state)
        h, values, w, y0 = calls[-1]
        M = max(float(np.abs(w).max()), float(np.abs(y0).max()))
        L = fr._lipschitz(values.g)
        dist = float(np.abs(y0).max())
        df_k = float(np.abs(state.delta_f.grid_values(m)).max())
        assert dist <= 2 * df_k + 2 * u * M
        first = float(np.abs(y0 + values(y0).T - w).max())
        horner, synthesis = values.rounding(m ** 2)
        budget = (1 + 2 * u) * (L * dist + values.tail + horner
                                + dist * synthesis + 3 * u * M)
        assert first <= budget
        # the dense start's budget: E_h = u (1.5 (M + 1) L + (6 s + 10) |h|)
        # for the evaluation, the inverse FFT of the translated h and its
        # coefficients' rounding
        g_sup = float(np.abs(values.grid).max())
        e_h = u * (1.5 * (M + 1) * L
                   + (6 * fr.nonzero_radius(h) + 10) * h.l1_norm())
        dense = (1 + 2 * u) * (L * dist + e_h
                               + (fr._fft_rho(m ** 2) + 2 * u) * m * g_sup
                               + u * (4 * max(map(abs, alpha)) * L
                                      + 5 * h.l1_norm())
                               + (2 + L) * u * M)
        assert budget <= dense
    assert len(calls) == state.stage == 3
    assert [r.inversion_sweeps for r in state.reports] == [4, 1, 1]
    assert all(r.inversion_residual < 1e-14 for r in state.reports)


def default_spec_at(gothic_d):
    """The default schedule spec of a run, started at gothic_d."""
    return dict(kam.DEFAULT_SCHEDULE, gothic_d=gothic_d)


def test_noise_floor_edge_converges():
    # delta0 n_max = 4.0, at the float64 noise floor (ROADMAP item 2): a
    # stage that adds re-expansion noise of its own, such as an FFT round
    # trip of an inversion map, grows the stage norm here (StepDiverged)
    f, alpha = readme_map(16)
    params = kam.KamParams(target_defect=1e-10)
    _, rep, state = kam.run_linearize(f, alpha, params, default_spec_at(0.25))
    assert rep.converged and rep.stages == 3
    assert rep.direct_defect <= 1e-12
    # the summary records the spec the run built its schedule from
    spec = rep.to_jsonable(state)["schedule"]["spec"]
    assert spec == default_spec_at(0.25) and spec["gothic_d"] == 0.25


def test_non_positive_domain_column_is_a_typed_error():
    # at delta0 0.1 column 3 of the default schedule is negative; stage 2
    # reads it as its next domain
    f, alpha = readme_map(32)
    params = kam.KamParams(target_defect=1e-10)
    spec = default_spec_at(0.1)
    state = kam.initial_state(f, alpha, params, spec)
    assert state.radius(3) < 0 < state.radius(2)
    with pytest.raises(DomainExhausted) as exc:
        kam.run_linearize(f, alpha, params, spec)
    err = exc.value
    assert err.stage == 2 and len(err.ledger) == 2
    assert [row[0] for row in err.ledger] == [0, 1]
    assert err.diagnostic()["stage"] == 2


def _schedule_record(f, alpha, n_max):
    _, rep, state = kam.run_linearize(
        f, alpha, kam.KamParams(target_defect=1e-10))
    summary = rep.to_jsonable(state)
    return rep, summary["schedule"], [d["schedule_column"]
                                      for d in summary["stage_diagnostics"]]


def test_summary_records_the_first_nonpositive_column():
    # d = 1, the Liouville stand-in as a double, h* on modes 1-3: the run
    # converges in 3 stages reading columns 1, 2, 3, and stops short of
    # column 4, whose least radius is -0.149
    alpha = (float(dio.synthetic_liouville(4)),)
    h_star = fr.FourierMap.from_modes(
        1, 32, {(1,): [2e-4], (2,): [-1.2e-4], (3,): [8e-5]})
    f = kam.manufacture_test_map(h_star.scaled(1e-3 / h_star.l1_norm()), alpha)
    rep, record, columns = _schedule_record(f, alpha, 32)
    assert rep.converged and rep.stages == 3 and columns == [1, 2, 3]
    assert record["first_nonpositive_column"] == 4
    assert record["collapsed_stage"] is None
    assert kam.initial_state(f, alpha).radius(4) == pytest.approx(-0.149,
                                                                  abs=1e-3)
    # the README run's schedule collapsed at stage 3 with three 0.05
    # columns: none of them is non-positive
    f, alpha = readme_map(32)
    rep, record, columns = _schedule_record(f, alpha, 32)
    assert rep.converged and columns == [1, 2, 2]
    assert record["first_nonpositive_column"] is None
    assert record["collapsed_stage"] == 3 and record["inf_delta"] == 0.05


def test_truncation_ladder_follows_the_perturbation():
    # the ladder enters at a quarter of the perturbation's n_max and caps
    # at it; the run has no n_max of its own
    state = kam.initial_state(fr.FourierMap.zeros(2, 12), ALPHA)
    assert [state.truncation(k) for k in range(4)] == [3, 6, 12, 12]
    state = kam.initial_state(fr.FourierMap.zeros(2, 4), ALPHA)
    assert [state.truncation(k) for k in range(3)] == [2, 4, 4]


def test_kam_params_fields():
    assert [f.name for f in dataclasses.fields(kam.KamParams)] == \
        ["max_stages", "target_defect"]
