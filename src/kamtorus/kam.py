"""Cohomological solver and the iterative linearization loop.

A stage of the loop removes the truncated part of the perturbation by
conjugating with H = id + h, where h solves the cohomological equation

    h o R_alpha - h = T_N (Delta f) - mean(Delta f)

diagonally in Fourier modes: h_hat(l) = df_hat(l) / (e^(2 pi i alpha.l) - 1).
The conjugated perturbation is assembled from its four structural pieces
(the constant term, the truncation tail, the shift difference of Delta f,
the shift difference of h, and the inversion correction g of H^(-1)); a
direct pointwise composition H^(-1) o f o H cross-checks the assembly at
every stage.

The constant term mean(Delta f) is never removed by force: the equation
drops it from the right side and the iteration tracks it, relying on the
rotation-vector hypothesis to shrink it (manufactured inputs guarantee that
hypothesis by construction).  Divergence is a first-class outcome: a stage
that grows the perturbation raises StepDiverged carrying the ledger.

Stage truncations follow the dyadic ladder 2^k, entering at a configurable
first truncation (default: N_max/4) and capping at N_max; each stage may
re-solve at the same truncation a configurable number of times before the
truncation doubles, which crushes the truncated band without burning
analyticity radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ResonanceDetected, StepDiverged
from .fourier import (
    FourierMap,
    SlicedDomain,
    _grid_size,
    _reexpand,
    _sample_points,
    invert_near_identity,
    norm_xi,
    pad_truncation,
    translate,
    truncate_split,
)
from .schedule import (
    DeltaSchedule,
    DirectionGrid,
    WeightSequence,
    delta_schedule,
    epsilon_ledger,
)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# cohomological equation


def solve_cohomological(df: FourierMap, alpha, N: int) -> FourierMap:
    """Zero-mean h with h o R_alpha - h = T_N df - mean(df), solved per mode.

    Raises ResonanceDetected when a divisor e^(2 pi i alpha.l) - 1 vanishes
    at working (double) precision over the solved ball.
    """
    alpha = np.asarray([float(a) for a in alpha], dtype=np.float64)
    if alpha.shape[0] != df.d:
        raise ValueError("alpha dimension mismatch")
    if N > df.n_max:
        raise ValueError("truncation exceeds the stored coefficients")
    idx = np.arange(-df.n_max, df.n_max + 1)
    if df.d == 1:
        dots = idx * alpha[0]
        sup = np.abs(idx)
    else:
        dots = idx[:, None] * alpha[0] + idx[None, :] * alpha[1]
        sup = np.maximum(np.abs(idx)[:, None], np.abs(idx)[None, :])
    divisor = np.exp(2j * np.pi * dots) - 1.0
    solve_mask = (sup > 0) & (sup <= N)
    bad = solve_mask & (np.abs(divisor) < 1e-13)
    if bad.any():
        loc = np.argwhere(bad)[0]
        l = tuple(int(i) - df.n_max for i in loc)
        raise ResonanceDetected(
            f"vanishing divisor at mode {l}", lattice_vector=l)
    h = np.zeros_like(df.coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(solve_mask, df.coeffs / divisor, 0)
    h[:] = np.where(solve_mask, ratio, 0)
    return FourierMap(df.d, df.n_max, h)


def cohomological_residual(h: FourierMap, df: FourierMap, alpha, N: int) -> float:
    """l1 coefficient norm of h o R_alpha - h - (T_N df - mean df)."""
    shifted = translate(h, [float(a) for a in alpha])
    head, _ = truncate_split(df, N)
    rhs = head - FourierMap.constant(df.d, df.n_max, df.mean(),
                                     components=df.components)
    return (shifted - h - rhs).l1_norm()


# ---------------------------------------------------------------------------
# configuration and state


@dataclass(frozen=True)
class KamParams:
    n_max: int = 32
    max_stages: int = 10
    first_truncation: int | None = None     # default n_max // 4
    repeats: int = 1
    target_defect: float = 1e-9
    smallness_threshold: float = 1e-2
    delta0: float = 0.05
    grid_count: int = 8
    schedule_stages: int = 6
    flat_stages: int = 2

    def truncation(self, stage: int) -> int:
        first = self.first_truncation or max(self.n_max // 4, 2)
        return min(first * 2 ** stage, self.n_max)


@dataclass(frozen=True)
class StepReport:
    stage: int
    truncation: int
    norm_head_before: float
    norm_tail_before: float
    norm_head_after: float
    norm_tail_after: float
    residual: float
    const_term: float
    assembly_mismatch: float
    spill: float
    radii_min: float
    h_norm: float

    def csv_row(self):
        return (self.stage, self.truncation, repr(self.norm_head_after),
                repr(self.norm_tail_after), repr(self.residual),
                repr(self.const_term), repr(self.norm_head_after
                                            + self.norm_tail_after),
                repr(self.radii_min))


CSV_COLUMNS = ("stage", "trunc", "norm_head", "norm_tail", "residual",
               "const_term", "defect", "radii_min")


@dataclass(frozen=True)
class KamState:
    stage: int
    alpha: tuple
    delta_f: FourierMap
    conjugacy: tuple                       # stage maps h_k, outermost first
    schedule: DeltaSchedule
    params: KamParams
    reports: tuple = ()
    ledger: object | None = None

    def domain(self, stage: int | None = None) -> SlicedDomain:
        n = self.stage if stage is None else stage
        col = min(n, self.schedule.stages() - 1)
        return SlicedDomain.from_schedule_column(self.schedule, col)


def _default_schedule(alpha, params: KamParams) -> DeltaSchedule:
    """Dyadic-recipe schedule for the run's alpha (float divisor scans)."""
    alpha_f = tuple(float(a) for a in alpha)
    d = len(alpha_f)
    n_weights = params.schedule_stages + 2
    c = []
    for n in range(n_weights):
        omega = _float_omega(alpha_f, 1 << n)
        c.append(TWO_PI * math.log(1.0 / omega) / (1 << n))
    weights = WeightSequence(c=tuple(c), N=params.flat_stages,
                             gothic_d=params.delta0)
    grid = DirectionGrid.pair() if d == 1 else DirectionGrid.circle(params.grid_count)
    return delta_schedule(alpha_f, grid, weights, params.schedule_stages)


def _float_omega(alpha, N: int) -> float:
    """Vectorized min ||alpha.l|| over 0 < |l|_sup <= N (double precision)."""
    d = len(alpha)
    rng = np.arange(-N, N + 1)
    if d == 1:
        dots = rng * alpha[0]
        sup = np.abs(rng)
    else:
        dots = rng[:, None] * alpha[0] + rng[None, :] * alpha[1]
        sup = np.maximum(np.abs(rng)[:, None], np.abs(rng)[None, :])
    frac = dots - np.round(dots)
    dist = np.abs(frac)
    dist = np.where(sup > 0, dist, np.inf)
    omega = float(dist.min())
    if omega < 1e-14:
        loc = np.argwhere(dist == dist.min())[0]
        l = tuple(int(i) - N for i in np.atleast_1d(loc))
        raise ResonanceDetected("resonant frequency vector inside the scan",
                                lattice_vector=l)
    return omega


def initial_state(delta_f: FourierMap, alpha, params: KamParams | None = None,
                  schedule: DeltaSchedule | None = None) -> KamState:
    params = params or KamParams(n_max=delta_f.n_max)
    if delta_f.n_max != params.n_max:
        delta_f = pad_truncation(delta_f, params.n_max)
    if schedule is None:
        schedule = _default_schedule(alpha, params)
    eps0 = delta_f.l1_norm()
    ledger = epsilon_ledger(eps0, schedule.weights, delta_f.d,
                            min(params.max_stages, len(schedule.weights.c) - 2))
    return KamState(stage=0, alpha=tuple(float(a) for a in alpha),
                    delta_f=delta_f, conjugacy=(), schedule=schedule,
                    params=params, ledger=ledger)


# ---------------------------------------------------------------------------
# the step


def kam_step(state: KamState) -> KamState:
    """One conjugation stage (with the configured number of repeats).

    Builds h at the stage truncation, H = id + h, computes the new
    perturbation both by the structural assembly and by direct pointwise
    composition (their mismatch is recorded and must stay at re-expansion
    level), advances the domain column, and raises StepDiverged if the
    perturbation grew in the new stage norm.
    """
    params = state.params
    n = state.stage
    trunc = params.truncation(n)
    domain_next = state.domain(n + 1)
    df = state.delta_f
    alpha = state.alpha
    new_maps = []
    mismatch = 0.0
    spill_total = 0.0
    residual = 0.0

    norm_head_before, norm_tail_before = _stage_norms(df, domain_next, trunc)

    for _ in range(max(1, params.repeats)):
        h = solve_cohomological(df, alpha, trunc)
        residual = max(residual,
                       cohomological_residual(h, df, alpha, trunc))
        df, info = _conjugate(df, h, alpha)
        mismatch = max(mismatch, info["mismatch"])
        spill_total += info["spill"]
        new_maps.append(h)

    norm_head_after, norm_tail_after = _stage_norms(df, domain_next, trunc)
    report = StepReport(
        stage=n,
        truncation=trunc,
        norm_head_before=norm_head_before,
        norm_tail_before=norm_tail_before,
        norm_head_after=norm_head_after,
        norm_tail_after=norm_tail_after,
        residual=residual,
        const_term=float(np.abs(df.mean()).max()),
        assembly_mismatch=mismatch,
        spill=spill_total,
        radii_min=domain_next.min_radius(),
        h_norm=max(m.l1_norm() for m in new_maps),
    )
    new_state = replace(
        state,
        stage=n + 1,
        delta_f=df,
        conjugacy=state.conjugacy + tuple(new_maps),
        reports=state.reports + (report,),
    )
    old_total = norm_head_before + norm_tail_before
    new_total = norm_head_after + norm_tail_after
    if new_total > old_total and new_total > params.target_defect:
        raise StepDiverged(
            f"stage {n}: perturbation grew from {old_total:.3g} to {new_total:.3g}",
            ledger=[r.csv_row() for r in new_state.reports])
    return new_state


def _stage_norms(df: FourierMap, domain: SlicedDomain, trunc: int):
    head, tail = truncate_split(df, trunc)
    return norm_xi(head, domain).value, norm_xi(tail, domain).value


def _conjugate(df: FourierMap, h: FourierMap, alpha):
    """New perturbation of H^(-1) o (R_alpha + df) o H, H = id + h.

    Assembled pointwise from the structural pieces and cross-checked against
    the direct composition; returns (map, info)."""
    g = invert_near_identity(h)
    m = _grid_size(df.n_max)
    pts = _sample_points(df.d, m)
    alpha_row = np.asarray(alpha, dtype=np.float64)[None, :]

    h_at = h.grid_values(m).real.T
    df_shift = df.evaluate(pts + h_at, real=True).T    # df(x + h(x))
    df_at = df.grid_values(m).real.T
    inner = pts + alpha_row + h_at + df_shift          # argument of h and g
    h_inner = h.evaluate(inner, real=True).T
    h_rot = translate(h, alpha_row[0]).grid_values(m).real.T
    g_inner = g.evaluate(inner, real=True).T

    mean = df.mean().real[None, :]
    # tail values R_N df = df - (T_N df - mean) - mean, with the solved band
    # T_N df - mean = h o R_alpha - h taken from the cohomological identity,
    # so the assembly consumes exactly what the solver removed
    tail_vals = df_at - (h_rot - h_at) - mean
    assembled = (mean + tail_vals + (df_shift - df_at)
                 + (h_rot - h_inner) + g_inner)

    # direct composition: H^(-1)(f(H(x))) - x - alpha
    w2 = pts + h_at + alpha_row + df_shift
    direct = (w2 - h.evaluate(w2, real=True).T + g.evaluate(w2, real=True).T
              - pts - alpha_row)
    mismatch = float(np.abs(assembled - direct).max())

    out, spill = _reexpand(np.ascontiguousarray(assembled.T, dtype=np.complex128),
                           df.d, m, df.n_max, df.components)
    info = {"mismatch": mismatch, "spill": spill + g.info.get("spill", 0.0),
            "g_norm": g.l1_norm()}
    return out, info


# ---------------------------------------------------------------------------
# the loop


@dataclass
class RunReport:
    converged: bool
    stages: int
    defect: float
    direct_defect: float
    h_total_norm: float
    sqrt_margin: float
    initial_norm: float
    step_reports: tuple
    notes: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "converged": self.converged,
            "stages": self.stages,
            "defect": self.defect,
            "direct_defect": self.direct_defect,
            "conjugacy_norm": self.h_total_norm,
            "sqrt_epsilon_margin": self.sqrt_margin,
            "initial_norm": self.initial_norm,
            "notes": self.notes,
            "csv_columns": list(CSV_COLUMNS),
            "stage_rows": [list(r.csv_row()) for r in self.step_reports],
            "stage_diagnostics": [
                {"stage": r.stage, "assembly_mismatch": r.assembly_mismatch,
                 "spill": r.spill, "h_norm": r.h_norm}
                for r in self.step_reports],
        }


def run_linearize(delta_f: FourierMap, alpha, params: KamParams | None = None,
                  schedule: DeltaSchedule | None = None):
    """Iterate stages until the perturbation defect undercuts the target.

    Returns (conjugacy perturbation P with H = id + P, RunReport).  Refuses
    inputs above the smallness threshold with a precise diagnostic; raises
    StepDiverged (ledger attached) when a stage grows the perturbation.
    """
    params = params or KamParams(n_max=delta_f.n_max)
    initial = delta_f.l1_norm()
    if initial > params.smallness_threshold:
        raise ValueError(
            f"perturbation norm {initial:.3g} exceeds the smallness "
            f"threshold {params.smallness_threshold:.3g}; the iteration "
            f"guards (cohomological divisors, inversion contraction) are "
            f"calibrated below that size")
    state = initial_state(delta_f, alpha, params, schedule)
    for _ in range(params.max_stages):
        state = kam_step(state)
        if state.delta_f.l1_norm() < params.target_defect:
            break
    conjugacy = compose_conjugacy(state.conjugacy)
    direct = direct_conjugacy_defect(delta_f, conjugacy, state.delta_f, state.alpha)
    defect = state.delta_f.l1_norm()
    h_norm = conjugacy.l1_norm()
    sqrt_margin = math.sqrt(initial) / h_norm if h_norm > 0 else math.inf
    report = RunReport(
        converged=defect < params.target_defect,
        stages=state.stage,
        defect=defect,
        direct_defect=direct,
        h_total_norm=h_norm,
        sqrt_margin=sqrt_margin,
        initial_norm=initial,
        step_reports=state.reports,
        notes={"sqrt_bound_holds": h_norm <= math.sqrt(initial)},
    )
    return conjugacy, report, state


def compose_conjugacy(stage_maps) -> FourierMap:
    """Perturbation P of the accumulated conjugacy H = H_1 o H_2 o ... o H_m
    (outermost first), composed pairwise from the innermost map."""
    if not stage_maps:
        raise ValueError("no stage maps to compose")
    from .fourier import compose_shift

    total = stage_maps[-1]
    for h in reversed(stage_maps[:-1]):
        total = total + compose_shift(h, total)
    return total


def direct_conjugacy_defect(delta_f: FourierMap, conjugacy: FourierMap,
                            final_delta: FourierMap, alpha) -> float:
    """sup over a sample grid of |H(x + alpha + df_n(x)) - f(H(x))|.

    The conjugacy identity H o f_n = f o H holds exactly when df_n is the
    stage-n perturbation; this evaluates both sides pointwise against the
    *original* f, tying the ledger to the input map without any inversions.
    """
    m = _grid_size(conjugacy.n_max)
    pts = _sample_points(conjugacy.d, m)
    alpha_row = np.asarray(alpha, dtype=np.float64)[None, :]
    hx = pts + conjugacy.grid_values(m).real.T        # H(x)
    lhs_arg = pts + alpha_row + final_delta.grid_values(m).real.T
    lhs = lhs_arg + conjugacy.evaluate(lhs_arg, real=True).T
    rhs = hx + alpha_row + delta_f.evaluate(hx, real=True).T
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# manufactured inputs and rotation vectors


def manufacture_test_map(h_star: FourierMap, alpha) -> FourierMap:
    """Perturbation of f = (id + h*) o R_alpha o (id + h*)^(-1).

    By construction f is analytically conjugate to the rotation and its
    rotation vector is exactly alpha, which discharges the mean-drift
    hypothesis of the loop.  Delta f(x) = u(x) + h*(x + alpha + u(x)) with
    id + u = (id + h*)^(-1).
    """
    from .fourier import compose_shift

    g_star = invert_near_identity(h_star)
    u = g_star - h_star
    shift = u + FourierMap.constant(u.d, u.n_max, np.asarray(alpha, dtype=float),
                                    components=u.components)
    moved = compose_shift(h_star, shift)
    out = u + moved
    out.info["spill"] = moved.info.get("spill", 0.0)
    return out


def rotation_vector_estimate(delta_f: FourierMap, alpha, x0, iterations: int):
    """Birkhoff average (f^m(x0) - x0)/m of the lift of f = R_alpha + df.

    Error decays like O(1/m) (ergodic average of the zero-mean part); the
    caller sees the raw estimate, m, and the crude 1/m error scale.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = np.asarray(x0, dtype=np.float64).reshape(1, delta_f.d)
    lift = x.copy()
    alpha_row = np.asarray(alpha, dtype=np.float64)[None, :]
    for _ in range(iterations):
        step = alpha_row + delta_f.evaluate(lift % 1.0, real=True).T
        lift = lift + step
    estimate = (lift - x)[0] / iterations
    return estimate, 1.0 / iterations
