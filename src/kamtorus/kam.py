"""Cohomological solver and the iterative linearization loop.

A stage of the loop removes the truncated part of the perturbation by
conjugating with H = id + h, where h solves the cohomological equation

    h o R_alpha - h = T_N (Delta f) - mean(Delta f)

diagonally in Fourier modes: h_hat(l) = df_hat(l) / (e^(2 pi i alpha.l) - 1).
The conjugated perturbation is assembled pointwise, in offsets from
x + alpha at the grid points x: with w = h(x) + Delta f(x + h(x)), the
fixed-point sweep solves delta + h(x + alpha + delta) = w, and its last
iterate delta_K = w - h(x + alpha + delta_(K-1)) is
H^(-1)(x + alpha + w) - x - alpha, the new perturbation at x; no inversion
map is built.  Every value of a map at a perturbed grid point is a Taylor
sum from the grid (`fourier.GridTaylor`): Delta f at offset h(x), and h at
the offsets from x + alpha, from one set of syntheses of the translated h
that the sweep and the stage identity share.  The sweep starts at
w - h(x + alpha), the order-0 values of those syntheses: the preimage
offset is Delta f_k(x), so the start is off by
h(x + alpha + Delta f_k(x)) - h(x + alpha), at most Lip(h) |Delta f_k|, a
product of two perturbation-sized factors.  Every stage is gated: the
solved band must meet the cohomological equation, and the new map
f_k = R_alpha + Delta f_k must satisfy the stage identity
H o f_k = f_(k-1) o H at the grid points, each within a derived rounding
and truncation bound; a breach raises StageDefect carrying the ledger.
The dense trigonometric sum stays off the stage and serves the direct
check of the finished run against the input map.

The constant term mean(Delta f) is never removed by force: the equation
drops it from the right side and the iteration tracks it, relying on the
rotation-vector hypothesis to shrink it (manufactured inputs guarantee that
hypothesis by construction).  Divergence is a first-class outcome: a stage
that grows the perturbation raises StepDiverged carrying the ledger.

Stage truncations follow the dyadic ladder 2^k, entering at N_max/4 (at
least 2) and capping at N_max, the perturbation's n_max; each stage solves
the equation once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ContractionFailure, DomainExhausted, ResonanceDetected,
                     StageDefect, StepDiverged)
from .fourier import (
    UNIT_ROUNDOFF,
    FourierMap,
    GridTaylor,
    SlicedDomain,
    _fft_rho,
    _grid_size,
    _lipschitz,
    _phase,
    _preimages,
    _reexpand,
    _sample_points,
    _sup_norms,
    compose_shift,
    invert_near_identity,
    norm_xi,
    translate,
    truncate_split,
)
from .schedule import DeltaSchedule, build_schedule, epsilon_ledger


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
    sup = _sup_norms(df.d, df.n_max)
    divisor = _phase(df.d, df.n_max, alpha) - 1.0
    solve_mask = (sup > 0) & (sup <= N)
    bad = solve_mask & (np.abs(divisor) < 1e-13)
    if bad.any():
        loc = np.argwhere(bad)[0]
        l = tuple(int(i) - df.n_max for i in loc)
        raise ResonanceDetected(
            f"vanishing divisor at mode {l}", lattice_vector=l)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(solve_mask, df.coeffs / divisor, 0)
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

# run_linearize refuses inputs whose l1 norm exceeds this
SMALLNESS_THRESHOLD = 1e-2

#: The spec of a run's schedule, the keywords of `schedule.build_schedule`
#: (alpha taken as doubles), when `initial_state` is given none.
DEFAULT_SCHEDULE = {"weights": "dyadic", "gothic_d": 0.05, "flat_stages": 2,
                    "grid_count": 8, "stages": 6, "variant": "full_range"}


@dataclass(frozen=True)
class KamParams:
    max_stages: int = 10
    target_defect: float = 1e-9


@dataclass(frozen=True)
class StepReport:
    """One KAM stage.  Its views are projections by field list: the
    `kam_stages.csv` and ledger row by `CSV_COLUMNS`, the summary entry by
    `STAGE_DIAGNOSTICS`."""
    stage: int
    trunc: int                             # the truncation the stage solved at
    norm_head: float
    norm_tail: float
    residual: float
    const_term: float
    defect: float                          # norm_head + norm_tail
    radii_min: float
    schedule_column: int                   # the column of the next domain
    assembly_mismatch: float
    identity_bound: float
    spill: float
    h_norm: float
    inversion_sweeps: int
    inversion_residual: float
    taylor_order_df: int
    taylor_radius_df: float | None         # None for a constant map
    taylor_order_h: int
    taylor_radius_h: float | None

    def csv_row(self):
        """The `CSV_COLUMNS` of the stage, each float as its repr."""
        return tuple(v if isinstance(v, int) else repr(v)
                     for v in (getattr(self, k) for k in CSV_COLUMNS))


CSV_COLUMNS = ("stage", "trunc", "norm_head", "norm_tail", "residual",
               "const_term", "defect", "radii_min")

#: The `StepReport` fields that `kam_summary.json` records per stage.
STAGE_DIAGNOSTICS = ("stage", "assembly_mismatch", "identity_bound", "spill",
                     "h_norm", "inversion_sweeps", "inversion_residual",
                     "taylor_order_df", "taylor_radius_df", "taylor_order_h",
                     "taylor_radius_h", "schedule_column")


@dataclass(frozen=True)
class KamState:
    stage: int
    alpha: tuple
    delta_f: FourierMap
    conjugacy: tuple                       # stage maps h_k, outermost first
    schedule: DeltaSchedule
    spec: dict                             # the keywords that built `schedule`
    params: KamParams
    ledger: object
    reports: tuple = ()

    def truncation(self, stage: int) -> int:
        """The truncation `stage` solves at: the dyadic ladder from a
        quarter of the perturbation's n_max (at least 2), capped at it."""
        n_max = self.delta_f.n_max
        return min(max(n_max // 4, 2) * 2 ** stage, n_max)

    def column(self, stage: int) -> int:
        """The schedule column the domain of `stage` reads: the stage
        index, or the last column past it."""
        return min(stage, self.schedule.stages() - 1)

    def radius(self, col: int) -> float:
        """The least radius of schedule column `col`."""
        return min(float(v) for v in self.schedule.values[col])

    def rows(self) -> list:
        """The `kam_stages.csv` rows of the finished stages."""
        return [r.csv_row() for r in self.reports]

    def domain(self, stage: int) -> SlicedDomain:
        col = self.column(stage)
        radius = self.radius(col)
        if not radius > 0:
            raise DomainExhausted(
                f"stage {self.stage}: schedule column {col} has radius "
                f"{radius:.3g} <= 0",
                stage=self.stage, ledger=self.rows())
        return SlicedDomain.from_schedule_column(self.schedule, col)


def initial_state(delta_f: FourierMap, alpha, params: KamParams | None = None,
                  spec: dict = DEFAULT_SCHEDULE) -> KamState:
    """Stage 0 of a run on the schedule `build_schedule`(alpha, **spec)."""
    params = params or KamParams()
    alpha = tuple(float(a) for a in alpha)
    schedule = build_schedule(alpha, **spec)
    eps0 = delta_f.l1_norm()
    ledger = epsilon_ledger(eps0, schedule.weights, delta_f.d,
                            min(params.max_stages, len(schedule.weights.c) - 2))
    return KamState(stage=0, alpha=alpha,
                    delta_f=delta_f, conjugacy=(), schedule=schedule,
                    spec=dict(spec), params=params, ledger=ledger)


# ---------------------------------------------------------------------------
# the step


def kam_step(state: KamState) -> KamState:
    """One conjugation stage: one solve of the cohomological equation.

    Builds h at the stage truncation and H = id + h, assembles the new
    perturbation, advances the domain column, and raises StepDiverged if the
    perturbation grew in the new stage norm.

    The stage is gated twice and a breach raises StageDefect (stage number,
    the ledger of the finished stages, the measured value and its bound).
    The solved band must satisfy the cohomological equation:
    `cohomological_residual` may not exceed `_residual_bound`.  The
    conjugation must satisfy the stage identity H o f_k = f_(k-1) o H at
    the grid points (`_conjugate`), within `_identity_bound`; both are
    recorded with the other `STAGE_DIAGNOSTICS` of `_conjugate`.  Both
    bounds are derived rounding and truncation budgets, not fitted
    tolerances.
    """
    params = state.params
    n = state.stage
    trunc = state.truncation(n)
    domain_next = state.domain(n + 1)
    df = state.delta_f
    alpha = state.alpha
    old_total = sum(_stage_norms(df, domain_next, trunc))

    def gate(name, value, bound, terms):
        if not value <= bound:
            raise StageDefect(
                f"stage {n}: {name} {value:.3g} exceeds its bound {bound:.3g}",
                stage=n, ledger=state.rows(),
                terms=dict(terms, check=name, value=value, bound=bound))

    h = solve_cohomological(df, alpha, trunc)
    residual = cohomological_residual(h, df, alpha, trunc)
    gate("cohomological residual", residual, _residual_bound(df, h), {})
    df, diagnostics, terms = _conjugate(df, h, alpha)
    gate("conjugacy identity", diagnostics["assembly_mismatch"],
         diagnostics["identity_bound"], dict(terms, **diagnostics))

    norm_head, norm_tail = _stage_norms(df, domain_next, trunc)
    report = StepReport(
        stage=n, trunc=trunc, norm_head=norm_head, norm_tail=norm_tail,
        residual=residual, const_term=float(np.abs(df.mean()).max()),
        defect=norm_head + norm_tail, radii_min=domain_next.min_radius(),
        schedule_column=state.column(n + 1), h_norm=h.l1_norm(),
        **diagnostics)
    new_state = replace(
        state,
        stage=n + 1,
        delta_f=df,
        conjugacy=state.conjugacy + (h,),
        reports=state.reports + (report,),
    )
    if report.defect > old_total and report.defect > params.target_defect:
        raise StepDiverged(
            f"stage {n}: perturbation grew from {old_total:.3g} to "
            f"{report.defect:.3g}", stage=n, ledger=new_state.rows())
    return new_state


def _stage_norms(df: FourierMap, domain: SlicedDomain, trunc: int):
    head, tail = truncate_split(df, trunc)
    return norm_xi(head, domain), norm_xi(tail, domain)


def _conjugate(df: FourierMap, h: FourierMap, alpha):
    """New perturbation of H^(-1) o (R_alpha + df) o H, H = id + h, and the
    stage identity that checks it; returns (map, diagnostics, terms).

    The stage works in offsets from x + alpha at the (4 n_max)^d grid
    points x, so no value carries the rounding of a coordinate of size 1.
    Every map value is a `GridTaylor` sum from the grid: df(x + h(x)) with
    offset h(x), and h(x + alpha + delta) from the syntheses of
    `translate`(h, alpha), which the sweep and the identity share.
    H^(-1) is needed only at the points v = x + alpha + w,
    w = h(x) + df(x + h(x)): `_preimages` solves delta + h(x + alpha +
    delta) = w for the offset delta, and its last iterate
    delta_K = w - h(x + alpha + delta_(K-1)) is the new perturbation
    df_k(x) = H^(-1)(v) - x - alpha at the grid, re-expanded by FFT.

    The sweep starts at delta_0 = w - h(x + alpha), the order-0 values of
    the translated h: the exact preimage offset is delta* = df_k(x), so
    delta_0 - delta* = h(x + alpha + delta*) - h(x + alpha) is at most
    L |delta*| (L the Lipschitz constant of h), second order, where the
    cold start w is off by h(x + alpha + delta*), first order.  The README
    run's stages sweep (4, 1, 1) times.  Every iterate then stays within
    |delta_0| / (1 - L) of zero, and so does delta*; the identity reads
    df_k(x), which is delta_K up to the re-expansion.  The Taylor radius
    of h is taken as twice that, 2 sup |delta_0| / (1 - L), before it is
    widened to the largest radius its order covers: the factor leaves room
    for the re-expansion's noise, which is not known before the sweep and
    is all there is at a stage whose perturbation is below the rounding of
    its start.  An offset beyond the radius raises OffsetBeyondRadius.

    The check evaluates both sides of H o f_k = f_(k-1) o H at x, less
    x + alpha:

        lhs = df_k(x) + h(x + alpha + df_k(x)),   rhs = w.

    df_k(x) comes from the re-expanded output, so the check sees the
    sweep, the truncation and the re-expansion.  It does not see the
    solved band h o R_alpha - h, which neither side uses, nor a wrong
    `translate`, which the sweep and the check share: the cohomological
    residual checks both.
    The diagnostics are `StepReport` fields: assembly_mismatch is
    sup |lhs - rhs|, identity_bound its `_identity_bound`, whose other
    inputs are the terms; inversion_sweeps and inversion_residual count
    and measure the sweep, and taylor_* give both Taylor routes' orders
    and radii (radius None for a constant map).
    """
    m = _grid_size(df.n_max)
    h_at = h.grid_values(m).T                          # h(x)
    shift = GridTaylor(df, m).fix_radius(float(np.abs(h_at).max()))
    w = h_at + shift(h_at).T                           # h(x) + df(x + h(x))
    diagnostics = dict(taylor_order_df=shift.order,
                       taylor_radius_df=_finite(shift.radius))
    del h_at, shift

    values = GridTaylor(translate(h, alpha), m)        # h(x + alpha + delta)
    start = w - values.grid.T
    lip = _lipschitz(values.g)
    if not lip < 1:
        raise ContractionFailure(
            f"the sweep's Lipschitz constant {lip:.3g} is not below 1")
    values.fix_radius(2 * float(np.abs(start).max()) / (1 - lip))
    _, h_last, r_inv, sweeps = _preimages(h, values, w, start)
    assembled = w - h_last                             # delta_K = df_k(x)
    del start, h_last

    out, spill = _reexpand(assembled, df.d, df.n_max)
    assembled_sup = float(np.abs(assembled).max())
    del assembled

    df_k = out.grid_values(m).T
    lhs = df_k + values(df_k).T
    bound, terms = _identity_bound(
        lhs, w, h, df, spill=spill, r_inv=r_inv, assembled_sup=assembled_sup,
        m=m, values=values, lip=lip)
    diagnostics.update(
        assembly_mismatch=float(np.abs(lhs - w).max()), identity_bound=bound,
        spill=spill, inversion_sweeps=sweeps, inversion_residual=r_inv,
        taylor_order_h=values.order, taylor_radius_h=_finite(values.radius))
    return out, diagnostics, terms


def _residual_bound(df: FourierMap, h: FourierMap) -> float:
    """Rounding bound of `cohomological_residual` for h from
    `solve_cohomological`: u (32 |df| + 3 |h|), |.| the l1 norms.

    Per solved mode l, h_l = fl(df_l / D) with D = fl(E - 1), and the
    residual forms fl(fl(h_l E) - h_l) - df_l with the same double E:
    `translate` and the solver both take the phase from `fourier._phase`,
    so the error of E itself drops out and no small divisor amplifies
    anything.  First order in u: D is off by u |D| (one real subtraction),
    which moves h_l (E - 1) by u |df_l|; the quotient is off by at most
    30 u |h_l| (Smith's division as numpy does it: at most 7 roundings per
    part, each at most 2 sqrt(2) u |h_l|), which moves h_l (E - 1) by
    30 u |df_l|; the product h_l E is off by sqrt(2) gamma_2 |h_l| < 3 u
    |h_l|; the difference h_l E - h_l by u |df_l|.  So each mode's residual
    is at most u (32 |df_l| + 3 |h_l|); the last subtraction and the l1 sum
    scale that by 1 + O(u) only.
    """
    return UNIT_ROUNDOFF * (32 * df.l1_norm() + 3 * h.l1_norm())


def _identity_bound(lhs, rhs, h: FourierMap, df: FourierMap, spill: float,
                    r_inv: float, assembled_sup: float, m: int,
                    values: GridTaylor, lip: float):
    """Bound B of sup |lhs - rhs| in `_conjugate`; returns (B, terms).

    Notation: u = 2^-53; N = m^d grid points; |.| the l1 coefficient norm;
    g the translated h of the Taylor sums `values` (order K, radius r,
    tail bound T); L = `fourier._lipschitz`(g), the sweep's `lip`; M the
    largest |offset| of lhs and rhs; P = |df| + |h|, which bounds every
    perturbation-sized value; S the sup of the assembled values;
    rho = `fourier._fft_rho`(N).  Everything below is first order in u and
    in the perturbation size.

    Write H(delta) for the computed Taylor sum of g at offset delta.  It is
    g(x + delta) up to the tail (at most T), the Horner rounding and the
    synthesis errors of the derivatives; the order-0 synthesis error e_0 is
    the same in every sum at x.  The computed df(x + h(x)) is shared by the
    assembly and rhs = w, so its error cancels; let W be the exact sum
    h(x) + df(x + h(x)) of the computed values, |W - w| <= u M.  The sweep
    stops at an offset delta' with measured residual r_inv, so
    |w - H(delta') - delta'| <= r_inv + 2 u M.  The exact assembly gives
    Y = W - H(delta'), and |Y - delta'| <= r_inv + 3 u M.  The identity
    reads df_k(x) = Y + D, and lhs is df_k(x) + H(df_k(x)) up to one
    rounding, so with lhs - rhs = (W - w) + D + H(df_k(x)) - H(delta'):

        |lhs - rhs| <= D + L |df_k(x) - delta'| + 2 T + 2 horner
                       + |df_k(x) - delta'| synthesis + 2 u M,

    e_0 cancelling, and |df_k(x) - delta'| <= r_inv + 3 u M + D =: move.
    horner and synthesis are `values.rounding`(N).  D collects the
    assembly's roundings on partial sums at most P (3 u P); the output's
    re-expansion, which drops the band counted in `spill` (the line
    |l|_sup = m/2 = 2n is taken to be below the rounding); and its forward
    and inverse FFT (an error of l2 norm over the grid, hence of sup, at
    most 2 (rho + 2u) sqrt(N) S):

        D = spill + 3 u P + 2 (rho + 2u) sqrt(N) S
        B = D + (L + synthesis) move + 2 T + 2 horner + 2 u M
    """
    u = UNIT_ROUNDOFF
    points = m ** h.d
    M = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    P = df.l1_norm() + h.l1_norm()
    rho = _fft_rho(points)
    horner, synthesis = values.rounding(points)
    delta = (spill + 3 * u * P
             + 2 * (rho + 2 * u) * math.sqrt(points) * assembled_sup)
    move = r_inv + 3 * u * M + delta
    bound = (delta + (lip + synthesis) * move + 2 * values.tail + 2 * horner
             + 2 * u * M)
    return bound, {"lipschitz_h": lip, "offset_max": M, "perturbation_l1": P,
                   "assembled_sup": assembled_sup}


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

    def to_jsonable(self, state: KamState) -> dict:
        """The summary, with the schedule the run's final `state` read:
        `schedule` holds its spec (`KamState.spec`), the headline and the
        first column whose least radius is <= 0 (or None), and each stage's
        diagnostics the `STAGE_DIAGNOSTICS` of its report."""
        out = {
            "converged": self.converged,
            "stages": self.stages,
            "defect": self.defect,
            "direct_defect": self.direct_defect,
            "conjugacy_norm": self.h_total_norm,
            "sqrt_epsilon_margin": self.sqrt_margin,
            "initial_norm": self.initial_norm,
            "notes": self.notes,
            "stage_diagnostics": [{k: getattr(r, k) for k in STAGE_DIAGNOSTICS}
                                  for r in self.step_reports],
        }
        head = state.schedule.headline()
        out["schedule"] = dict(spec=state.spec, **{k: head[k] for k in (
            "stages", "collapsed_stage", "inf_delta",
            "first_unreliable_stage")})
        out["schedule"]["first_nonpositive_column"] = next(
            (col for col in range(state.schedule.stages())
             if not state.radius(col) > 0), None)
        return out


def _finite(x: float):
    """x for JSON, None for the infinite radius of a constant map."""
    return x if math.isfinite(x) else None


def run_linearize(delta_f: FourierMap, alpha, params: KamParams | None = None,
                  spec: dict = DEFAULT_SCHEDULE):
    """Iterate stages on the schedule `build_schedule`(alpha, **spec)
    until the perturbation defect undercuts the target.

    Returns (conjugacy perturbation P with H = id + P, RunReport, KamState).
    Refuses inputs above the smallness threshold with a precise diagnostic;
    raises StepDiverged (ledger attached) when a stage grows the perturbation.
    """
    initial = delta_f.l1_norm()
    if initial > SMALLNESS_THRESHOLD:
        raise ValueError(
            f"perturbation norm {initial:.3g} exceeds the smallness "
            f"threshold {SMALLNESS_THRESHOLD:.3g}; the iteration "
            f"guards (cohomological divisors, inversion contraction) are "
            f"calibrated below that size")
    state = initial_state(delta_f, alpha, params, spec)
    params = state.params
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
    hx = pts + conjugacy.grid_values(m).T             # H(x)
    lhs_arg = pts + alpha_row + final_delta.grid_values(m).T
    lhs = lhs_arg + conjugacy.evaluate(lhs_arg).T
    rhs = hx + alpha_row + delta_f.evaluate(hx).T
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
    g_star = invert_near_identity(h_star)
    u = g_star - h_star
    shift = u + FourierMap.constant(u.d, u.n_max, np.asarray(alpha, dtype=float),
                                    components=u.components)
    return u + compose_shift(h_star, shift)
