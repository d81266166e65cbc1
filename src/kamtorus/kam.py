"""Cohomological solver and the iterative linearization loop.

A stage of the loop removes the truncated part of the perturbation by
conjugating with H = id + h, where h solves the cohomological equation

    h o R_alpha - h = T_N (Delta f) - mean(Delta f)

diagonally in Fourier modes: h_hat(l) = df_hat(l) / (e^(2 pi i alpha.l) - 1).
The conjugated perturbation is assembled pointwise from its four live
terms: with v = x + alpha + h(x) + Delta f(x + h(x)) and
H^(-1)(v) = v - h(v) + g(v) (g the inversion correction),
H^(-1)(v) - x - alpha = h(x) + Delta f(x + h(x)) - h(v) + g(v).  Every
stage is gated: the solved band must meet the cohomological equation, and
the new map f_k = R_alpha + Delta f_k must satisfy the stage identity
H o f_k = f_(k-1) o H at the grid points, each within a derived rounding
and truncation bound; a breach raises StageDefect carrying the ledger.

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

from .errors import ResonanceDetected, StageDefect, StepDiverged
from .fourier import (
    FourierMap,
    SlicedDomain,
    _grid_size,
    _reexpand,
    _sample_points,
    invert_near_identity,
    nonzero_radius,
    norm_xi,
    pad_truncation,
    translate,
    truncate_split,
)
from .schedule import (
    DeltaSchedule,
    DirectionGrid,
    delta_schedule,
    dyadic_weight_recipe,
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
    """Dyadic-recipe schedule for the run's alpha, taken as doubles."""
    alpha_f = tuple(float(a) for a in alpha)
    weights = dyadic_weight_recipe(alpha_f, params.schedule_stages,
                                   gothic_d=params.delta0,
                                   N=params.flat_stages)
    grid = (DirectionGrid.pair() if len(alpha_f) == 1
            else DirectionGrid.circle(params.grid_count))
    return delta_schedule(alpha_f, grid, weights, params.schedule_stages)


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

    Builds h at the stage truncation and H = id + h, assembles the new
    perturbation, advances the domain column, and raises StepDiverged if the
    perturbation grew in the new stage norm.

    Each repeat is gated twice and a breach raises StageDefect (stage
    number, the ledger of the finished stages, the measured value and its
    bound).  The solved band must satisfy the cohomological equation:
    `cohomological_residual` may not exceed `_residual_bound`.  The
    conjugation must satisfy the stage identity H o f_k = f_(k-1) o H at
    the grid points (`_conjugate`), within `_identity_bound`; the identity
    is recorded as `assembly_mismatch` (max over repeats).  Both bounds are
    derived rounding and truncation budgets, not fitted tolerances.
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

    def gate(name, value, bound, terms):
        if not value <= bound:
            raise StageDefect(
                f"stage {n}: {name} {value:.3g} exceeds its bound {bound:.3g}",
                stage=n, ledger=[r.csv_row() for r in state.reports],
                terms=dict(terms, check=name, value=value, bound=bound))

    for repeat in range(max(1, params.repeats)):
        h = solve_cohomological(df, alpha, trunc)
        res = cohomological_residual(h, df, alpha, trunc)
        gate("cohomological residual", res, _residual_bound(df, h),
             {"repeat": repeat})
        residual = max(residual, res)
        df, info = _conjugate(df, h, alpha)
        gate("conjugacy identity", info["mismatch"], info["bound"],
             dict(info["terms"], repeat=repeat))
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
    """New perturbation of H^(-1) o (R_alpha + df) o H, H = id + h, and the
    stage identity that checks it; returns (map, info).

    The map is assembled pointwise on the (4 n_max)^d grid from its four
    live terms, H^(-1)(v) - x - alpha = h(x) + df(x + h(x)) - h(v) + g(v)
    at v = x + alpha + h(x) + df(x + h(x)), and re-expanded by FFT.  The
    check evaluates both sides of H o f_k = f_(k-1) o H at the grid
    points x:

        lhs = y + h(y),  y = x + alpha + df_k(x)
        rhs = x + h(x) + alpha + df(x + h(x))

    df_k(x) comes from the re-expanded output, so the check sees the
    inversion correction g, the truncation and the re-expansion.  It does
    not see the solved band h o R_alpha - h, which neither side uses: the
    band is checked by the cohomological residual instead.
    info["mismatch"] is sup |lhs - rhs|, info["bound"] its
    `_identity_bound`, info["terms"] the bound's inputs.
    """
    g = invert_near_identity(h)
    m = _grid_size(df.n_max)
    pts = _sample_points(df.d, m)
    alpha_row = np.asarray(alpha, dtype=np.float64)[None, :]

    h_at = h.grid_values(m).real.T
    df_shift = df.evaluate(pts + h_at, real=True).T    # df(x + h(x))
    inner = pts + alpha_row + h_at + df_shift          # v = (R_alpha + df) o H
    # H^(-1)(v) - x - alpha with H^(-1)(v) = v - h(v) + g(v)
    assembled = (h_at + df_shift - h.evaluate(inner, real=True).T
                 + g.evaluate(inner, real=True).T)
    del inner

    out, spill = _reexpand(np.ascontiguousarray(assembled.T, dtype=np.complex128),
                           df.d, m, df.n_max, df.components)
    assembled_sup = float(np.abs(assembled).max())
    # the identity needs none of the assembly's arrays: release them before
    # its grid synthesis and evaluation, which would otherwise set the peak
    del assembled

    y = pts + alpha_row + out.grid_values(m).real.T
    lhs = y + h.evaluate(y, real=True).T
    rhs = pts + h_at + alpha_row + df_shift
    spill += g.info.get("spill", 0.0)
    bound, terms = _identity_bound(
        lhs, rhs, h, g, df, spill=spill,
        r_inv=g.info.get("residual", 0.0), assembled_sup=assembled_sup, m=m)
    info = {"mismatch": float(np.abs(lhs - rhs).max()), "bound": bound,
            "terms": terms, "spill": spill}
    return out, info


UNIT_ROUNDOFF = 2.0 ** -53


def _lipschitz(f: FourierMap) -> float:
    """2 pi max_j sum_l |l|_1 |f_hat_j(l)|: a Lipschitz constant of f in
    the sup norm, |f(y) - f(z)|_sup <= L |y - z|_sup."""
    idx = np.abs(np.arange(-f.n_max, f.n_max + 1))
    l1 = idx if f.d == 1 else idx[:, None] + idx[None, :]
    axes = tuple(range(1, f.d + 1))
    return TWO_PI * float((np.abs(f.coeffs) * l1).sum(axis=axes).max())


def _residual_bound(df: FourierMap, h: FourierMap) -> float:
    """Rounding bound of `cohomological_residual` for h from
    `solve_cohomological`: u (32 |df| + 3 |h|), |.| the l1 norms.

    Per solved mode l, h_l = fl(df_l / D) with D = fl(E - 1), and the
    residual forms fl(fl(h_l E) - h_l) - df_l with the same double E:
    `translate` and the solver compute the phase by the same expression, so
    the error of E itself drops out and no small divisor amplifies
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


def _identity_bound(lhs, rhs, h: FourierMap, g: FourierMap, df: FourierMap,
                    spill: float, r_inv: float, assembled_sup: float, m: int):
    """Bound B of sup |lhs - rhs| in `_conjugate`; returns (B, terms).

    Notation: u = 2^-53; G = H^(-1) exactly and g* = G - id + h; n = n_max,
    s the nonzero radius of h (at most the stage truncation), N = m^d grid
    points; |.| the l1 coefficient norm; L = `_lipschitz`(h), below 1
    because the inversion guard gives 2 pi n |h| < 1/2 and
    L <= 2 pi d s |h|; theta = 1/(1 - L); M the largest |coordinate| of
    lhs and rhs;
    P = |df| + |h| + |g|, which bounds every perturbation-sized value;
    S the sup of the assembled values; rho = k / (1 - k) with
    k = log2(N) (u + gamma_4 (sqrt 2 + u)), the normwise relative error of
    a computed FFT of N values (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm. 24.2, with twiddle factors correct to u);
    iota = (2n + 1)^(d/2): by Parseval and Cauchy-Schwarz, the stored-box
    interpolant of a grid field has sup over the torus at most iota times
    the field's root mean square.  Everything below is first order in u
    and in the perturbation size (partial sums of coordinates stay within
    O(P) of M).

    With v the computed `inner` point, the exact identity is H(G(v)) = v.
    The computed y is G(v) - e_v + delta, with e_v the rounding of v (3
    additions, <= 3 u M): the assembly h(x) + df(x + h(x)) - h(v) + g(v)
    equals v - h(v) + g(v) - x - alpha - e_v.  rhs is v with its additions
    reordered, so lhs - rhs = [H(y) - v + e_v] + [h~(y) - h(y)] + e_lhs -
    e_rhs and

        |lhs - rhs| <= (1 + L) |delta| + 3 L u M + E_h + u M + 3 u M,

    where E_h = u (1.5 (M + 1) L + (6 s + 10) |h|) bounds a dense
    evaluation of h, E_g the same for g with its radius n and
    L_g <= 2 pi d n |g|.  `FourierMap.evaluate(real=True)` computes
    X(x)^T A X(y) per component (A X(x) for d = 1), X the real basis
    (cos 0..s, sin 1..s) of an axis and A the `_real_form` of the
    coefficients:

    * phases: phase row m, a cumulative product, is off by at most
      m (3 pi M u + 3 u) (argument error 3 pi |x| u + 3 u, one complex
      product per row); the cos and sin rows are its exact real and
      imaginary parts, so the value is Re sum_l c_l e_l with perturbed
      phases, off by at most sum_l |c_l| |l|_1 (3 pi M + 3) u
      <= 1.5 (M + 1) L u.
    * the two folds: the first (F = c_l + conj c_-l) rounds each part
      once, at most u sum |F| <= u |h|; the second (P, Q = F_b +- F_-b)
      rounds each entry of A once, at most u S_A with
      S_A = sum_jk |A_jk| |X_j(x)| |X_k(y)|.
    * products and sums: the dgemm sums 2s + 1 real products per entry and
      the contraction 2s + 1 more, at most gamma_(4s + 2) S_A in any
      summation order (Higham, §3.1), so blocking does not matter.
    * S_A <= sqrt 2 |h|: the four entries of a pair (a, b >= 1),
      Re P, -Im Q, -Im P, -Re Q, carry the weights |cos_a cos_b|,
      |cos_a sin_b|, |sin_a cos_b|, |sin_a sin_b| of unit l2 norm, so by
      Cauchy-Schwarz they add at most (|P|^2 + |Q|^2)^(1/2)
      = (2 |F_b|^2 + 2 |F_-b|^2)^(1/2) <= sqrt 2 (|F_b| + |F_-b|); a
      column b = 0 adds at most |F_0|.

    The arithmetic is thus at most u |h| (1 + sqrt 2 (4s + 3)) <=
    u |h| (6 s + 10), writing 1.5 for sqrt 2.  delta collects:

    * spill: the output's re-expansion drops the band counted in its spill
      (the line |l|_sup = m/2 = 2n is taken to be below the rounding), and
      g* differs from g by its own spill.  Both are in `spill`.
    * the sweep: the computed preimage y_K of each target grid point has
      residual at most r_inv + 2 u M + E_h (r_inv is measured with rounding
      and a computed h), so |y_K - y*| <= theta (r_inv + 2 u M + E_h) on
      the grid.  The exact residual field is smooth and keeps this sup
      between grid points.
    * rounding noise of g's grid values, which g's interpolant can amplify
      by iota between grid points: y_K's own rounding (u M), the last
      sweep's evaluation (E_h), h on the target grid by inverse FFT
      ((rho + 2u) |h| root mean square), the two additions forming g
      (3 u P) and g's forward FFT (coefficients off by (rho + u) P in l2).
    * E_g and E_h for g(v) and h(v); the assembly's 3 additions on partial
      sums at most P, 2 P and 2 P (5 u P); the re-expansion and the
      inverse FFT of the output (an error of l2 norm over the grid, hence
      of sup, at most 2 (rho + 2u) sqrt(N) S); the 2 additions forming y
      (2 u M).

    Summed:

        B = (1 + L) (spill + theta r_inv
                     + theta (2 u M + E_h) + iota (u M + E_h + (2 rho + 6 u) P)
                     + E_g + E_h + 5 u P + 2 (rho + 2u) sqrt(N) S + 2 u M)
            + 3 L u M + E_h + 4 u M
    """
    u = UNIT_ROUNDOFF
    d, n = h.d, h.n_max
    points = m ** d
    s = nonzero_radius(h)
    M = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    lip = _lipschitz(h)
    theta = 1.0 / (1.0 - lip)
    h_norm, g_norm = h.l1_norm(), g.l1_norm()
    P = df.l1_norm() + h_norm + g_norm
    k = math.log2(points) * (u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u))
    rho = k / (1 - k)
    iota = (2 * n + 1) ** (d / 2)
    e_h = u * (1.5 * (M + 1) * lip + (6 * s + 10) * h_norm)
    e_g = u * (1.5 * (M + 1) * TWO_PI * d * n + 6 * n + 10) * g_norm
    delta = (spill + theta * r_inv
             + theta * (2 * u * M + e_h)
             + iota * (u * M + e_h + (2 * rho + 6 * u) * P)
             + e_g + e_h + 5 * u * P
             + 2 * (rho + 2 * u) * math.sqrt(points) * assembled_sup
             + 2 * u * M)
    bound = (1 + lip) * delta + 3 * lip * u * M + e_h + 4 * u * M
    terms = {"spill": spill, "inversion_residual": r_inv,
             "lipschitz_h": lip, "coordinate_max": M, "perturbation_l1": P,
             "assembled_sup": assembled_sup}
    return bound, terms


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
