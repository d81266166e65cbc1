"""Direction-resolved analyticity-loss schedules.

At dyadic scale 2^n each direction beta on the unit sphere carries a radius
delta[beta][n].  Advancing one stage solves, for every lattice mode l in the
stage's range, the largest delta <= delta[beta][n] with

    exp(2 pi |beta.l| delta) * g(c, n, l) / ||alpha.l||
        <= max over the grid of exp(2 pi |beta'.l| delta[beta'][n]),

then takes the minimum over a shrinking beta-neighborhood.  The cutoff g
damps modes below scale 2^n by exp(-2^n c_n) and vanishes above 2^(n+1).
Both constraint ranges are implemented:

* "full_range": modes 0 < |l| <= 2^(n+1), neighborhood radius exp(-2^n c_n);
* "annulus":    modes 2^n < |l| <= 2^(n+1), neighborhood radius
                2^(dn) exp(-2^n c_n) (the constant C1 of the radius is 1),
                and the stage result is shrunk by the factor (1 - c_{n+1}).

The per-mode solve is the closed form delta* = log(M ||alpha.l|| / g) /
(2 pi |beta.l|): the left side is monotone and invertible in delta, so this
is exact to round-off (a bisection oracle cross-checks it in the tests).
`advance_stage` solves a whole block of modes at once, as (modes, G)
arrays of dots, budgets and caps, and gives the same doubles as a loop over
the modes: for d <= 2 the fsum of one or two products is one IEEE
addition, np.argmin's first occurrence is the loop's strict `<` update, and
every other step is the same elementwise IEEE operation in the same order.
The divisors come from `diophantine.DivisorOracle`, the one evaluator of
||alpha.l||, which computes each mode's log(1/||alpha.l||) once: on
integer residues for rational alpha, at the precision it was built at for
any other alpha, plain floats included.  The stage filters, then
certifies, as `diophantine._divisor_min` does: the float64 distances and
their margin bracket every mode's log divisor and, since each IEEE step
is monotone, its caps and budget.  Only
the modes whose cap can bind, whose negative budget on an orthogonal
direction could collapse the stage, or that are not cleared of resonance
take the oracle's exact value; the caps of the others cannot enter the
loop's result, so the stage still gives the loop's doubles (see
`_stage_caps`).  On the README `schedule` run that is 36 of 10,976 modes.

Resonance follows one policy, `diophantine.resonance_threshold`, that
`DivisorOracle` alone applies in a scan or stage: a divisor exactly zero
(rational alpha), below 1e-13 (all-float alpha) or below 2^-(prec - 16)
(mpf alpha) raises ResonanceDetected with the offending lattice vector.
`kam.solve_cohomological` guards a different quantity,
|e^(2 pi i alpha.l) - 1| < 1e-13.

The continuous sphere is a finite grid: the neighborhood minimum always
includes the immediate grid ring, and the first stage whose true radius
falls below one grid spacing is recorded as `first_unreliable_stage`.
For d = 1 the two-point grid {+1, -1} is the exact sphere, so no stage is
ever unreliable.

Headline statistic: inf over beta and n of delta[beta][n]; a positive value
is the finite-depth evidence that the weight choice controls every scanned
scale.  Negative deltas are kept (not clamped): a schedule diving through
zero is exactly the divergence evidence the non-summable case produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .diophantine import (DivisorOracle, _box_blocks, _log10_int,
                          _log_inv_ratio, bryuno_partial_sum, omega_min,
                          omega_min_1d, sup_norm)
from .errors import SchemaMismatch
from .precision import to_mpf
from .reports import VerificationReport

TWO_PI = 2 * math.pi

#: Cells of the (modes, G) arrays one step of a stage solve holds: 64 KB per
#: temporary whatever the grid size.  Larger steps gain little speed and
#: cost memory: `schedule` with the README flags peaked 3 MB higher with
#: 512 KB temporaries.
_STAGE_CELLS = 1 << 13


# ---------------------------------------------------------------------------
# grids, weights, cutoff


@dataclass(frozen=True)
class DirectionGrid:
    """Finite set of unit directions covering the sphere S^(d-1).

    d = 1: the exact two-point sphere {+1, -1} (spacing 0).
    d = 2: `count` uniformly spaced angles; spacing is the chord between
    neighboring directions, which bounds the covering gap.
    """

    dimension: int
    directions: tuple
    angles: tuple
    spacing: float

    @classmethod
    def pair(cls) -> "DirectionGrid":
        return cls(dimension=1, directions=((1.0,), (-1.0,)),
                   angles=(0.0, math.pi), spacing=0.0)

    @classmethod
    def circle(cls, count: int) -> "DirectionGrid":
        if count < 4:
            raise ValueError("circle grid needs at least 4 directions")
        angles = tuple(2 * math.pi * k / count for k in range(count))
        dirs = tuple((math.cos(a), math.sin(a)) for a in angles)
        spacing = math.dist(dirs[0], dirs[1])
        return cls(dimension=2, directions=dirs, angles=angles, spacing=spacing)

    def __len__(self):
        return len(self.directions)

    @cached_property
    def _chords(self) -> np.ndarray:
        """Chord distances between grid directions, computed once per grid."""
        return np.array([[math.dist(a, b) for b in self.directions]
                         for a in self.directions])

    def neighborhoods(self, radius: float) -> np.ndarray:
        """Boolean (G, G) mask whose row i marks the grid directions within
        chord distance < radius of direction i; a row always holds i itself
        and its immediate ring."""
        mask = self._chords < max(radius, self.spacing * 1.0000001)
        np.fill_diagonal(mask, True)
        return mask


@dataclass(frozen=True)
class WeightSequence:
    """Damping weights c_n plus the schedule parameters (C, N, gothic_d).

    delta[beta][n] = gothic_d for n <= N; c must cover every stage the
    schedule will touch (n_max + 1 entries are consumed by the shrink
    factor of the annulus variant).
    """

    c: tuple
    C: float = 1.0
    N: int = 0
    gothic_d: float = 1.0

    def __post_init__(self):
        if any(not x >= 0 for x in self.c):
            raise ValueError("weights must be nonnegative")
        if self.N < 0 or not 0 < self.gothic_d < math.inf:
            raise ValueError("need N >= 0 and a finite gothic_d > 0")


# The mode growth factor exp(2 pi |beta.l| delta) uses the plain inner product
# |beta.l|, not its distance to the nearest integer: the two readings coexist
# upstream, and the solver manipulates exp(2 pi delta |l|_2 cos(angle)), which
# requires the former.  Every report header states this choice.
PHI_NOTE = "phi uses |beta.l| (plain inner product), not nearest-integer distance"


# ---------------------------------------------------------------------------
# stage modes


def _stage_blocks(dimension: int, n: int, variant: str, rows: int):
    """Canonical (sign-normalized) lattice modes of stage n, in scan order,
    as int64 blocks of at most max(rows, 1) rows."""
    lo = (1 << n) + 1 if variant == "annulus" else 1
    step = max(rows, 1)
    for block in _box_blocks(dimension, 1 << (n + 1), lo):
        for start in range(0, len(block), step):
            yield block[start:start + step]


# ---------------------------------------------------------------------------
# the schedule


#: The columns of `schedule.csv`, in the order of `DeltaSchedule.csv_rows`.
CSV_COLUMNS = ("stage", "beta_angle", "delta", "constraint_argmin_l1",
               "constraint_argmin_l2", "variant")


@dataclass
class DeltaSchedule:
    grid: DirectionGrid
    variant: str
    weights: WeightSequence
    values: list                  # values[n][i]: stage n, grid direction i
    argmins: list                 # argmins[n][i]: binding mode or None
    first_unreliable_stage: int | None = None
    collapsed_stage: int | None = None
    # per computed stage: {stage, scanned_modes, exact_modes}
    scan: list = field(default_factory=list)

    def stages(self) -> int:
        return len(self.values)

    def inf_delta(self) -> float:
        return min(min(row) for row in self.values)

    def headline(self) -> dict:
        return {
            "variant": self.variant,
            "stages": self.stages(),
            "grid_size": len(self.grid),
            "inf_delta": float(self.inf_delta()),
            "first_unreliable_stage": self.first_unreliable_stage,
            "collapsed_stage": self.collapsed_stage,
            "phi_convention": PHI_NOTE,
        }

    def csv_rows(self):
        """Rows of `schedule.csv`, one per stage and direction: `CSV_COLUMNS`."""
        for n, row in enumerate(self.values):
            for i, val in enumerate(row):
                arg = self.argmins[n][i]
                l1 = arg[0] if arg else ""
                l2 = (arg[1] if len(arg) > 1 else 0) if arg else ""
                yield (n, repr(self.grid.angles[i]), repr(float(val)), l1, l2,
                       self.variant)


def delta_schedule(alpha, grid: DirectionGrid, weights: WeightSequence,
                   n_max: int, variant: str = "full_range") -> DeltaSchedule:
    """Run the stage recursion from the flat start up to stage n_max.

    Stages 0..N hold gothic_d; each later stage applies the per-mode solve
    and the neighborhood minimum.  See the module docstring for the two
    variants.  Raises ResonanceDetected on a vanishing divisor inside the
    scanned range; the first stage whose neighborhood radius undercuts the
    grid spacing is recorded as `first_unreliable_stage`.
    """
    if variant not in ("full_range", "annulus"):
        raise ValueError(f"unknown variant {variant!r}")
    if len(weights.c) < n_max + 2:
        raise ValueError(f"need at least {n_max + 2} weights for n_max={n_max}")
    if variant == "annulus" and any(float(c) >= 1 for c in weights.c[weights.N:n_max + 2]):
        raise ValueError("the annulus variant's (1 - c_{n+1}) shrink needs "
                         "weights below 1 over the active stages")
    oracle = DivisorOracle(alpha)
    if oracle.dimension != grid.dimension:
        raise ValueError("alpha dimension does not match the grid")
    G = len(grid)
    start = float(weights.gothic_d)

    values = [[start] * G for _ in range(min(weights.N, n_max) + 1)]
    argmins = [[None] * G for _ in range(len(values))]
    sched = DeltaSchedule(grid=grid, variant=variant, weights=weights,
                          values=values, argmins=argmins)

    for n in range(weights.N, n_max):
        scanned, exact = oracle.bounded_modes, oracle.log_inv_calls
        merged, merged_arg, collapsed, radius = advance_stage(
            oracle, grid, weights, values[n], n, variant)
        sched.scan.append({"stage": n + 1,
                           "scanned_modes": oracle.bounded_modes - scanned,
                           "exact_modes": oracle.log_inv_calls - exact})
        if collapsed:
            sched.collapsed_stage = n + 1
            break
        if grid.spacing > 0 and radius < grid.spacing and \
                sched.first_unreliable_stage is None:
            sched.first_unreliable_stage = n + 1
        values.append(merged)
        argmins.append(merged_arg)
    return sched


def _stage_caps(oracle: DivisorOracle, grid: DirectionGrid,
                weights: WeightSequence, prev, n: int, variant: str):
    """The stage's caps before the neighborhood minimum: (values, binding
    modes, collapsed), each direction's value the least of prev and its
    caps, its binding mode the first mode in scan order to reach it.

    Filter, then certify.  Only the exact log_inv of a mode enters its
    caps, and it is computed (`oracle.log_inv`) only for the modes whose
    caps might matter; every other mode is excluded by an interval.  With
    u = 2^-53:

    1. The divisor.  `_DivisorFilter` gives fd(l) and a margin m with
       |fd(l) - c(l)| <= m, c(l) the distance the oracle's route
       computes.  If lo = fl(fd - m) exceeds eps, the
       resonance threshold's double (exact, or 0 once it underflows), then
       l is not resonant and c(l) lies in [lo, hi = fl(fd + m)], m's slack
       covering both roundings; otherwise l takes the exact route.
    2. Its log.  The bound assumes every library logarithm (math.log,
       math.log10, numpy.log) is within 4 ulp, a relative 8u; numpy's own
       accuracy tests hold its float64 log to 1 ulp.  As c <= 1/2 and
       lo hi <= 1, ln(1/c) and |ln(1/hi)| are at most L = ln(1/lo) > 0.
       The oracle's value differs from ln(1/c) by at most
       rho ln(1/c) + tau with rho = 11u + 2^(3-prec):
       * float or mpf alpha: mpf_log (20 guard bits, one rounding at prec) is
         within 2^(2-prec), to_float adds u, and tau = 0;
       * Fraction alpha: c = a/b in lowest terms, b <= q, the lcm of the
         denominators.  _log10_int(k) = log10 t + s log10 2, with t the
         top 64 bits of k shifted by s, is within 10u log10 k + u of
         log10 k: 2^-63 from the truncation, 0.44u from float(t),
         8u (log10 t + s log10 2) <= 8u log10 k from its two library
         logs, and 2u log10 k from its two roundings.  The difference and
         the product by fl(ln 10) add 10u relative, so
         tau = ln 10 (20u log10 q + 2u) (1 + 11u) < 48u (bits(q) log10 2 + 1).
       With lam_hi = -np.log(lo) and lam_lo = -np.log(hi), each within 8u L
       of its logarithm, log_inv(l) lies in [lam_lo - w, lam_hi + w] for
       w = 2 ((rho + 8u) lam_hi + tau): the factor 2 covers
       L <= lam_hi / (1 - 8u) and the roundings of w and of lam +/- w.
    3. The caps.  budget = fl(fl(log_m - log_inv) - g_log) does not
       increase as log_inv grows, and cap = fl(budget / fl(2 pi dot)) does
       not decrease as budget grows, since every IEEE operation is
       monotone in each operand; the same operations on the two ends of
       the log interval bracket each cap: cap_lo <= cap <= cap_hi.
    4. Candidates.  Per direction, with bar = min(new, least cap_hi of the
       block), a mode whose cap_lo exceeds bar has a cap above the
       running value or above another mode's cap in the block, so it can
       neither lower the value nor be the first minimizer.  A mode takes
       the exact route if cap_lo <= bar in some direction (ties count), or
       if it is orthogonal to some direction and its lower budget is
       negative, so `collapsed` (a negative budget on such a mode) is
       decided exactly.  A mode not cleared of resonance has budget -inf
       at the low end, so it takes the exact route either way.
    5. Certify.  The candidates' caps are the same elementwise operations
       on the exact log_inv, and argmin runs over them in scan order, so
       values, binding modes, `collapsed` and the first resonant vector are
       those of a scan of every mode.
    """
    G = len(grid)
    dirs = np.array(grid.directions, dtype=np.float64)
    damping = (1 << n) * float(weights.c[n])
    new = np.array([float(v) for v in prev])
    scaled = TWO_PI * new                       # 2 pi delta[beta][n]
    binding = [None] * G
    collapsed = False
    log_inv_bounds = oracle.log_inv_bounds(1 << (n + 1))
    for block in _stage_blocks(grid.dimension, n, variant, _STAGE_CELLS // G):
        g_log = np.where(np.abs(block).max(axis=1) <= (1 << n), -damping, 0.0)
        lf = block.astype(np.float64)
        # snap float-noise inner products to exact orthogonality, otherwise a
        # 1e-16 dot turns an infeasible orthogonal constraint into a cap of
        # absurd magnitude
        ortho = 1e-12 * np.sqrt((lf * lf).sum(axis=1))
        dots = lf[:, :1] * dirs[:, 0]
        for k in range(1, grid.dimension):
            dots = dots + lf[:, k:k + 1] * dirs[:, k]
        dots = np.abs(dots)
        dots[dots < ortho[:, None]] = 0.0
        log_m = (scaled * dots).max(axis=1)
        orthogonal = dots == 0.0
        denom = TWO_PI * dots
        log_lo, log_hi = log_inv_bounds(block)
        budget_lo = log_m - log_hi - g_log
        with np.errstate(divide="ignore", invalid="ignore"):
            cap_lo = budget_lo[:, None] / denom
            cap_hi = (log_m - log_lo - g_log)[:, None] / denom
        cap_lo[orthogonal] = cap_hi[orthogonal] = np.inf
        bar = np.minimum(new, cap_hi.min(axis=0))
        rows = np.flatnonzero((orthogonal.any(axis=1) & (budget_lo < 0))
                              | (cap_lo <= bar).any(axis=1))
        if not len(rows):
            continue
        modes = block[rows]
        log_inv = np.array([oracle.log_inv(key) for key in modes.tolist()])
        budget = log_m[rows] - log_inv - g_log[rows]   # log(M ||alpha.l|| / g)
        orthogonal = orthogonal[rows]
        collapsed = collapsed or bool((budget[orthogonal.any(axis=1)] < 0).any())
        with np.errstate(divide="ignore", invalid="ignore"):
            caps = budget[:, None] / denom[rows]
        caps[orthogonal] = np.inf
        first = caps.argmin(axis=0)             # first occurrence: strict <
        best = caps[first, np.arange(G)]
        for i in np.flatnonzero(best < new).tolist():
            new[i] = best[i]
            binding[i] = tuple(modes[first[i]].tolist())
    return new, binding, collapsed


def advance_stage(oracle: DivisorOracle, grid: DirectionGrid,
                  weights: WeightSequence, prev, n: int,
                  variant: str = "full_range"):
    """One stage of the recursion from the stage-n values `prev`.

    Returns (values_{n+1}, binding modes, collapsed, neighborhood radius).
    `collapsed` reports a mode orthogonal to some grid direction whose
    constraint no delta can satisfy (possible only deep in the divergent
    regime).  Each block of modes is solved as (modes, G) arrays; see the
    module docstring for why this equals the loop over modes bit for bit.
    """
    damping = (1 << n) * float(weights.c[n])    # -log of the inner cutoff
    new, binding, collapsed = _stage_caps(oracle, grid, weights, prev, n, variant)
    radius = math.exp(-damping)
    if variant == "annulus":
        radius *= 2.0 ** (grid.dimension * n)
    j_best = np.where(grid.neighborhoods(radius), new, np.inf).argmin(axis=1)
    merged = new[j_best]
    merged_arg = [binding[j] for j in j_best.tolist()]
    if variant == "annulus":
        # min keeps stage monotonicity exact even once deltas go negative
        shrunk = merged * (1.0 - float(weights.c[n + 1]))
        merged = np.where(merged < shrunk, merged, shrunk)
    return merged.tolist(), merged_arg, collapsed, radius


# ---------------------------------------------------------------------------
# the epsilon ledger


@dataclass(frozen=True)
class EpsilonLedger:
    """Per-stage error budget driven by the weight sequence.

    values[n+1] = e^(-2^n (c_n + c_{n+1})) values[n]
                  + C e^(2^n c_n) 2^(3(n-1)d) values[n-1]^2,
    with the flat start values[0..N] = eps0 (and eps_{-1} read as eps0).
    first_dominance_failure is the first stage where
    eps_n e^(-2^n c_n) > C 2^(3(n-1)d) eps_{n-1}^2 fails, or None.
    """

    values: tuple
    C: float
    d: int
    first_dominance_failure: int | None


def epsilon_ledger(eps0, weights: WeightSequence, d: int,
                   n_max: int) -> EpsilonLedger:
    if eps0 < 0:
        raise ValueError("eps0 must be nonnegative")
    eps0 = to_mpf(eps0)
    C = to_mpf(weights.C)
    start = min(weights.N, n_max)
    values = [eps0] * (start + 1)
    for n in range(start, n_max):
        prev = values[n - 1] if n >= 1 else eps0
        c_n = to_mpf(weights.c[n])
        c_n1 = to_mpf(weights.c[n + 1])
        quad = C * mpmath.exp((1 << n) * c_n) * mpmath.mpf(2) ** (3 * (n - 1) * d) * prev ** 2
        values.append(mpmath.exp(-(1 << n) * (c_n + c_n1)) * values[n] + quad)
    failure = None
    for n in range(1, len(values)):
        lhs = values[n] * mpmath.exp(-(1 << n) * to_mpf(weights.c[n]))
        rhs = C * mpmath.mpf(2) ** (3 * (n - 1) * d) * values[n - 1] ** 2
        if not lhs > rhs and values[n] != 0:
            failure = n
            break
    return EpsilonLedger(values=tuple(values), C=float(weights.C), d=d,
                         first_dominance_failure=failure)


# ---------------------------------------------------------------------------
# weight recipes


def dyadic_weight_recipe(alpha, n_max: int, records: list | None = None,
                         gothic_d: float = 1.0, N: int = 0) -> WeightSequence:
    """c_n = 2 pi 2^-n log(1/Omega(2^n)): the damping that turns the
    dyadic small-divisor profile of alpha into inner-mode harmlessness."""
    recs = []
    # c_n for n = 1..n_max + 1 reads Omega(2^n); stage 0 uses the unit ball
    bryuno_partial_sum(alpha, n_max + 1, records=recs)
    c = [float(TWO_PI * rec.bryuno_term())
         for rec in [omega_min(alpha, 1)] + recs]
    if records is not None:
        records.extend(recs)
    return WeightSequence(c=tuple(c), N=N, gothic_d=gothic_d)


def construction_weights(state, n_max: int, gothic_d: float = 1.0,
                         N: int = 0) -> WeightSequence:
    """Three-term stage weights tailored to a constructed vector.

    c_n = 1 / (t_k (4n - log qt)^2) + 1 / (t_k (|4n - log qt_next| + 1)^2)
          + 2^-n log(1/k_n),

    where qt = q_tilde(l(n)) for the deepest level with q_tilde <= 2^n,
    t_k is that level's twist bracket value, and k_n is the smallest
    divisor among modes |l| <= 2^n not parallel to nu(l(n)) (scanned on the
    deepest approximant, radius capped at 256): the state's
    `construction.offdirection_divisor`.  Stages below the first scale
    carry only the k_n term, the least divisor over the capped ball.  The
    first N stages are held flat, as in `dyadic_weight_recipe`.
    """
    from .construction import alpha_approx, offdirection_divisor

    alpha = alpha_approx(state)
    c = []
    for n in range(n_max + 2):
        scale = 1 << n
        radius = min(scale, 256)
        l_of_n, k_min = offdirection_divisor(state, alpha, scale, radius)
        term = 0.0
        if l_of_n is not None:
            data = state.direction(l_of_n)
            log_qt = _log10_int(data.q_tilde) * math.log(10)
            term += 1.0 / (data.t_n * (4 * n - log_qt) ** 2)
            # l(n) < level, so level l(n) + 1 has direction data unless its
            # twist factor c falls below 1 (ValueError): then no term
            try:
                nxt = state.direction(l_of_n + 1)
                log_next = _log10_int(nxt.q_tilde) * math.log(10)
                term += 1.0 / (data.t_n * (abs(4 * n - log_next) + 1) ** 2)
            except ValueError:
                pass
            if k_min is not None and k_min > 0:
                log_inv = _log_inv_ratio(k_min.numerator, k_min.denominator)
                term += max(log_inv, 0.0) / scale
        else:
            rec = omega_min(alpha, radius)
            term += max(float(mpmath.log(1 / rec.value_mpf())), 0.0) / scale
        c.append(term)
    return WeightSequence(c=tuple(c), N=N, gothic_d=gothic_d)


def build_schedule(alpha, *, weights, gothic_d: float, flat_stages: int,
                   grid_count: int, stages: int,
                   variant: str = "full_range") -> DeltaSchedule:
    """The schedule of alpha to stage `stages` from a weight recipe.

    `weights` is "dyadic" (`dyadic_weight_recipe`), "flat:C" (C at every
    stage) or a constructed state (`construction_weights`); each holds its
    first `flat_stages` stages at gothic_d.  The grid is the exact pair for
    d = 1 and `grid_count` directions on the circle otherwise; it is the
    schedule's `grid`.  Raises SchemaMismatch for any other recipe, and
    for `stages` below 1.
    """
    if stages < 1:
        raise SchemaMismatch(f"a schedule needs at least 1 stage, not {stages}")
    if not isinstance(weights, str):
        seq = construction_weights(weights, stages, gothic_d=gothic_d,
                                   N=flat_stages)
    elif weights == "dyadic":
        seq = dyadic_weight_recipe(alpha, stages, gothic_d=gothic_d,
                                   N=flat_stages)
    elif weights.startswith("flat:"):
        seq = WeightSequence(c=(float(weights.split(":", 1)[1]),) * (stages + 2),
                             N=flat_stages, gothic_d=gothic_d)
    else:
        raise SchemaMismatch(f"unknown weight recipe {weights!r}")
    grid = (DirectionGrid.pair() if len(alpha) == 1
            else DirectionGrid.circle(grid_count))
    return delta_schedule(alpha, grid, seq, stages, variant=variant)


# ---------------------------------------------------------------------------
# one-dimensional analysis


def _independent_stage_caps(oracle: DivisorOracle, grid: DirectionGrid,
                            weights: WeightSequence, prev, n: int):
    """Re-derive the full-range stage caps with mpf primitives on the raw
    distances (no shared log cache), as an independent per-mode solve."""
    G = len(grid)
    caps = [to_mpf(float(p)) for p in prev]
    radius = 1 << n
    with mpmath.workprec(128):
        two_pi = 2 * mpmath.pi
        damping = mpmath.mpf(radius) * to_mpf(float(weights.c[n]))
        # log g of inner and outer modes
        inner_g, outer_g = -damping, mpmath.mpf(0)
        dirs = [[to_mpf(b) for b in d] for d in grid.directions]
        scaled = [two_pi * to_mpf(float(p)) for p in prev]
        for block in _stage_blocks(grid.dimension, n, "full_range", _STAGE_CELLS // G):
            for l in map(tuple, block.tolist()):
                dist = to_mpf(oracle.distance(l))
                g_log = inner_g if sup_norm(l) <= radius else outer_g
                dots = [abs(mpmath.fsum(b * c for b, c in zip(d, l))) for d in dirs]
                log_m = max(s * dot for s, dot in zip(scaled, dots))
                budget = log_m + mpmath.log(dist) - g_log
                for i in range(G):
                    if dots[i] == 0:
                        continue
                    cap = budget / (two_pi * dots[i])
                    if cap < caps[i]:
                        caps[i] = cap
    return caps


def _bisect_mode_cap(dist, g_log: float, log_m: float, dot: float,
                     hi: float) -> float:
    """Largest delta in [-64, hi] with exp(2 pi dot delta) g / dist <= M,
    found by bisection on the raw inequality (mpf exponentials, no log
    inversion).

    2 pi dot and M dist are formed once, in the inequality's own operation
    order.  The bisection stops once the midpoint rounds to lo or hi, as it
    does when they are adjacent doubles: lo stays feasible and hi not, so
    that step and every later one leave the bracket as it is, and the
    result is that of all 80 steps."""
    dist = to_mpf(dist) if not isinstance(dist, Fraction) else \
        mpmath.mpf(dist.numerator) / dist.denominator
    m_val = mpmath.exp(to_mpf(log_m))
    g_val = mpmath.exp(to_mpf(g_log))
    rate = 2 * mpmath.pi * dot
    limit = m_val * dist

    def feasible(delta):
        return mpmath.exp(rate * to_mpf(delta)) * g_val <= limit

    lo = -64.0
    if feasible(hi):
        return hi
    if not feasible(lo):
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def dimension_one_check(alpha_1d, depth: int, gothic_d: float = 1.0):
    """One-dimensional consistency suite.

    Runs the two-point-grid schedule with the dyadic weight recipe and
    checks, per stage n < depth:

    * budget_dual_path: the stage budget 2^-(n+1) log(1/Omega(2^(n+1)))
      computed from the exhaustive scan agrees with the convergent-based
      fast path to 1e-12 relative;
    * drop_within_budget: the realized drop delta_n - delta_{n+1} never
      exceeds the budget (+1e-15);
    * inner_modes_inactive: the binding mode is never an inner mode
      (the damping makes g/||alpha.l|| <= 1 below scale 2^n);
    * two_point_symmetry: delta_{+1,n} == delta_{-1,n} exactly;
    * caps_dual_path / binding_bisection: the closed-form stage caps agree
      with an independent mpf re-derivation (1e-12) and with a bisection
      solve of the binding mode's raw inequality (1e-10); these mode-loop
      re-derivations run for the stages n < 12.

    Returns (report, details) where details carries the schedule, the
    budgets, and the reference schedule that drops by exactly the budget.
    """
    x = alpha_1d[0] if isinstance(alpha_1d, (tuple, list)) else alpha_1d
    alpha = (x,)
    records = []
    weights = dyadic_weight_recipe(alpha, depth, records=records,
                                   gothic_d=gothic_d)
    grid = DirectionGrid.pair()
    sched = delta_schedule(alpha, grid, weights, depth, variant="full_range")
    rep = VerificationReport("one-dimensional schedule checks", {
        "depth": depth, "gothic_d": gothic_d, "phi_convention": PHI_NOTE,
        "weights": "c_n = 2 pi 2^-n log(1/Omega(2^n))"})
    oracle = DivisorOracle(alpha)

    budgets = []
    for n in range(depth):
        budget = records[n].bryuno_term()       # Omega(2^(n+1)) record
        budgets.append(budget)
        fast_budget = omega_min_1d(alpha, 1 << (n + 1)).bryuno_term()
        rel = abs(budget - fast_budget) / budget if budget != 0 else mpmath.mpf(0)
        rep.add("budget_dual_path", f"stage {n}", bool(rel <= 1e-12),
                margin=mpmath.nstr(rel, 4))

    for n in range(min(depth, sched.stages() - 1)):
        drop = sched.values[n][0] - sched.values[n + 1][0]
        ok = drop <= float(budgets[n]) + 1e-15
        rep.add("drop_within_budget", f"stage {n}", bool(ok),
                margin=f"drop = {drop!r}, budget = {mpmath.nstr(budgets[n], 12)}")
        arg = sched.argmins[n + 1][0]
        rep.add("inner_modes_inactive", f"stage {n}",
                arg is None or sup_norm(arg) > (1 << n),
                margin=f"binding mode = {arg}")
        rep.add("two_point_symmetry", f"stage {n}",
                sched.values[n + 1][0] == sched.values[n + 1][1])

        if n >= 12:
            continue
        caps = _independent_stage_caps(oracle, grid, weights,
                                       sched.values[n], n)
        merged = min(caps)                      # two-point neighborhood
        got = sched.values[n + 1][0]
        rep.add("caps_dual_path", f"stage {n}",
                bool(abs(merged - got) <= 1e-12 * max(1.0, abs(got))),
                margin=mpmath.nstr(abs(merged - got), 4))
        if arg is not None:
            dist = oracle.distance(arg)
            g_log = -(1 << n) * float(weights.c[n]) if sup_norm(arg) <= (1 << n) else 0.0
            log_m = TWO_PI * float(sched.values[n][0]) * abs(arg[0])
            bis = _bisect_mode_cap(dist, g_log, log_m, abs(arg[0]),
                                   hi=float(sched.values[n][0]))
            rep.add("binding_bisection", f"stage {n}",
                    bool(abs(bis - got) <= 1e-10 * max(1.0, abs(got))),
                    margin=mpmath.nstr(abs(float(bis) - got), 4))

    reference = [float(gothic_d)]
    for b in budgets:
        reference.append(reference[-1] - float(b))
    details = {
        "schedule": sched,
        "budgets": budgets,
        "reference": reference,
        "inf_delta": sched.inf_delta(),
        "cumulative_budget": float(mpmath.fsum(budgets)),
    }
    return rep, details
