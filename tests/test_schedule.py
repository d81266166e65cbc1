"""Tests for direction grids, cutoff weights and the delta-schedule solver."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from kamtorus import construction as con
from kamtorus import diophantine as dio
from kamtorus import schedule as sch
from kamtorus.errors import GridTooCoarse, ResonanceDetected, ZeroVector
from kamtorus.precision import working_precision


def pair_alpha():
    return (mpmath.sqrt(2) - 1, mpmath.sqrt(3) - 1)


def flat_weights(value=0.05, count=12, **kw):
    return sch.WeightSequence(c=(value,) * count, **kw)


# -- grids --------------------------------------------------------------------

def test_grid_pair_is_exact_sphere():
    g = sch.DirectionGrid.pair()
    assert g.directions == ((1.0,), (-1.0,))
    assert g.spacing == 0.0


def test_grid_circle_unit_norm_and_spacing():
    g = sch.DirectionGrid.circle(32)
    for d in g.directions:
        assert abs(math.hypot(*d) - 1.0) < 1e-15
    assert abs(g.spacing - math.dist(g.directions[3], g.directions[4])) < 1e-15


def test_grid_neighbors_include_ring():
    g = sch.DirectionGrid.circle(16)
    js = g.neighbors(0, radius=1e-9)
    assert {15, 0, 1} <= set(js)


# -- cutoff and mode weights --------------------------------------------------

def test_cutoff_weight_cases():
    w = flat_weights(0.3)
    assert sch.cutoff_weight(w, 1, (3,)) == 1.0
    assert abs(sch.cutoff_weight(w, 1, (2,)) - mpmath.exp(-2 * 0.3)) < 1e-15
    assert sch.cutoff_weight(w, 1, (5,)) == 0.0
    with pytest.raises(ZeroVector):
        sch.cutoff_weight(w, 1, (0, 0))


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=200))
def test_cutoff_weight_trichotomy(n, ell):
    w = flat_weights(0.11, count=10)
    val = sch.cutoff_weight(w, n, (ell,))
    if ell > 1 << (n + 1):
        assert val == 0.0
    elif ell > 1 << n:
        assert val == 1.0
    else:
        assert 0 < val < 1


def test_phi_weight_examples():
    assert sch.phi_weight((1, 0), (0.0, 1.0), 0.5) == 1.0
    assert abs(sch.phi_weight((1, 0), (1.0, 0.0), 0.1)
               - mpmath.exp(0.2 * mpmath.pi)) < 1e-12
    assert abs(float(sch.phi_weight((1, 0), (1.0, 0.0), 0.1)) - 1.87446) < 1e-5
    # d = 1 parity
    for ell in ((3,), (-7,)):
        assert sch.phi_weight(ell, (1.0,), 0.2) == sch.phi_weight(ell, (-1.0,), 0.2)
    assert sch.phi_weight((4,), (1.0,), 0.0) == 1.0


# -- the schedule -------------------------------------------------------------

def test_schedule_monotone_and_headline_d1(golden):
    w = sch.dyadic_weight_recipe([golden], 10)
    s = sch.delta_schedule([golden], sch.DirectionGrid.pair(), w, 10)
    for n in range(s.stages() - 1):
        for i in range(2):
            assert s.values[n + 1][i] <= s.values[n][i]
    head = s.headline()
    assert head["inf_delta"] > 0
    assert head["first_unreliable_stage"] is None  # two-point grid is exact


def test_schedule_monotone_d2_both_variants():
    # the flat start N = 3 is part of the definition's parameter choice: it
    # keeps the constraint budgets anchored at the full starting radius
    alpha = pair_alpha()
    grid = sch.DirectionGrid.circle(16)
    runs = [
        ("full_range", sch.dyadic_weight_recipe(alpha, 6, gothic_d=0.4, N=3)),
        ("annulus", flat_weights(0.05, count=9, N=3, gothic_d=0.4)),
    ]
    for variant, w in runs:
        s = sch.delta_schedule(alpha, grid, w, 6, variant=variant)
        assert s.stages() == 7, variant
        assert s.collapsed_stage is None
        assert s.inf_delta() > 0
        for n in range(6):
            for i in range(len(grid)):
                assert s.values[n + 1][i] <= s.values[n][i] + 1e-18


def test_underdamped_weights_collapse_is_flagged():
    # weights far below the dyadic divisor profile leave an inner mode whose
    # constraint no delta can satisfy at an orthogonal direction
    alpha = pair_alpha()
    w = flat_weights(0.02, count=8, gothic_d=0.4)
    s = sch.delta_schedule(alpha, sch.DirectionGrid.circle(16), w, 4)
    assert s.collapsed_stage is not None


def test_annulus_variant_never_binds_inner_modes():
    alpha = pair_alpha()
    w = flat_weights(0.05, count=9, N=3, gothic_d=0.4)
    s = sch.delta_schedule(alpha, sch.DirectionGrid.circle(16), w, 5,
                           variant="annulus")
    for n in range(1, s.stages()):
        for arg in s.argmins[n]:
            if arg is not None:
                assert dio.sup_norm(arg) > 1 << (n - 1)


def test_schedule_resonance_detected():
    with pytest.raises(ResonanceDetected):
        sch.delta_schedule([Fraction(1, 3), Fraction(1, 5)],
                           sch.DirectionGrid.circle(8),
                           flat_weights(0.1, count=8), 4)


def test_grid_too_coarse_strict_and_recorded():
    alpha = pair_alpha()
    w = flat_weights(2.0, count=8, gothic_d=0.5)  # radius e^(-2^n*2) dives fast
    grid = sch.DirectionGrid.circle(8)
    s = sch.delta_schedule(alpha, grid, w, 4)
    assert s.first_unreliable_stage is not None
    with pytest.raises(GridTooCoarse) as exc:
        sch.delta_schedule(alpha, grid, w, 4, strict_grid=True)
    assert exc.value.last_reliable_stage is not None


def test_domination_under_downward_perturbation():
    # pointwise-smaller stage-n values stay pointwise smaller after a step
    alpha = pair_alpha()
    w = sch.dyadic_weight_recipe(alpha, 6, gothic_d=0.4, N=2)
    grid = sch.DirectionGrid.circle(16)
    s = sch.delta_schedule(alpha, grid, w, 4)
    oracle = sch.DivisorOracle(alpha)
    base = s.values[3]
    lowered = [v - 0.01 * (1 + (i % 3)) for i, v in enumerate(base)]
    step_hi, _, _, _ = sch.advance_stage(oracle, grid, w, base, 3)
    step_lo, _, _, _ = sch.advance_stage(oracle, grid, w, lowered, 3)
    for lo, hi in zip(step_lo, step_hi):
        assert lo <= hi + 1e-10


def test_grid_refinement_comparison():
    alpha = pair_alpha()
    w = sch.dyadic_weight_recipe(alpha, 6, gothic_d=0.4, N=2)
    coarse = sch.DirectionGrid.circle(16)
    fine = sch.DirectionGrid.circle(32)
    s16 = sch.delta_schedule(alpha, coarse, w, 3)
    s32 = sch.delta_schedule(alpha, fine, w, 3)
    # compare on the coarse points (every second fine direction)
    diffs = [abs(s16.values[3][i] - s32.values[3][2 * i])
             for i in range(len(coarse))]
    # reported, not assumed: the bound below is a sanity envelope derived
    # from the per-mode solve's Lipschitz constant in beta at these scales
    assert max(diffs) < 0.2


def test_schedule_csv_rows_shape():
    alpha = pair_alpha()
    w = sch.dyadic_weight_recipe(alpha, 6, gothic_d=0.3, N=2)
    s = sch.delta_schedule(alpha, sch.DirectionGrid.circle(8), w, 3)
    rows = list(s.csv_rows())
    assert len(rows) == 4 * 8
    assert all(len(r) == 6 and r[5] == "full_range" for r in rows)


# -- weight adjustment --------------------------------------------------------

def test_adjust_weights_zero_sequence():
    w = sch.WeightSequence(c=(0.0,) * 10, gothic_d=1.0)
    adjusted, rep = sch.adjust_weights(w, C1=1.0, d=2)
    for n in range(10):
        expected = 4 * n * math.log(2) / (1 << n)
        assert abs(adjusted.c[n] - expected) < 1e-15
    assert rep.all_passed()


def test_adjust_weights_cancellation_identity():
    w = flat_weights(0.07, count=9)
    adjusted, _ = sch.adjust_weights(w, C1=3.0, d=2)
    for n in range(1, 9):
        lhs = 3.0 * 2.0 ** (2 * n) * math.exp(-(1 << n) * adjusted.c[n])
        rhs = math.exp(-(1 << n) * w.c[n])
        assert lhs / rhs == pytest.approx(2.0 ** (-2 * n), rel=1e-9)


def test_adjust_weights_summable():
    import random
    rng = random.Random(7)
    c = tuple(rng.random() / (n + 1) ** 2 for n in range(12))
    adjusted, rep = sch.adjust_weights(sch.WeightSequence(c=c), C1=2.0, d=3)
    assert float(adjusted.partial_sum()) < float(sch.WeightSequence(c=c).partial_sum()) + 10


# -- epsilon ledger -----------------------------------------------------------

def test_epsilon_ledger_zero_fixed_point():
    w = flat_weights(0.1, count=14)
    led = sch.epsilon_ledger(0.0, w, d=2, n_max=10)
    assert all(v == 0 for v in led.values)


def test_epsilon_ledger_turnaround_computed():
    # direct recursion: with c_n = 1/n^2, C = 10, d = 2, eps0 = 1e-8 the
    # ledger decreases through stage 6, then the 2^(3(n-1)d) factor takes
    # over and the dominance inequality first fails at stage 7 (frozen from
    # the recursion itself, cross-checked at doubled precision)
    c = tuple(1.0 if n == 0 else 1.0 / n ** 2 for n in range(14))
    w = sch.WeightSequence(c=c, C=10.0)
    led = sch.epsilon_ledger(1e-8, w, d=2, n_max=10)
    assert len(led.values) == 11
    assert all(b < a for a, b in zip(led.values[:7], led.values[1:8]))
    assert led.values[10] > led.values[7]
    assert led.first_dominance_failure == 7
    with working_precision(512):
        led2 = sch.epsilon_ledger(1e-8, w, d=2, n_max=10)
    for a, b in zip(led.values, led2.values):
        assert abs(a - b) <= 1e-40 * abs(a)


def test_epsilon_ledger_dominance_in_contracting_regime():
    # summable weights, d = 1, eps0 = 1e-10: the recursion contracts through
    # the whole range and the dominance inequality never fails (frozen from
    # the direct recursion)
    c = tuple(1.0 if n == 0 else 1.0 / n ** 2 for n in range(14))
    w = sch.WeightSequence(c=c, C=2.0)
    led = sch.epsilon_ledger(1e-10, w, d=1, n_max=10)
    assert all(b < a for a, b in zip(led.values, led.values[1:]))
    assert led.values[10] < 1e-25
    assert led.first_dominance_failure is None


# -- recipes, classification, 1-D checks -------------------------------------

def test_dimension_one_check_golden_all_green(golden):
    rep, details = sch.dimension_one_check([golden], 12)
    assert rep.all_passed(), [e.line() for e in rep.failures()]
    assert details["inf_delta"] > 0
    drops = [details["schedule"].values[n][0] - details["schedule"].values[n + 1][0]
             for n in range(12)]
    for n, drop in enumerate(drops):
        assert drop <= float(details["budgets"][n]) + 1e-15


def test_dimension_one_check_liouville_divergence():
    liou = dio.synthetic_liouville(4)
    rep, details = sch.dimension_one_check([liou], 16, gothic_d=0.75)
    assert rep.all_passed(), [e.line() for e in rep.failures()]
    # the budget-drop reference schedule burns through the whole radius
    assert details["cumulative_budget"] > 0.75
    assert details["reference"][-1] < 0
    # and the realized schedule itself dives below zero in range
    assert details["inf_delta"] < 0
    deltas = [row[0] for row in details["schedule"].values]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_classify_golden_1d(golden):
    rep = sch.classify([golden], depth=10)
    assert rep.dimension == 1
    assert rep.bryuno_partial_sum > 0 and math.isfinite(rep.bryuno_partial_sum)
    assert rep.headline["inf_delta"] > 0
    assert rep.dimension_one_consistent is True
    assert rep.label == "finite-depth evidence, not a proof"


def test_classify_liouville_1d():
    liou = dio.synthetic_liouville(4)
    rep = sch.classify([liou], depth=15, weights=sch.dyadic_weight_recipe([liou], 15, gothic_d=0.75))
    assert rep.headline["inf_delta"] < 0.1
    assert rep.dimension_one_consistent is False or rep.headline["inf_delta"] < 0.75


def test_classify_pair_d2():
    w = sch.dyadic_weight_recipe(pair_alpha(), 4, gothic_d=0.4, N=2)
    rep = sch.classify(pair_alpha(), depth=4, weights=w,
                       grid=sch.DirectionGrid.circle(16))
    assert rep.dimension == 2
    assert rep.headline["stages"] >= 4
    assert rep.dimension_one_consistent is None


def test_classify_constructed_vector_toy():
    st = con.build(levels=3, mode="toy",
                   schedule=con.GrowthSchedule(mode="toy", base=2, exponent_scale="1"))
    alpha = con.alpha_approx(st)
    w = sch.construction_weights(st, n_max=6)
    rep = sch.classify(alpha, depth=6, weights=w, grid=sch.DirectionGrid.circle(16))
    assert rep.bryuno_partial_sum > 0
    assert "inf_delta" in rep.headline


def test_construction_weights_dominate_offdirection_divisors():
    # the third term of the recipe forces e^(-2^n c_n) <= k_n at every
    # scanned stage: inner off-direction modes are never constraining
    st = con.build(levels=3, mode="toy",
                   schedule=con.GrowthSchedule(mode="toy", base=2, exponent_scale="1"))
    alpha = con.alpha_approx(st)
    w = sch.construction_weights(st, n_max=8)
    for n in range(7, 9):
        scale = 1 << n
        l_of_n = max(l for l in range(st.level) if st.q_tilde[l] <= scale)
        k_min, _ = con._exact_scan(alpha, min(scale, 256),
                                   skip_parallel_to=st.nu[l_of_n])
        g_inner = math.exp(-scale * w.c[n])
        assert g_inner <= float(k_min) * (1 + 1e-12)
