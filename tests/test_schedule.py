"""Tests for direction grids, weight recipes and the delta-schedule solver."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kamtorus import construction as con
from kamtorus import diophantine as dio
from kamtorus import kam
from kamtorus import schedule as sch
from kamtorus.errors import ResonanceDetected
from kamtorus.fourier import FourierMap
from kamtorus.precision import to_mpf, working_precision


def _failure_lines(rep):
    """The lines of the failed entries of a VerificationReport."""
    return [e.line() for e in rep.entries if e.passed is False]


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
    js = np.flatnonzero(g.neighborhoods(1e-9)[0]).tolist()
    assert {15, 0, 1} <= set(js)


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
    # the collapsed stage was scanned, so its scan is recorded
    assert s.scan[-1]["stage"] == s.collapsed_stage == s.stages()


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


def test_grid_too_coarse_recorded():
    alpha = pair_alpha()
    w = flat_weights(2.0, count=8, gothic_d=0.5)  # radius e^(-2^n*2) dives fast
    grid = sch.DirectionGrid.circle(8)
    s = sch.delta_schedule(alpha, grid, w, 4)
    assert s.first_unreliable_stage is not None


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


# -- the vectorized stage against the scalar oracle ----------------------------
#
# _ref_log_inv, _ref_stage_caps and _ref_advance_stage are the mode-by-mode
# solver, kept as the reference: Fraction sums, math.fsum dots, mpmath
# wrappers and one neighbors() scan per direction.  The vectorized stage must
# give the same doubles, binding modes, collapse flag and radius, bit for bit.


def _ref_log_inv(alpha, l, cache):
    key = tuple(l)
    if key in cache:
        return cache[key]
    exact = all(isinstance(a, (Fraction, int)) for a in alpha)
    if exact:
        dist = dio.nearest_int_distance(sum(a * c for a, c in zip(alpha, key)))
        if dist == 0:
            raise ResonanceDetected(f"alpha . {key} is an exact integer",
                                    lattice_vector=key)
        val = (sch._log10_int(dist.denominator)
               - sch._log10_int(dist.numerator)) * math.log(10)
    elif all(isinstance(a, float) for a in alpha):
        s = math.fsum(a * c for a, c in zip(alpha, key))
        dist = abs(s - round(s))
        if dist < 1e-13:
            raise ResonanceDetected(
                f"||alpha . {key}|| vanishes at double precision",
                lattice_vector=key)
        val = -math.log(dist)
    else:
        s = mpmath.fsum(to_mpf(a) * c for a, c in zip(alpha, key))
        dist = dio.nearest_int_distance(s)
        if dist < dio._resonance_eps():
            raise ResonanceDetected(
                f"||alpha . {key}|| vanishes at working precision",
                lattice_vector=key)
        val = float(-mpmath.log(dist))
    cache[key] = val
    return val


def _ref_neighbors(grid, index, radius):
    base = grid.directions[index]
    return [j for j, d in enumerate(grid.directions)
            if j == index or math.dist(base, d) < max(radius, grid.spacing * 1.0000001)]


def _ref_stage_caps(alpha, cache, grid, weights, prev, n, variant):
    G = len(grid)
    dirs = [tuple(float(x) for x in d) for d in grid.directions]
    damping = (1 << n) * float(weights.c[n])
    new = [float(v) for v in prev]
    binding = [None] * G
    collapsed = False
    for block in sch._stage_blocks(grid.dimension, n, variant, dio._BLOCK):
        for l in map(tuple, block.tolist()):
            log_inv = _ref_log_inv(alpha, l, cache)
            g_log = -damping if dio.sup_norm(l) <= (1 << n) else 0.0
            ortho = 1e-12 * math.hypot(*(float(c) for c in l))
            dots = [abs(math.fsum(b * c for b, c in zip(d, l))) for d in dirs]
            dots = [0.0 if v < ortho else v for v in dots]
            log_m = max(sch.TWO_PI * float(prev[i]) * dots[i] for i in range(G))
            budget = log_m - log_inv - g_log
            for i in range(G):
                if dots[i] == 0.0:
                    if budget < 0:
                        collapsed = True
                    continue
                cap = budget / (sch.TWO_PI * dots[i])
                if cap < new[i]:
                    new[i] = cap
                    binding[i] = l
    return new, binding, collapsed


def _ref_advance_stage(alpha, cache, grid, weights, prev, n, variant, c1=1.0):
    new, binding, collapsed = _ref_stage_caps(alpha, cache, grid, weights,
                                              prev, n, variant)
    radius = math.exp(-(1 << n) * float(weights.c[n]))
    if variant == "annulus":
        radius *= c1 * 2.0 ** (grid.dimension * n)
    merged, merged_arg = [], []
    for i in range(len(grid)):
        j_best = min(_ref_neighbors(grid, i, radius), key=lambda j: new[j])
        merged.append(new[j_best])
        merged_arg.append(binding[j_best])
    if variant == "annulus":
        shrink = 1.0 - float(weights.c[n + 1])
        merged = [min(v * shrink, v) for v in merged]
    return merged, merged_arg, collapsed, radius


def _assert_same_stage(got, want):
    values, args, collapsed, radius = got
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [v.hex() for v in want[0]]
    assert args == want[1]
    for arg in args:
        assert arg is None or all(type(c) is int for c in arg)
    assert collapsed is want[2]
    assert radius.hex() == want[3].hex()


def _compare_stages(alpha, grid, weights, n_max, variant, c1=1.0):
    """Step both solvers from the same values through stages N..n_max-1;
    returns the stages compared and whether any collapsed."""
    oracle = sch.DivisorOracle(alpha)
    cache = {}
    prev = [float(weights.gothic_d)] * len(grid)
    seen_collapse = False
    for n in range(weights.N, n_max):
        want = _ref_advance_stage(alpha, cache, grid, weights, prev, n, variant, c1)
        got = sch.advance_stage(oracle, grid, weights, prev, n, variant, c1)
        _assert_same_stage(got, want)
        seen_collapse = seen_collapse or want[2]
        prev = want[0]
    return seen_collapse


def toy3_state():
    """The state of `construct --mode toy --levels 3`: its alpha is exact,
    with 247- and 978-bit denominators."""
    return con.build(levels=3, mode="toy", schedule=con.GrowthSchedule(
        mode="toy", base=2, exponent_scale=Fraction(1, 8)))


def _alpha_kinds(alpha_mpf):
    """The same vector as mpf, float and Fraction input."""
    floats = tuple(float(a) for a in alpha_mpf)
    return {"mpf": tuple(alpha_mpf), "float": floats,
            "fraction": tuple(Fraction(x) for x in floats)}


@pytest.mark.parametrize("kind", ["mpf", "float", "fraction"])
@pytest.mark.parametrize("variant", ["full_range", "annulus"])
def test_advance_stage_matches_scalar_oracle_d1(kind, variant, golden):
    alpha = _alpha_kinds([golden])[kind]
    w = flat_weights(0.3, count=9, N=1, gothic_d=0.5)
    _compare_stages(alpha, sch.DirectionGrid.pair(), w, 6, variant)


@pytest.mark.parametrize("count, n_max", [(8, 5), (16, 4), (64, 3)])
@pytest.mark.parametrize("kind", ["mpf", "float", "fraction"])
@pytest.mark.parametrize("variant", ["full_range", "annulus"])
def test_advance_stage_matches_scalar_oracle_d2(count, n_max, kind, variant):
    alpha = _alpha_kinds(pair_alpha())[kind]
    w = flat_weights(0.1, count=n_max + 2, N=1, gothic_d=0.4)
    _compare_stages(alpha, sch.DirectionGrid.circle(count), w, n_max, variant)


@pytest.mark.parametrize("box_rows, stage_cells", [(37, sch._STAGE_CELLS),
                                                    (dio._BLOCK, 16 * 5)])
def test_advance_stage_matches_scalar_oracle_across_blocks(monkeypatch, box_rows,
                                                           stage_cells):
    # short scan blocks (37 rows) or short solve steps (5 rows on 16
    # directions) put neighboring modes, and the running minimum, on both
    # sides of many block boundaries
    monkeypatch.setattr(dio, "_BLOCK", box_rows)
    monkeypatch.setattr(sch, "_STAGE_CELLS", stage_cells)
    for kind, alpha in _alpha_kinds(pair_alpha()).items():
        w = sch.dyadic_weight_recipe(pair_alpha(), 5, gothic_d=0.4, N=2)
        _compare_stages(alpha, sch.DirectionGrid.circle(16), w, 5, "full_range")


def test_advance_stage_matches_scalar_oracle_constructed():
    # exact input with large denominators, read with the recipe that the
    # README's constructed schedule uses
    st = toy3_state()
    w = sch.construction_weights(st, n_max=6, gothic_d=0.4, N=3)
    _compare_stages(con.alpha_approx(st), sch.DirectionGrid.circle(16), w, 6,
                    "full_range")


def test_advance_stage_matches_scalar_oracle_on_collapse():
    # underdamped weights: an orthogonal mode's constraint becomes infeasible
    for alpha in _alpha_kinds(pair_alpha()).values():
        w = flat_weights(0.02, count=8, gothic_d=0.4)
        assert _compare_stages(alpha, sch.DirectionGrid.circle(16), w, 4,
                               "full_range")


def test_stage_caps_tie_keeps_first_mode(monkeypatch):
    # alpha = (1/10, 1/2 + 1/q): ||alpha.(5, -1)|| = ||alpha.(5, 1)|| = 1/q,
    # the smallest divisor of the stage (the relation alpha.(10, 0) = 1 sits
    # outside the box |l| <= 8).  On circle(4) both modes have the same dots
    # and budget at beta = (1, 0) and (-1, 0), so their caps tie there; the
    # loop keeps the first in scan order, (5, -1).  Blocks of one row put
    # the two modes in different blocks.
    q = 10 ** 40
    alpha = (Fraction(1, 10), Fraction(1, 2) + Fraction(1, q))
    grid = sch.DirectionGrid.circle(4)
    w = flat_weights(0.1, count=4, gothic_d=1.0)
    oracle = sch.DivisorOracle(alpha)
    assert oracle.log_inv((5, -1)) == oracle.log_inv((5, 1))
    prev = [4.0] * 4
    want = _ref_stage_caps(alpha, {}, grid, w, prev, 2, "full_range")
    assert want[1][0] == want[1][2] == (5, -1)
    for block_rows in (dio._BLOCK, 1):
        monkeypatch.setattr(dio, "_BLOCK", block_rows)
        values, binding, collapsed = sch._stage_caps(
            sch.DivisorOracle(alpha), grid, w, prev, 2, "full_range")
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in want[0]]
        assert binding == want[1] and collapsed is want[2]
        _assert_same_stage(
            sch.advance_stage(sch.DivisorOracle(alpha), grid, w, prev, 2),
            _ref_advance_stage(alpha, {}, grid, w, prev, 2, "full_range"))


def test_stage_caps_collapse_on_a_mode_that_binds_nowhere():
    # alpha = (1/10, 1/2 + 1/q) on circle(4), the stage-2 values small along
    # the first axis: (1, 0) has a negative budget and is orthogonal to
    # (0, 1), so the stage collapses, yet (5, -1), with
    # ||alpha.(5, -1)|| = 1/q, has the lower cap in every direction.  The
    # filter clears (1, 0) of resonance: only its orthogonality sends it to
    # the exact route
    q = 10 ** 20
    alpha = (Fraction(1, 10), Fraction(1, 2) + Fraction(1, q))
    grid = sch.DirectionGrid.circle(4)
    w = flat_weights(0.1, count=4, gothic_d=1.0)
    prev = [0.1, 4.0, 0.1, 4.0]
    want = _ref_stage_caps(alpha, {}, grid, w, prev, 2, "full_range")
    assert want[1] == [(5, -1)] * 4 and want[2] is True
    oracle = sch.DivisorOracle(alpha)
    lo, _ = oracle.log_inv_bounds(8)(np.array([[1, 0]]))
    assert np.isfinite(lo).all()
    values, binding, collapsed = sch._stage_caps(oracle, grid, w, prev, 2,
                                                 "full_range")
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in want[0]]
    assert binding == want[1] and collapsed is True


def test_stage_caps_with_point_log_intervals(monkeypatch):
    # ties count as candidates: with every log interval shrunk to the exact
    # log_inv, each cap interval is the cap itself, and a block's minimizer
    # has cap_lo == bar
    alpha = pair_alpha()
    grid = sch.DirectionGrid.circle(16)
    w = sch.dyadic_weight_recipe(alpha, 5, gothic_d=0.4, N=2)
    exact = sch.DivisorOracle(alpha)

    def point(block):
        vals = np.array([exact.log_inv(l) for l in block.tolist()])
        return vals, vals

    oracle = sch.DivisorOracle(alpha)
    monkeypatch.setattr(oracle, "log_inv_bounds", lambda N: point)
    prev, cache = [0.4] * len(grid), {}
    for n in range(2, 5):
        want = _ref_stage_caps(alpha, cache, grid, w, prev, n, "full_range")
        values, binding, collapsed = sch._stage_caps(oracle, grid, w, prev, n,
                                                     "full_range")
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in want[0]]
        assert binding == want[1] and collapsed is want[2]
        prev = want[0]


def test_neighborhood_minimum_tie_keeps_first_direction(monkeypatch):
    # no reachable input ties two neighbors with different binding modes, so
    # the merge is fed designed caps: directions 1 and 2 tie at 0.5
    grid = sch.DirectionGrid.circle(4)
    w = flat_weights(0.1, count=4)
    caps = np.array([1.0, 0.5, 0.5, 1.0])
    binding = [None, (1, 0), (2, 0), None]
    monkeypatch.setattr(sch, "_stage_caps", lambda *args: (caps, binding, False))
    values, args, _, radius = sch.advance_stage(None, grid, w, [1.0] * 4, 0)
    want = [min(_ref_neighbors(grid, i, radius), key=lambda j: caps[j])
            for i in range(4)]
    assert want == [1, 1, 1, 2]
    assert args == [binding[j] for j in want]
    assert values == [caps[j] for j in want]


@pytest.mark.parametrize("alpha", [
    (Fraction(1, 3), Fraction(1, 5)),
    (1 / 3, 0.2),
    (mpmath.mpf(1) / 3, mpmath.mpf(1) / 5),
], ids=["fraction", "float", "mpf"])
def test_advance_stage_resonance_matches_scalar_oracle(alpha):
    grid = sch.DirectionGrid.circle(8)
    w = flat_weights(0.1, count=8)
    prev = [1.0] * len(grid)
    oracle = sch.DivisorOracle(alpha)
    cache = {}
    for n in range(4):
        try:
            want = _ref_advance_stage(alpha, cache, grid, w, prev, n, "full_range")
        except ResonanceDetected as exc:
            expected = exc
            break
        _assert_same_stage(sch.advance_stage(oracle, grid, w, prev, n), want)
        prev = want[0]
    else:
        pytest.fail("the scalar oracle found no resonance")
    with pytest.raises(ResonanceDetected) as got:
        sch.advance_stage(oracle, grid, w, prev, n)
    assert str(got.value) == str(expected)
    assert got.value.lattice_vector == expected.lattice_vector


@pytest.mark.parametrize("kind", ["mpf", "float", "fraction", "golden", "toy3",
                                  "resonant-fraction", "resonant-float",
                                  "resonant-mpf"])
def test_log_inv_bounds_contain_the_oracle(kind, golden):
    # every mode of the scanned stages: the exact log_inv lies in the
    # filter's interval, and a mode the interval clears of resonance (every
    # mode a stage can skip) is not resonant
    alpha = {**_alpha_kinds(pair_alpha()), "golden": (golden,),
             "toy3": con.alpha_approx(toy3_state()),
             "resonant-fraction": (Fraction(1, 3), Fraction(1, 5)),
             "resonant-float": (1 / 3, 0.2),
             "resonant-mpf": (mpmath.mpf(1) / 3, mpmath.mpf(1) / 5)}[kind]
    oracle = sch.DivisorOracle(alpha)
    eps = dio.resonance_threshold(alpha)
    d = len(alpha)
    cleared_count = resonant_count = 0
    for n in range(10 if d == 1 else 5):
        bounds = oracle.log_inv_bounds(1 << (n + 1))
        for block in sch._stage_blocks(d, n, "full_range", 1 << 12):
            lo, hi = bounds(block)
            cleared = np.isfinite(lo)
            assert (np.isfinite(hi) == cleared).all()
            assert (lo[~cleared] == -np.inf).all() and (hi[~cleared] == np.inf).all()
            cleared_count += int(cleared.sum())
            for l, a, b, ok in zip(map(tuple, block.tolist()), lo.tolist(),
                                   hi.tolist(), cleared.tolist()):
                try:
                    val = oracle.log_inv(l)
                except ResonanceDetected:
                    assert not ok, l
                    resonant_count += 1
                    continue
                assert a <= val <= b, (l, a, val, b)
                if ok:
                    dist = oracle.distance(l)
                    assert dist > 0 and dist >= eps
    assert cleared_count > 0
    assert (resonant_count > 0) == kind.startswith("resonant")


def test_stage_filter_bites_on_readme_schedule():
    # the README `schedule` run: the exact log divisor for a few modes only
    alpha = pair_alpha()
    w = sch.dyadic_weight_recipe(alpha, 6, gothic_d=0.4, N=3)
    s = sch.delta_schedule(alpha, sch.DirectionGrid.circle(16), w, 6)
    assert [e["stage"] for e in s.scan] == [4, 5, 6]
    assert [e["scanned_modes"] for e in s.scan] == [544, 2112, 8320]
    for e in s.scan:
        assert e["exact_modes"] < 0.1 * e["scanned_modes"]


def test_oracle_distance_and_log_inv_match_scalar_oracle():
    alphas = [pair_alpha(), _alpha_kinds(pair_alpha())["float"],
              _alpha_kinds(pair_alpha())["fraction"], (dio.synthetic_liouville(4),),
              (Fraction(3, 1009), Fraction(5, 1013))]
    for alpha in alphas:
        oracle = sch.DivisorOracle(alpha)
        d = len(alpha)
        for block in dio._box_blocks(d, 40 if d == 1 else 9, 1):
            for l in map(tuple, block.tolist()):
                assert oracle.log_inv(l).hex() == _ref_log_inv(alpha, l, {}).hex()
                if oracle.exact:
                    want = dio.nearest_int_distance(
                        sum(a * c for a, c in zip(alpha, l)))
                else:
                    want = dio.nearest_int_distance(
                        mpmath.fsum(to_mpf(a) * c for a, c in zip(alpha, l)))
                if not oracle.float_mode:
                    assert oracle.distance(l) == want
                    assert type(oracle.distance(l)) is type(want)


def test_ortho_snap_norm_matches_hypot():
    # the stage's orthogonality threshold uses sqrt(l1^2 + l2^2) in numpy;
    # over every mode the tests and the CLI reach it equals math.hypot
    ls = np.arange(0, 513, dtype=np.float64)
    for x in range(0, 513):
        fast = np.sqrt(x * x + ls * ls)
        slow = [math.hypot(float(x), y) for y in ls.tolist()]
        assert fast.tolist() == slow


def test_neighborhoods_match_neighbors():
    grid = sch.DirectionGrid.circle(16)
    for radius in (1e-9, 0.3, 0.8, 2.5):
        mask = grid.neighborhoods(radius)
        for i in range(len(grid)):
            assert np.flatnonzero(mask[i]).tolist() == _ref_neighbors(grid, i, radius)


def test_independent_stage_caps_reads_raw_distances_only(monkeypatch, golden):
    def refuse(*args):
        raise AssertionError("the independent caps must not use log_inv")

    cases = [((golden,), sch.DirectionGrid.pair()),
             ((dio.synthetic_liouville(4),), sch.DirectionGrid.pair()),
             (pair_alpha(), sch.DirectionGrid.circle(8))]
    w = flat_weights(0.2, count=6, gothic_d=0.5)
    for alpha, grid in cases:
        want = sch._independent_stage_caps(sch.DivisorOracle(alpha), grid, w,
                                           [0.5] * len(grid), 3, "full_range")
        with monkeypatch.context() as m:
            m.setattr(sch.DivisorOracle, "log_inv", refuse)
            oracle = sch.DivisorOracle(alpha)
            got = sch._independent_stage_caps(oracle, grid, w,
                                              [0.5] * len(grid), 3, "full_range")
        assert got == want
        assert oracle._log_table == {} and oracle._cache


# -- resonance thresholds (module docstring) ----------------------------------

def _raises_resonance(fn):
    try:
        fn()
    except ResonanceDetected:
        return True
    return False


def _oracle_both_paths(alpha):
    """Resonance at l = (1,) through distance() and through log_inv()."""
    return (_raises_resonance(lambda: sch.DivisorOracle(alpha).distance((1,))),
            _raises_resonance(lambda: sch.DivisorOracle(alpha).log_inv((1,))))


def test_resonance_threshold_exact_zero():
    assert _oracle_both_paths((Fraction(1) + Fraction(1, 2 ** 4000),)) == (False, False)
    assert _oracle_both_paths((Fraction(3),)) == (True, True)
    with pytest.raises(ResonanceDetected) as exc:
        dio.omega_min((Fraction(1, 3),), 3)
    assert exc.value.lattice_vector == (3,)


def test_resonance_threshold_float_oracle():
    assert _oracle_both_paths((1e-13,)) == (False, False)
    assert _oracle_both_paths((math.nextafter(1e-13, 0),)) == (True, True)
    assert _oracle_both_paths((-1e-13,)) == (False, False)
    assert _oracle_both_paths((-math.nextafter(1e-13, 0),)) == (True, True)


def test_resonance_threshold_mpf_oracle():
    eps = dio._resonance_eps()
    assert eps == mpmath.ldexp(1, -(mpmath.mp.prec - 16))
    below = eps - mpmath.ldexp(1, -mpmath.mp.prec)
    assert below < eps
    assert _oracle_both_paths((eps,)) == (False, False)
    assert _oracle_both_paths((below,)) == (True, True)


def test_resonance_threshold_solve_cohomological():
    # |e^(2 pi i x) - 1| is the double fl(2 pi x) this close to 0, monotone
    # in x: step to the smallest x whose divisor reaches 1e-13
    def divisor(x):
        return abs(np.exp(2j * np.pi * (1 * x)) - 1.0)

    x = 1e-13 / (2 * math.pi)
    while divisor(x) >= 1e-13:
        x = math.nextafter(x, 0)
    while divisor(x) < 1e-13:
        x = math.nextafter(x, 1)
    df = FourierMap(1, 2, np.zeros((1, 5), dtype=complex))
    kam.solve_cohomological(df, (x,), 1)
    with pytest.raises(ResonanceDetected) as exc:
        kam.solve_cohomological(df, (math.nextafter(x, 0),), 1)
    assert exc.value.lattice_vector == (-1,)


def test_resonance_threshold_by_input_kind():
    assert dio.resonance_threshold((Fraction(1, 3), 2)) == 0
    assert dio.resonance_threshold((0.25, 0.5)) == 1e-13
    assert dio.resonance_threshold((0.25, mpmath.mpf(0.5))) == dio._resonance_eps()


@pytest.mark.parametrize("path", [
    lambda alpha: dio.omega_min(alpha, 1),
    lambda alpha: dio.omega_min_1d(alpha, 1),
    lambda alpha: kam.initial_state(FourierMap.zeros(1, 4), alpha),
], ids=["omega_min", "omega_min_1d", "kam_initial_state"])
def test_resonance_threshold_float_boundary(path):
    # 1e-13 itself passes, the next double below it is resonant
    path((1e-13,))
    with pytest.raises(ResonanceDetected) as exc:
        path((math.nextafter(1e-13, 0),))
    assert exc.value.lattice_vector == (1,)


def test_weight_scans_stop_at_the_largest_radius_read(monkeypatch):
    radii = []
    scan = dio.omega_min

    def recording(alpha, N, *args, **kwargs):
        radii.append(N)
        return scan(alpha, N, *args, **kwargs)

    monkeypatch.setattr(dio, "omega_min", recording)
    monkeypatch.setattr(sch, "omega_min", recording)
    alpha = pair_alpha()
    # c_0..c_5 read Omega(1), ..., Omega(2^5)
    w = sch.dyadic_weight_recipe(alpha, 4)
    assert len(w.c) == 6 and max(radii) == 1 << 5
    # the Bryuno terms k = 1..4 read Omega(2^1), ..., Omega(2^4)
    radii.clear()
    records = []
    dio.bryuno_partial_sum(alpha, 4, records=records)
    assert len(records) == 4 and max(radii) == 1 << 4


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


# -- recipes and 1-D checks --------------------------------------------------

def test_dimension_one_check_golden_all_green(golden):
    rep, details = sch.dimension_one_check([golden], 12)
    assert rep.all_passed(), _failure_lines(rep)
    assert details["inf_delta"] > 0
    drops = [details["schedule"].values[n][0] - details["schedule"].values[n + 1][0]
             for n in range(12)]
    for n, drop in enumerate(drops):
        assert drop <= float(details["budgets"][n]) + 1e-15


def test_dimension_one_check_liouville_divergence():
    liou = dio.synthetic_liouville(4)
    rep, details = sch.dimension_one_check([liou], 16, gothic_d=0.75)
    assert rep.all_passed(), _failure_lines(rep)
    # the budget-drop reference schedule burns through the whole radius
    assert details["cumulative_budget"] > 0.75
    assert details["reference"][-1] < 0
    # and the realized schedule itself dives below zero in range
    assert details["inf_delta"] < 0
    deltas = [row[0] for row in details["schedule"].values]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


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
        k_min, _ = dio._divisor_min(alpha, min(scale, 256),
                                    skip_parallel_to=st.nu[l_of_n],
                                    raise_resonance=False)
        g_inner = math.exp(-scale * w.c[n])
        assert g_inner <= float(k_min) * (1 + 1e-12)
