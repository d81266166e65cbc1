"""Tests for the exact iterative vector construction."""

import random
from dataclasses import astuple, replace
from fractions import Fraction

import mpmath
import pytest

from kamtorus import construction as con
from kamtorus.diophantine import _divisor_min, sup_norm
from kamtorus.errors import ExponentOverflow, ScanTooLarge, SchemaMismatch
from kamtorus.precision import big_gcd, int_divmod, to_mpf, working_precision
from kamtorus.reports import VerificationReport
from kamtorus.serialize import canonical_dumps, int_str


def _failure_lines(rep):
    """The lines of the failed entries of a VerificationReport."""
    return [e.line() for e in rep.entries if e.passed is False]


def toy_schedule(scale="1/8"):
    return con.GrowthSchedule(mode="toy", base=2, exponent_scale=scale)


# -- twist sequence ----------------------------------------------------------

def test_t_sequence_example():
    assert con.t_sequence("0.4", 5).values == (2, 3, 4, 5, 6, 8)


def test_t_sequence_small_exponent_unit_steps():
    ts = con.t_sequence("0.1", 1100)
    for t, t_next in zip(ts.values, ts.values[1:]):
        if t < 1024:
            assert t_next == t + 1
        else:
            assert t_next >= t + 2
    assert ts.values[-1] > 1024


def test_t_sequence_strictly_increasing():
    for theta in ("0.05", "0.25", "0.4", "0.49"):
        ts = con.t_sequence(theta, 30)
        assert all(b > a for a, b in zip(ts.values, ts.values[1:]))


def test_t_sequence_exact_power_boundary():
    # 32**0.4 == 4 exactly; the floor must not wobble with precision
    ts = con.t_sequence("0.4", 60)
    for t, t_next in zip(ts.values, ts.values[1:]):
        if t == 32:
            assert t_next == 36


def test_t_sequence_validation():
    with pytest.raises(ValueError):
        con.t_sequence("0.5", 3)
    with pytest.raises(ValueError):
        con.t_sequence("0", 3)


# -- twist factor ------------------------------------------------------------

def twist_phi(l: int, twist: con.TwistSequence):
    """Twist factor 2 t_n^(tb/2) / (l - t_n) - 1 at the working precision:
    the mpf reference for the exact integer floor `_floor_twist_scaled`."""
    if l < 0:
        raise ValueError("l must be >= 0")
    _, t_n, gap = twist.bracket(l)
    half = to_mpf(twist.theta_bar) / 2
    return 2 * mpmath.power(t_n, half) / gap - 1


def test_twist_phi_start_extension_and_example():
    ts = con.t_sequence("0.4", 8)
    # l = 3 sits in (t_0, t_1]: value 2*2^0.2 - 1
    expected = 2 * mpmath.power(2, mpmath.mpf("0.2")) - 1
    assert abs(twist_phi(3, ts) - expected) < 1e-70
    assert abs(float(twist_phi(3, ts)) - 1.29740) < 1e-5
    # extension below t_0 equals the unit-gap value
    assert twist_phi(0, ts) == twist_phi(1, ts) == twist_phi(2, ts)


def test_twist_phi_unit_gap_events():
    ts = con.t_sequence("0.4", 10)
    for n in range(2, 5):
        t_n = ts.values[n]
        expected = 2 * mpmath.power(t_n, mpmath.mpf("0.2")) - 1
        assert abs(twist_phi(t_n + 1, ts) - expected) < 1e-70


def test_twist_phi_decreasing_within_bracket():
    ts = con.t_sequence("0.45", 40)
    # pick a bracket with a wide gap
    n = len(ts.values) - 2
    t_n, t_next = ts.values[n], ts.values[n + 1]
    vals = [twist_phi(l, ts) for l in range(t_n + 1, t_next + 1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    floor_val = 2 * mpmath.power(t_n, mpmath.mpf("0.225")) / (t_next - t_n) - 1
    assert vals[-1] >= floor_val - mpmath.mpf("1e-60")


# -- seed and level data -----------------------------------------------------

def test_seed_level_zero_direction():
    st = con.ConstructionState.seed()
    assert (st.p[0], st.q[0], st.p_bar[0], st.q_bar[0]) == (1, 100, 1, 101)
    assert st.alpha_pair_at(0) == (Fraction(1, 100), Fraction(1, 101))
    d = con.level_direction_data(st)
    assert d.c == 1
    assert d.nu_tilde == (100, -101)
    assert d.nu == (100, -101)
    assert d.q_tilde == 101


def test_paper_growth_factors_level_zero():
    st = con.build(levels=1)
    a1, a2 = st.a
    assert a1 == 92456120875                      # floor(e**25.25), 11 digits
    assert len(str(a2)) == 32                     # floor(e**(101/(2 log 2)))
    # independent enclosure at doubled precision
    with working_precision(512):
        e1 = mpmath.exp(mpmath.mpf(101) / 4)
        e2 = mpmath.exp(101 / (2 * mpmath.log(2)))
        assert mpmath.floor(e1) == a1
        assert mpmath.floor(e2) == a2


def test_construct_step_update_identities():
    st = con.build(levels=1)
    a1, a2 = st.a
    c0 = st.c[0]
    assert st.q[1] == a1 * 100 * 100 * c0
    assert st.q_bar[1] == a1 * 101 * 101
    assert st.q[2] == a2 * st.q[1]
    assert st.q_bar[2] == (a2 * st.q[1] * st.q_bar[1] + 1) * st.q_bar[1]


def _straight_line_alphas(state):
    """Second, straight-line re-derivation of the alpha sequence from the
    stored c/a factors, using only Fraction arithmetic."""
    a1 = [Fraction(state.p[0], state.q[0])]
    a2 = [Fraction(state.p_bar[0], state.q_bar[0])]
    q = [state.q[0]]
    qb = [state.q_bar[0]]
    for l in range(state.level):
        a_odd, a_even = state.a[2 * l], state.a[2 * l + 1]
        c = state.c[l]
        a1.append(a1[-1] + Fraction(1, a_odd * q[2 * l] * c))
        a2.append(a2[-1] + Fraction(1, a_odd * qb[2 * l]))
        q.append(a_odd * q[2 * l] ** 2 * c)
        qb.append(a_odd * qb[2 * l] ** 2)
        a1.append(a1[-1] + Fraction(1, a_even))
        a2.append(a2[-1] + Fraction(1, a_even * q[2 * l + 1] * qb[2 * l + 1] + 1))
        q.append(a_even * q[2 * l + 1])
        qb.append((a_even * q[2 * l + 1] * qb[2 * l + 1] + 1) * qb[2 * l + 1])
    return a1, a2, q, qb


@pytest.mark.parametrize("mode,levels", [("paper", 1), ("toy", 3)])
def test_dual_implementation_oracle(mode, levels):
    sched = con.GrowthSchedule(mode=mode) if mode == "paper" else toy_schedule()
    st = con.build(levels=levels, schedule=sched)
    a1, a2, q, qb = _straight_line_alphas(st)
    assert q == list(st.q) and qb == list(st.q_bar)
    for k in range(2 * levels + 1):
        x1, x2 = st.alpha_pair_at(k)
        assert x1 == a1[k] and x2 == a2[k]


def test_direction_floor_is_exact():
    # c(l) must satisfy c <= (qbar/q) * phi(l) < c + 1 with clear margin
    st = con.build(levels=3, schedule=toy_schedule())
    for l in range(3):
        d = st.direction(l)
        with working_precision(4 * max(64, st.c[l].bit_length() + 64)):
            phi = twist_phi(l, st.twist)
            val = mpmath.mpf(st.q_bar[2 * l]) / st.q[2 * l] * phi
            assert mpmath.floor(val) == st.c[l]


def test_alpha_strictly_increasing_exact():
    st = con.build(levels=3, schedule=toy_schedule())
    for k in range(2 * st.level):
        lo1, lo2 = st.alpha_pair_at(k)
        hi1, hi2 = st.alpha_pair_at(k + 1)
        assert hi1 > lo1 and hi2 > lo2


def test_build_takes_its_mode_from_the_schedule():
    # the state of the former explicit build(levels=2, mode="toy") call,
    # whose toy defaults are base 2 and exponent scale 1/8
    st = con.build(levels=2, schedule=con.GrowthSchedule(mode="toy"))
    assert (st.mode, st.level, st.theta_bar) == ("toy", 2, Fraction(2, 5))
    assert st.a == (1, 1, 2, 12) and st.c == (1, 135007623)
    assert st.q == (100, 10000, 10000, 27001524600000000, 324018295200000000)
    assert st.p == (1, 200, 10200, 27541555092010000, 357500185704120000)
    assert st.q_bar == (
        101, 10201, 1040604020201, 2165713453716966432160802,
        1519747793656520582995960142338938423992480031612862990787232160802)
    assert st.p_bar == (
        1, 202, 20606030403, 42885436156532268362207,
        30094030614728364604701314266655810727223457276991801631500523009)
    assert st.nu == st.nu_tilde == ((100, -101), (1350076230000, -1040604020201))
    assert st.q_tilde == (101, 1350076230000) and st.q_bar_minus1 == 1
    assert st.twist.values == (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 19, 22, 25,
                               28, 31, 34, 38)
    assert con.build(levels=1).mode == "paper"
    with pytest.raises(TypeError):
        con.build(levels=1, mode="toy")
    # a direct caller of construct_step still has its mode checked
    with pytest.raises(ValueError, match="schedule mode 'toy' != state mode 'paper'"):
        con.construct_step(con.build(levels=0), con.GrowthSchedule(mode="toy"))


def test_paper_mode_overflow_frontier():
    st = con.build(levels=1)
    with pytest.raises(ExponentOverflow) as exc:
        con.construct_step(st, con.GrowthSchedule(mode="paper"))
    assert exc.value.exponent is not None


def test_precision_independence_of_integers():
    with working_precision(256):
        lo = con.build(levels=1)
        lo_dir = con.level_direction_data(lo)
    with working_precision(512):
        hi = con.build(levels=1)
        hi_dir = con.level_direction_data(hi)
    assert lo.q == hi.q and lo.q_bar == hi.q_bar
    assert lo.p == hi.p and lo.p_bar == hi.p_bar
    assert lo.a == hi.a and lo.c == hi.c
    assert lo_dir == hi_dir


# -- verification reports ----------------------------------------------------

def test_verify_construction_paper_green():
    st = con.build(levels=1)
    rep = con.verify_construction(st)
    assert rep.all_passed(), _failure_lines(rep)
    names = {e.name for e in rep.entries}
    assert {"growth_sandwich_lower", "growth_sandwich_upper", "even_gcd_bound",
            "convergent_gcd_divides", "direction_size_bound",
            "direction_coprime", "tail_bound", "cofactor_coprime"} <= names


def test_verify_construction_toy_six_levels_coprime():
    st = con.build(levels=6, schedule=toy_schedule())
    rep = con.verify_construction(st)
    coprime = [e for e in rep.entries if e.name == "direction_coprime"]
    assert len(coprime) == 7  # levels 0..6 (current level included)
    assert all(e.passed for e in coprime)
    assert rep.all_passed(), _failure_lines(rep)


def test_verify_construction_degenerate_seed_flagged():
    st = con.ConstructionState.seed(q0=100, q0_bar=100)
    rep = con.verify_construction(st)
    assert not rep.all_passed()
    assert any(e.name == "seed_ordering" and e.passed is False for e in rep.entries)


def _direct_verify_construction(state):
    """`verify_construction` by its direct formulas: approximants as
    `alpha_pair_at` Fractions, every power by `**` where it is used, and
    the coprimality gcd as `big_gcd(*nu)`."""
    rep = VerificationReport("construction checks", con._report_header(state))
    ratio = con._fraction_ratio_str
    toy = state.mode == "toy"
    rep.add("seed_ordering", "level 0", state.q[0] < state.q_bar[0],
            margin=f"q_bar0 - q0 = {state.q_bar[0] - state.q[0]}")
    g0 = big_gcd(state.q[0], state.q_bar[0])
    rep.add("seed_gcd", "level 0", g0 <= state.q_bar_minus1, margin=f"gcd = {g0}")
    qb_prev = lambda l: state.q_bar[2 * l - 1] if l >= 1 else state.q_bar_minus1
    for l in range(1, state.level + 1):
        q, qb, qbp = state.q[2 * l], state.q_bar[2 * l], state.q_bar[2 * l - 1]
        hi_ok = qb <= q * qbp ** 4
        rep.add("growth_sandwich_lower", f"level {l}", qbp * qbp * q <= qb,
                margin=ratio(qb, qbp * qbp * q))
        rep.add("growth_sandwich_upper", f"level {l}", hi_ok,
                margin=ratio(q * qbp ** 4, qb),
                note="toy-scale, not paper-rate" if toy and not hi_ok else "")
        g = big_gcd(q, qb)
        rep.add("even_gcd_bound", f"level {l}", g <= qbp, margin=f"gcd = {int_str(g)}")
    for k in range(1, 2 * state.level + 1):
        g1 = big_gcd(state.q[k], state.p[k])
        g2 = big_gcd(state.q_bar[k], state.p_bar[k])
        ok = (int_divmod(state.q[k - 1] ** 2, g1)[1] == 0
              and int_divmod(state.q_bar[k - 1] ** 2, g2)[1] == 0)
        rep.add("convergent_gcd_divides", f"index {k}", ok,
                margin=f"gcd = {int_str(g1)}, gcd_bar = {int_str(g2)}")
        rep.add("convergent_gcd_linear", f"index {k}", None,
                margin=f"gcd/q_prev = {ratio(g1, state.q[k - 1])}, "
                       f"gcd_bar/q_bar_prev = {ratio(g2, state.q_bar[k - 1])}")
    for l in range(state.level + 1):
        try:
            data = state.direction(l)
        except (ValueError, ExponentOverflow) as exc:
            rep.add("direction_data", f"level {l}", None, note=str(exc))
            continue
        bound_num = sup_norm(data.nu_tilde)
        bound_den = 2 * max(l, 1) * qb_prev(l) ** 5
        rep.add("direction_size_bound", f"level {l}",
                data.q_tilde * bound_den >= bound_num,
                margin=ratio(data.q_tilde * bound_den, bound_num),
                note="factor max(l,1) substituted at l = 0")
        margins = [f"prev: {ratio(2 * max(l, 1) * qb_prev(l) ** 4, data.c)}"]
        if 2 * l + 1 < len(state.q_bar):
            margins.append(f"next: {ratio(2 * max(l, 1) * state.q_bar[2 * l + 1] ** 4, data.c)}")
        rep.add("twist_factor_bound", f"level {l}", None, margin="; ".join(margins),
                note="both exponent-index variants reported")
        g = big_gcd(*data.nu)
        rep.add("direction_coprime", f"level {l}", g == 1, margin=f"gcd = {g}")
    for l in range(state.level):
        a_even = state.a[2 * l + 1]
        cof = a_even * state.q[2 * l + 1] * state.q_bar[2 * l + 1] + 1
        rep.add("cofactor_coprime", f"level {l}", big_gcd(a_even, cof) == 1)
    pairs = [state.alpha_pair_at(k) for k in range(2 * state.level + 1)]
    deep1, deep2 = pairs[-1]
    for l in range(state.level):
        a1, a2 = pairs[2 * l + 1]
        bound = Fraction(2, state.a[2 * l + 1])
        tail1 = abs(deep1 - a1)
        rep.add("tail_bound", f"level {l}", tail1 <= bound and abs(deep2 - a2) <= bound,
                margin=ratio(tail1.numerator * bound.denominator,
                             tail1.denominator * bound.numerator),
                note="proxy limit = deepest approximant" + ("; toy-scale" if toy else ""))
    squares_ok = all(state.a[j + 1] > state.a[j] ** 2 for j in range(len(state.a) - 1))
    rep.add("factor_squares", "all indices", squares_ok if not toy else None,
            note="a_{j+1} > a_j^2" + ("; informational in toy mode" if toy else ""))
    rep.add("approximants_increasing", "all indices",
            all(c1 > b1 and c2 > b2 for (b1, b2), (c1, c2) in zip(pairs, pairs[1:])))
    return rep


def _oracle_state(case):
    if case == "paper-1":
        return con.build(levels=1)
    levels, q0 = {"toy-4": (4, 100), "toy-6-q100": (6, 100), "toy-6-q103": (6, 103),
                  "toy-4-nu-doubled": (4, 100), "toy-4-p3-plus-1": (4, 100),
                  "toy-4-pbar3-plus-qbar3": (4, 100)}[case]
    st = con.build(levels=levels, schedule=toy_schedule(),
                   q0=q0, q0_bar=q0 + 1)
    if case == "toy-4-nu-doubled":
        nu = list(st.nu)
        nu[2] = (2 * nu[2][0], 2 * nu[2][1])
        return replace(st, nu=tuple(nu))
    if case == "toy-4-p3-plus-1":
        return replace(st, p=st.p[:3] + (st.p[3] + 1,) + st.p[4:])
    if case == "toy-4-pbar3-plus-qbar3":
        # alpha_2 at index 3 moved up by one: its tail and the monotonicity fail
        return replace(st, p_bar=st.p_bar[:3] + (st.p_bar[3] + st.q_bar[3],) + st.p_bar[4:])
    return st


@pytest.mark.parametrize("case", ["paper-1", "toy-4", "toy-6-q100", "toy-6-q103",
                                  "toy-4-nu-doubled", "toy-4-p3-plus-1",
                                  "toy-4-pbar3-plus-qbar3"])
def test_verify_construction_matches_direct_formulas(case):
    st = _oracle_state(case)
    want = [astuple(e) for e in _direct_verify_construction(st).entries]
    got = [astuple(e) for e in con.verify_construction(st).entries]
    assert got == want
    failed = {name for name, _, passed, _, _ in want if passed is False}
    assert failed == {"toy-4-nu-doubled": {"direction_coprime"},
                      "toy-4-pbar3-plus-qbar3": {"tail_bound", "approximants_increasing"},
                      }.get(case, set())
    if case == "toy-4-p3-plus-1":
        # the corrupted numerator moves the convergent gcds; the tail and
        # monotonicity entries read the moved approximant too, but 1/q_3 is
        # far below the seven digits of the tail margin
        clean = {(e[0], e[1]): e for e in
                 map(astuple, con.verify_construction(_oracle_state("toy-4")).entries)}
        moved = {e[:2] for e in want if clean[e[0], e[1]] != e}
        assert moved == {("convergent_gcd_divides", "index 3"),
                         ("convergent_gcd_linear", "index 3")}


def test_lowest_difference_matches_fraction_sub():
    # coprime denominators, a common factor cancelled by the cross term or
    # not, and some operands of 30,000 bits
    rng = random.Random(24)
    for i in range(600):
        bits = 30000 if i % 50 == 0 else rng.randint(1, 200)
        shared = rng.getrandbits(bits) | 1
        x = Fraction(rng.randint(-1 << bits, 1 << bits), shared * rng.randint(1, 99))
        y = Fraction(rng.getrandbits(bits), shared * rng.randint(1, 99) if i % 3 else 1)
        diff = x - y
        got = con._lowest_difference(x.numerator, x.denominator,
                                     y.numerator, y.denominator)
        assert got == (diff.numerator, diff.denominator)


def test_divisor_bounds_paper_level_zero():
    st = con.build(levels=1)
    rep = con.verify_divisor_bounds(st, 0)
    assert rep.all_passed(), _failure_lines(rep)
    argmin = next(e for e in rep.entries if e.name == "argmin_is_direction")
    assert argmin.passed


def test_divisor_bounds_guard_and_preconditions():
    st = con.build(levels=2, schedule=toy_schedule())
    with pytest.raises(ScanTooLarge):
        con.verify_divisor_bounds(st, 1)   # q_tilde(1) ~ 1e12
    with pytest.raises(ValueError):
        con.verify_divisor_bounds(st, 2)   # needs growth factors of level 2


def test_divisor_bounds_toy_level_zero_and_rays():
    # divisor ordering is a paper-rate property, so toy entries are
    # measurements; the exact lower bound and the band entries still assert
    st = con.build(levels=3, schedule=toy_schedule("1"))
    rep = con.verify_divisor_bounds(st, 0)
    assert rep.all_passed(), _failure_lines(rep)
    lower = next(e for e in rep.entries if e.name == "omega_lower_bound")
    assert lower.passed is True
    measured = [e for e in rep.entries
                if e.name in ("argmin_is_direction", "parallel_strictly_smallest")]
    assert measured and all(e.passed is None for e in measured)
    # ray entries exist at deeper levels without any area scan
    rep2 = con.VerificationReport("rays", {})
    con._ray_entries(rep2, st, 1, ray_cap=16)
    assert rep2.entries


def test_argmin_stable_between_consecutive_even_approximants():
    # the divisor landscape at scale q_tilde(0) settles once the level-0
    # factors are in: consecutive even approximants share the minimizer
    st = con.build(levels=2, schedule=toy_schedule("1"))
    omega2, arg2 = _divisor_min(st.alpha_pair_at(2), 101, raise_resonance=False)
    omega4, arg4 = _divisor_min(st.alpha_pair_at(4), 101, raise_resonance=False)
    assert arg2 == arg4
    diff = abs(omega2 - omega4)
    assert diff <= Fraction(4 * 101, st.a[2])


def test_odd_approximant_resonant_by_construction():
    # the odd approximant is built to annihilate the direction vector exactly
    st = con.build(levels=1)
    a1, a2 = st.alpha_pair_at(1)
    value = a1 * 100 - a2 * 101
    assert value == value.__floor__()  # alpha_{.,1} . nu(0) is an exact integer


def test_verify_criteria_toy():
    st = con.build(levels=4, schedule=toy_schedule("1"))
    rep = con.verify_criteria(st, max_scale=128)
    assert rep.all_passed(), _failure_lines(rep)
    growth = [e for e in rep.entries if e.name == "scale_growth"]
    assert len(growth) == 3 and all(e.passed for e in growth)
    bands = [e for e in rep.entries if e.name == "loss_rate_band"]
    assert len(bands) == 4 and all(e.passed for e in bands)


def test_verify_criteria_insufficient_levels():
    st = con.build(levels=1)
    rep = con.verify_criteria(st, max_scale=16)
    assert any(e.name == "levels" and "insufficient" in e.note for e in rep.entries)


def test_verify_criteria_guard():
    st = con.build(levels=2, schedule=toy_schedule())
    with pytest.raises(ScanTooLarge):
        con.verify_criteria(st, max_scale=10 ** 6)


# -- serialization -----------------------------------------------------------

def test_state_round_trip_exact():
    st = con.build(levels=3, schedule=toy_schedule())
    data = con.state_to_jsonable(st)
    clone = con.state_from_jsonable(data)
    assert clone == st
    assert canonical_dumps(con.state_to_jsonable(clone)) == canonical_dumps(data)


def test_state_round_trip_paper():
    st = con.build(levels=1)
    clone = con.state_from_jsonable(con.state_to_jsonable(st))
    assert clone == st


def test_state_format_rejected():
    with pytest.raises(SchemaMismatch):
        con.state_from_jsonable({"format": "bogus"})
    with pytest.raises(SchemaMismatch, match="got None"):
        con.state_from_jsonable([con.STATE_FORMAT])


@pytest.mark.parametrize("key", ["theta_bar", "twist_values", "mode", "level",
                                 "q", "nu", "q_bar_minus1"])
def test_state_missing_key_named(key):
    data = con.state_to_jsonable(con.build(levels=1, schedule=toy_schedule()))
    del data[key]
    with pytest.raises(SchemaMismatch, match=f"lacks key '{key}'"):
        con.state_from_jsonable(data)
