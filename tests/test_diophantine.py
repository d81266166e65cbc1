"""Tests for nearest-integer distance, continued fractions and Omega scans."""

import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kamtorus import construction as con
from kamtorus import diophantine as dio
from kamtorus.errors import RationalTruncation, ResonanceDetected
from kamtorus.precision import to_mpf, working_precision


def test_nearest_int_distance_basics():
    assert dio.nearest_int_distance(Fraction(3, 10)) == Fraction(3, 10)
    assert dio.nearest_int_distance(Fraction(-1, 5)) == Fraction(1, 5)
    assert dio.nearest_int_distance(5) == 0
    assert abs(dio.nearest_int_distance(mpmath.mpf("0.3")) - mpmath.mpf("0.3")) < 1e-70


def test_nearest_int_distance_range_and_half():
    assert dio.nearest_int_distance(Fraction(1, 2)) == Fraction(1, 2)
    assert dio.nearest_int_distance(Fraction(7, 2)) == Fraction(1, 2)
    assert dio.nearest_int_distance(Fraction(99, 100)) == Fraction(1, 100)


@given(st.fractions(min_value=-50, max_value=50))
def test_nearest_int_distance_symmetries_exact(x):
    d = dio.nearest_int_distance(x)
    assert 0 <= d <= Fraction(1, 2)
    assert dio.nearest_int_distance(x + 1) == d
    assert dio.nearest_int_distance(-x) == d


def test_nearest_int_symmetries_mpf_bulk():
    # 10^4 pseudo-random binary rationals: exact at working precision, so
    # periodicity and evenness must hold with zero error.
    rng_state = 0x2545F4914F6CDD1D
    for _ in range(10_000):
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        x = mpmath.ldexp(rng_state >> 16, -40)  # 48-bit mantissa, representable
        d = dio.nearest_int_distance(x)
        assert dio.nearest_int_distance(x + 1) == d
        assert dio.nearest_int_distance(-x) == d


def test_continued_fraction_golden(golden):
    cf = dio.continued_fraction(golden, 5)
    assert cf.quotients == (1, 1, 1, 1, 1)
    assert cf.denominators == (1, 2, 3, 5, 8)
    assert cf.numerators == (1, 1, 2, 3, 5)


def test_continued_fraction_sqrt2():
    cf = dio.continued_fraction(mpmath.sqrt(2) - 1, 4)
    assert cf.quotients == (2, 2, 2, 2)


def test_continued_fraction_rational_input():
    with pytest.raises(RationalTruncation):
        dio.continued_fraction(Fraction(1, 2), 2)
    with pytest.raises(RationalTruncation):
        dio.continued_fraction(mpmath.mpf("0.5"), 2)


def test_convergent_recurrence_exact(golden):
    cf = dio.continued_fraction(golden, 25)
    q = (0, 1) + cf.denominators  # q_{-1}, q_0, q_1, ...
    p = (1, cf.integer_part) + cf.numerators
    for k in range(2, len(q)):
        a = cf.quotients[k - 2]
        assert q[k] == a * q[k - 1] + q[k - 2]
        assert p[k] == a * p[k - 1] + p[k - 2]
    assert all(q2 > q1 for q1, q2 in zip(cf.denominators, cf.denominators[1:]))


def test_convergents_alternate_around_input(golden):
    cf = dio.continued_fraction(golden, 10)
    signs = [mpmath.sign(cf.numerators[k] - golden * cf.denominators[k])
             for k in range(10)]
    assert all(s1 * s2 < 0 for s1, s2 in zip(signs, signs[1:]))


def test_bryuno_1d_golden_closed_form(golden):
    # All remainders equal (sqrt(5)-1)/2 =: a, so the series is geometric:
    # sum_n a^n log(1/a) = log(1/a)/(1-a).
    b, qsum = dio.bryuno_1d(golden, 30)
    closed = mpmath.log(1 / golden) / (1 - golden)
    assert abs(b - closed) < 1e-6
    assert qsum > 0


def test_bryuno_1d_monotone_in_depth(golden):
    b1, q1 = dio.bryuno_1d(golden, 1)
    b2, q2 = dio.bryuno_1d(golden, 2)
    assert b2 >= b1 > 0
    assert q2 >= q1 >= 0  # first q-term is log(q_1)/q_0 = 0 for the golden number


def test_bryuno_1d_rational():
    with pytest.raises(RationalTruncation):
        dio.bryuno_1d(mpmath.mpf("0.5"), 3)


def test_omega_min_golden_1d(golden):
    rec = dio.omega_min([golden], 2)
    assert rec.argmin == (2,)
    assert abs(rec.value_mpf() - mpmath.mpf("0.2360679774997896")) < 1e-12


def test_omega_min_pair():
    alpha = [mpmath.sqrt(2) - 1, mpmath.sqrt(3) - 1]
    rec = dio.omega_min(alpha, 1)
    assert rec.argmin == (1, 1)
    assert abs(rec.value_mpf() - mpmath.mpf("0.1462643699419723")) < 1e-12


def test_omega_min_upper_bounded_by_first_component(golden):
    alpha = [golden, mpmath.sqrt(2) - 1]
    rec = dio.omega_min(alpha, 1)
    assert rec.value_mpf() <= dio.nearest_int_distance(golden)


def test_omega_min_nonincreasing_and_recomputable(golden):
    alpha = [golden, mpmath.sqrt(2) - 1]
    values = []
    for N in (1, 2, 4, 8, 16):
        rec = dio.omega_min(alpha, N)
        values.append(rec.value_mpf())
        direct = dio.nearest_int_distance(
            mpmath.fsum(c * a for c, a in zip(rec.argmin, alpha)))
        assert direct == rec.value
        assert dio.sup_norm(rec.argmin) <= N
    assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))


def test_omega_min_exact_rational_vector():
    alpha = [Fraction(1, 100), Fraction(1, 101)]
    rec = dio.omega_min(alpha, 3)
    assert isinstance(rec.value, Fraction)
    # check against a direct rescan
    best = min(
        dio.nearest_int_distance(l1 * alpha[0] + l2 * alpha[1])
        for l1 in range(-3, 4) for l2 in range(-3, 4) if (l1, l2) != (0, 0))
    assert rec.value == best


def test_omega_min_resonance():
    with pytest.raises(ResonanceDetected):
        dio.omega_min([Fraction(1, 3), Fraction(2, 3)], 3)


def test_omega_min_1d_fast_path_agrees_with_scan(golden):
    for N in (1, 2, 3, 5, 8, 13, 21, 55):
        fast = dio.omega_min_1d([golden], N)
        scan = dio.omega_min([golden], N)
        assert fast.argmin == scan.argmin
        assert fast.value == scan.value


def test_omega_equals_convergent_identity(golden):
    # ||q_k alpha|| agrees with |q_k alpha - p_k| to within 2 ulp at scale q_k.
    cf = dio.continued_fraction(golden, 12)
    for k in range(1, 13):
        q, p = cf.denominators[k - 1], cf.numerators[k - 1]
        lhs = dio.nearest_int_distance(golden * q)
        rhs = abs(golden * q - p)
        assert abs(lhs - rhs) <= 2 * mpmath.ldexp(abs(rhs), -mpmath.mp.prec + 1)
        rec = dio.omega_min([golden], q)
        assert rec.argmin == (q,)


def test_bryuno_partial_sum_matches_per_term(golden):
    alpha = [golden, mpmath.sqrt(2) - 1]
    records = []
    total = dio.bryuno_partial_sum(alpha, 6, records=records)
    assert total > 0 and mpmath.isfinite(total)
    recomputed = mpmath.fsum(
        mpmath.log(1 / dio.omega_min(alpha, 1 << k).value_mpf()) / (1 << k)
        for k in range(1, 7))
    assert abs(total - recomputed) < 1e-60
    for k, rec in zip(range(1, 7), records):
        fresh = dio.omega_min(alpha, 1 << k)
        assert fresh.value == rec.value and fresh.argmin == rec.argmin


def test_bryuno_partial_sum_telescopes(golden):
    alpha = [golden]
    s4 = dio.bryuno_partial_sum(alpha, 4)
    s5 = dio.bryuno_partial_sum(alpha, 5)
    term5 = mpmath.log(1 / dio.omega_min(alpha, 32).value_mpf()) / 32
    assert abs((s5 - s4) - term5) < 1e-70


def test_single_term_partial_sum(golden):
    alpha = [golden]
    s1 = dio.bryuno_partial_sum(alpha, 1)
    assert abs(s1 - mpmath.log(1 / dio.omega_min(alpha, 2).value_mpf()) / 2) < 1e-70


def test_precision_is_recorded(golden):
    with working_precision(128):
        rec = dio.omega_min([golden], 2)
        assert rec.precision_bits == 128
        cf = dio.continued_fraction(golden, 3)
        assert cf.precision_bits == 128


# ---------------------------------------------------------------------------
# the filter-then-certify kernel against an exhaustive oracle


def _canonical_vectors(d: int, N: int, lower: int = 1):
    """Nonzero l with lower <= |l|_sup <= N, first nonzero entry > 0, lex order."""
    for l in itertools.product(range(-N, N + 1), repeat=d):
        m = max(abs(c) for c in l)
        if m < lower or m > N:
            continue
        leading = next((c for c in l if c != 0), 0)
        if leading > 0:
            yield l


def _oracle(alpha, N, lower=1, skip_parallel_to=None):
    """Scan every canonical vector: (value, argmin), or ("resonant", l) for
    the first resonant l.  Exact input is summed as Fractions, not through
    the kernel's common-denominator integers."""
    exact = all(isinstance(a, (Fraction, int)) for a in alpha)
    values = alpha if exact else [to_mpf(a) for a in alpha]
    eps = dio._resonance_eps()
    nu = skip_parallel_to
    best = arg = None
    for l in _canonical_vectors(len(alpha), N, lower):
        if nu is not None and all(l[i] * nu[j] == l[j] * nu[i]
                                  for i in range(len(l)) for j in range(i)):
            continue
        if exact:
            dist = dio.nearest_int_distance(sum(c * a for c, a in zip(l, values)))
            if dist == 0:
                return "resonant", l
        else:
            dist = dio.nearest_int_distance(mpmath.fsum(c * a for c, a in zip(l, values)))
            if dist < eps:
                return "resonant", l
        if best is None or dist < best:
            best, arg = dist, l
    return best, arg


def _kernel(alpha, N, lower=1, skip_parallel_to=None):
    try:
        return dio._divisor_min(alpha, N, lower, skip_parallel_to=skip_parallel_to)
    except ResonanceDetected as exc:
        return "resonant", exc.lattice_vector


def _frac(x, bits=60):
    """A Fraction near the mpf x with a denominator of about `bits` bits."""
    return Fraction(int(mpmath.floor(x * 2 ** bits)), 2 ** bits + 1)


_SQ2, _SQ3, _SQ5 = (mpmath.sqrt(p) - int(mpmath.sqrt(p)) for p in (2, 3, 5))


@pytest.mark.parametrize("d,N,lower,block", [
    (1, 9, 1, 4), (1, 9, 5, 1), (2, 6, 1, 7), (2, 6, 4, 16), (3, 3, 1, 10),
    (3, 4, 3, 64), (2, 5, 1, 1 << 14)])
def test_box_blocks_enumerate_canonical_vectors(monkeypatch, d, N, lower, block):
    monkeypatch.setattr(dio, "_BLOCK", block)
    blocks = list(dio._box_blocks(d, N, lower))
    assert all(len(b) <= block for b in blocks)
    rows = [tuple(r) for b in blocks for r in b.tolist()]
    assert rows == list(_canonical_vectors(d, N, lower))


@pytest.mark.parametrize("alpha,N,lower", [
    ([_SQ2], 200, 1),
    ([_SQ2, _SQ3], 40, 1),
    ([_SQ2, _SQ3], 32, 17),
    ([_SQ2, _SQ3, _SQ5], 6, 1),
    ([_SQ2, _SQ3, _SQ5], 6, 4),
    ([_frac(_SQ2)], 300, 1),
    ([_frac(_SQ2), _frac(_SQ5, 90)], 30, 1),
    ([_frac(_SQ2), _frac(_SQ5, 90)], 30, 11),
    ([_frac(_SQ2), _frac(_SQ3), _frac(_SQ5)], 5, 1),
    ([_frac(_SQ2), _frac(_SQ3), _frac(_SQ5)], 5, 3),
    ([Fraction(7, 3), -_frac(_SQ3), 2], 4, 1),
    ([mpmath.mpf(5) + _SQ2, -_SQ3], 20, 1),
])
def test_divisor_min_matches_exhaustive_scan(alpha, N, lower):
    assert _kernel(alpha, N, lower) == _oracle(alpha, N, lower)


@settings(max_examples=60)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40),
                min_size=1, max_size=3),
       st.integers(1, 6), st.booleans())
def test_small_denominators_ties_and_resonance(alpha, N, as_mpf):
    # few residues: exact ties, and resonances whose first vector must match
    if as_mpf:
        alpha = [to_mpf(a) for a in alpha]
    N = min(N, 3) if len(alpha) == 3 else N
    assert _kernel(alpha, N) == _oracle(alpha, N)


def test_resonance_vector_and_exact_scan_zero():
    alpha = [Fraction(1, 3), Fraction(2, 3)]
    assert _kernel(alpha, 3) == ("resonant", (0, 3)) == _oracle(alpha, 3)
    # the construction scans measure resonance instead of raising
    assert dio._divisor_min(alpha, 3, raise_resonance=False) == (0, (0, 3))
    dyadic = [mpmath.mpf(0.5), mpmath.mpf(0.25)]
    assert _kernel(dyadic, 5) == ("resonant", (0, 4)) == _oracle(dyadic, 5)


@pytest.mark.parametrize("alpha", [(Fraction(1, 2), Fraction(1, 4)), (0.5, 0.25)])
def test_scans_raise_the_oracles_resonance_verdict(alpha):
    # one resonance test and one text: the scan's, a fresh oracle's
    with pytest.raises(ResonanceDetected) as scan:
        dio._divisor_min(alpha, 4)
    L = scan.value.lattice_vector
    with pytest.raises(ResonanceDetected) as fresh:
        dio.DivisorOracle(alpha).distance(L)
    assert (str(fresh.value), fresh.value.lattice_vector) == (str(scan.value), L)
    assert dio._divisor_min(alpha, 4, raise_resonance=False) == (0, L)


def test_oracle_evaluates_at_the_precision_it_was_built_at(golden):
    # a context lowered after the oracle is built, as dimension_one_check's
    # independent caps enter, changes neither what it returns nor what it
    # caches for later reads
    oracle = dio.DivisorOracle((golden,))
    with mpmath.workprec(128):
        low = oracle.distance((3,)), oracle.log_inv((5,))
    high = oracle.distance((3,)), oracle.log_inv((5,))
    fresh = dio.DivisorOracle((golden,))
    assert low == high == (fresh.distance((3,)), fresh.log_inv((5,)))


@pytest.mark.parametrize("a", [2, 3, 5])
def test_exact_ties_the_float_filter_misorders(a):
    # ||l a/q|| = 1/q at l = a^-1 mod q and at q - l; for many q the float
    # filter ranks the later of the two strictly lower (q = 103, a = 2)
    for q in range(101, 131, 2):
        if q % a:
            alpha = [Fraction(a, q)]
            assert _kernel(alpha, q - 1) == _oracle(alpha, q - 1)


def test_tie_across_block_boundary():
    # ||2l/q|| = 1/q at l = (q-1)/2 = 2^14 and l = 2^14 + 1: the last row of
    # the first block and the first row of the second; the first one wins
    q = 2 * dio._BLOCK + 1
    alpha = [Fraction(2, q)]
    assert _kernel(alpha, 2 * dio._BLOCK) == (Fraction(1, q), (dio._BLOCK,))
    assert _oracle(alpha, 2 * dio._BLOCK) == (Fraction(1, q), (dio._BLOCK,))


def test_minimizer_in_last_block():
    # N alpha_1 + N alpha_2 = 1 + N delta: (N, N) is the lexicographically
    # last vector of a three-block box and the unique minimizer
    N = 128
    a1 = _frac((mpmath.sqrt(5) - 1) / 2)
    alpha = [a1, Fraction(1, N) - a1 + Fraction(1, 10 ** 12)]
    assert _kernel(alpha, N) == (Fraction(N, 10 ** 12), (N, N)) == _oracle(alpha, N)


def test_divisors_far_below_double_precision():
    # ||4610 alpha|| ~ 2^-4622: float64 sees only rounding noise, so the
    # filter cannot tell the multiples of 4610 apart; certification must
    alpha = [dio.synthetic_liouville(4)]
    assert alpha[0].denominator.bit_length() > 4600
    result = _kernel(alpha, 9300)
    assert result == _oracle(alpha, 9300)
    assert result[1] == (4610,) and result[0] < Fraction(1, 2 ** 4600)
    # as mpf the same divisor underflows the working precision
    mp_alpha = [to_mpf(alpha[0])]
    assert _kernel(mp_alpha, 9300) == ("resonant", (4610,)) == _oracle(mp_alpha, 9300)


def test_constructed_state_scans_match_oracle():
    # paper mode, level 1: the even approximant puts ||alpha . nu(0)|| near
    # 2^-98, far below what float64 resolves
    paper = con.build(levels=1)
    alpha = paper.alpha_pair_at(2)
    value, arg = _oracle(alpha, 101)
    assert arg == (100, -101) and value < Fraction(1, 2 ** 90)
    assert dio._divisor_min(alpha, 101, raise_resonance=False) == (value, arg)
    assert _kernel(alpha, 60, skip_parallel_to=paper.nu[0]) == \
        _oracle(alpha, 60, skip_parallel_to=paper.nu[0])
    # toy mode: denominators of 600+ bits, skipping a deep and a shallow ray
    toy = con.build(levels=3,
                    schedule=con.GrowthSchedule(mode="toy", base=2, exponent_scale="1"))
    alpha = con.alpha_approx(toy)
    assert min(a.denominator.bit_length() for a in alpha) > 600
    for N, nu in ((64, None), (64, toy.nu[-1]), (40, toy.nu[0])):
        assert _kernel(alpha, N, skip_parallel_to=nu) == \
            _oracle(alpha, N, skip_parallel_to=nu)


def test_skip_parallel_ray():
    # 3 a1 - 2 a2 is nearly an integer, so the ray of (3, -2) holds the
    # minimizers until it is skipped
    a1 = _frac(_SQ2)
    alpha = [a1, (3 * a1 - Fraction(1, 10 ** 9)) / 2]
    assert _kernel(alpha, 12)[1] == (3, -2)
    skipped = _oracle(alpha, 12, skip_parallel_to=(3, -2))
    assert skipped[1] not in ((3, -2), (6, -4), (9, -6), (12, -8))
    for nu in ((3, -2), (-6, 4), (12, -8)):    # non-primitive, either sign
        assert _kernel(alpha, 12, skip_parallel_to=nu) == skipped
    # a reduced direction longer than the radius leaves the box intact
    assert _kernel(alpha, 12, skip_parallel_to=(26, 7)) == _oracle(alpha, 12)
    triple = [_frac(_SQ2), _frac(_SQ3), _frac(_SQ5)]
    assert _kernel(triple, 4, skip_parallel_to=(2, 0, -2)) == \
        _oracle(triple, 4, skip_parallel_to=(1, 0, -1))
    assert _kernel([a1], 5, skip_parallel_to=(4,)) == (None, None)


@pytest.mark.parametrize("alpha", [
    [Fraction(2, 17)],                               # tie across the seam
    [_frac(_SQ2, 20), _frac(_SQ3, 20)],
    [_SQ2, _SQ3],
])
def test_seed_merge_matches_whole_ball(alpha):
    inner = dio.omega_min(alpha, 8)
    merged = dio.omega_min(alpha, 16, lower=9, seed=inner)
    whole = dio.omega_min(alpha, 16)
    assert (merged.value, merged.argmin) == (whole.value, whole.argmin) \
        == _oracle(alpha, 16)
