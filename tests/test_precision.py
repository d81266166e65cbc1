"""Tests for the exact integer roots and the twist-factor floor."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kamtorus import construction as con
from kamtorus import precision


def _descent_root(n: int, k: int) -> int:
    """Independent oracle: monotone Newton descent from 2^ceil(bits/k)."""
    if n in (0, 1) or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _fraction_twist_scaled(q_bar, q, gap, t, theta_bar):
    """Independent oracle: the twist-factor floor through Fraction and math.floor."""
    half = theta_bar / 2
    rn, rd = half.numerator, half.denominator
    root = _descent_root(t ** rn, rd)
    if root ** rd == t ** rn:
        return math.floor(Fraction(q_bar * (2 * root - gap), q * gap))
    bits = max(q_bar.bit_length() - q.bit_length(), 0) + 66
    while True:
        scaled = _descent_root(t ** rn << (rd * bits), rd)
        lo = Fraction(q_bar * 2 * scaled, q * gap << bits) - Fraction(q_bar, q)
        hi = Fraction(q_bar * 2 * (scaled + 1), q * gap << bits) - Fraction(q_bar, q)
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo == fhi:
            return flo
        bits *= 2


def _is_floor_root(x: int, n: int, k: int) -> bool:
    return x >= 0 and x ** k <= n < (x + 1) ** k


def test_int_nth_root_validation_and_trivial_cases():
    with pytest.raises(ValueError):
        precision.int_nth_root(-1, 3)
    with pytest.raises(ValueError):
        precision.int_nth_root(5, 0)
    with pytest.raises(ValueError):
        precision.int_nth_root_bracket(-1, 3)
    assert precision.int_nth_root(0, 7) == 0
    assert precision.int_nth_root(1, 7) == 1
    assert precision.int_nth_root(12345, 1) == 12345
    assert precision.int_nth_root(2, 300) == 1


def test_int_nth_root_matches_descent_oracle():
    rng = random.Random(20261018)
    for i in range(3000):
        k = rng.randint(2, 11) if i % 2 else rng.randint(2, 300)
        n = rng.getrandbits(rng.randint(1, 5000))
        assert precision.int_nth_root(n, k) == _descent_root(n, k), (n, k)


def test_int_nth_root_property_deep_recursion():
    # roots of 100 to 2000 bits: several levels of the precision-doubling
    # recursion, k up to 300
    rng = random.Random(7)
    for _ in range(600):
        k = rng.randint(3, 300)
        n = rng.getrandbits(k * rng.randint(49, 2000 // max(1, k // 20)))
        assert _is_floor_root(precision.int_nth_root(n, k), n, k), k


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=1 << 20000), st.integers(min_value=1, max_value=300))
def test_int_nth_root_property(n, k):
    root = precision.int_nth_root(n, k)
    assert _is_floor_root(root, n, k)
    assert 0 <= precision.int_nth_root_bracket(n, k) - root <= 1


@pytest.mark.parametrize("root_bits", [1, 2, 20, 48, 49, 64, 200, 201, 700])
@pytest.mark.parametrize("k", [2, 3, 5, 7, 11, 64])
def test_int_nth_root_exact_power_boundaries(root_bits, k):
    rng = random.Random(root_bits * 1000 + k)
    roots = {(1 << root_bits) - 1, 1 << root_bits, rng.getrandbits(root_bits) | 1 << (root_bits - 1)}
    for r in sorted(roots):
        for n in (r ** k - 1, r ** k, r ** k + 1):
            x = precision.int_nth_root(n, k)
            assert x == (r if n >= r ** k else r - 1), (r, k, n - r ** k)
            assert x == _descent_root(n, k)
            assert 0 <= precision.int_nth_root_bracket(n, k) - x <= 1


def test_int_nth_root_toy_six_level_input():
    # the 697,753-bit fifth root that the twist factor of level 6 of
    # `construct --mode toy --levels 6` takes (t = 5, 139550 guard bits)
    n = 5 << 5 * 139550
    assert n.bit_length() == 697753
    assert _is_floor_root(precision.int_nth_root(n, 5), n, 5)


def test_int_nth_root_counts_one_public_call(monkeypatch):
    calls = []
    public = precision.int_nth_root

    def counting(n, k):
        calls.append(n)
        return public(n, k)

    monkeypatch.setattr(precision, "int_nth_root", counting)
    n = 3 << 20000
    assert _is_floor_root(precision.int_nth_root(n, 5), n, 5)
    assert calls == [n]


_WIDE = (49, 64, 200, 2000, 20000)


@pytest.mark.parametrize("k,seed,root_bits", [(3, 3, _WIDE), (5, 5, _WIDE), (7, 7, _WIDE),
                                               (31, 31, _WIDE), (300, 1, (1000, 1500))])
def test_int_nth_root_inner_levels_need_no_descent(k, seed, root_bits):
    # the inner levels of the recursion return at most one above their
    # floor, so the outermost descent steps down at most once; on the two
    # k = 300 roots a fixed 4 guard bits would overshoot by 22 and 13
    rng = random.Random(seed)
    for bits in root_bits:
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        for n, root in ((x ** k - 1, x - 1), (x ** k, x), (x ** k + 1, x)):
            assert 0 <= precision._iroot_above(n, k) - root <= 1, (k, bits)
            assert precision.int_nth_root(n, k) == root
    if k == 5:
        n = 5 << 698070
        root = precision.int_nth_root(n, 5)
        assert _is_floor_root(root, n, 5)
        assert 0 <= precision._iroot_above(n, 5) - root <= 1


@pytest.mark.parametrize("theta_bar", [Fraction(2, 5), Fraction(1, 3), Fraction(3, 7)])
def test_floor_twist_scaled_matches_fraction_formula(theta_bar):
    rng = random.Random(theta_bar.denominator)
    for _ in range(40):
        q = rng.getrandbits(rng.randint(1, 300)) + 1
        q_bar = rng.getrandbits(rng.randint(1, 600)) + 1
        gap = rng.randint(1, 50)
        t = rng.randint(2, 10 ** 6)
        args = (q_bar, q, gap, t, theta_bar)
        assert con._floor_twist_scaled(*args) == _fraction_twist_scaled(*args), args


@pytest.mark.parametrize("t,gap", [(32, 1), (32, 3), (32, 5), (243, 7), (3 ** 50, 2)])
def test_floor_twist_scaled_perfect_power(t, gap):
    # t^(1/5) is an integer: the value is rational and read off directly,
    # including negative values (2 root < gap)
    for q_bar, q in [(1, 1), (7, 3), (10 ** 40 + 1, 3 ** 30), (5, 10 ** 20)]:
        args = (q_bar, q, gap, t, Fraction(2, 5))
        assert con._floor_twist_scaled(*args) == _fraction_twist_scaled(*args), args


def test_floor_twist_scaled_near_integer_needs_more_bits(monkeypatch):
    # q_bar / q is m / (2 * 2^(1/5) - 1) to 400 bits, so the value lies
    # less than m 2^-399 above m and the first guard bits cannot resolve it
    scale = 400
    s = _descent_root(2 << 5 * scale, 5)
    q = 2 * s - (1 << scale)
    calls = []

    def counting(root):
        def counted(n, k):
            calls.append(k)
            return root(n, k)
        return counted

    # the perfect-power probe takes the exact root, each scale a bracket
    for name in ("int_nth_root", "int_nth_root_bracket"):
        monkeypatch.setattr(con, name, counting(getattr(con, name)))
    for m in (1, 7, 12345):
        q_bar = m << scale
        calls.clear()
        assert con._floor_twist_scaled(q_bar, q, 1, 2, Fraction(2, 5)) == m
        assert _fraction_twist_scaled(q_bar, q, 1, 2, Fraction(2, 5)) == m
        assert len(calls) >= 3  # the perfect-power probe and two or more scales


# -- exact division ----------------------------------------------------------

_DIV_BITS = precision._BZ_DIVISOR_BITS
_QUO_BITS = precision._BZ_QUOTIENT_BITS
# sizes that straddle both cut-overs and reach the recursion's deep levels
_STRADDLE = (1, 64, _QUO_BITS, _DIV_BITS, 2 * _DIV_BITS, 100_000, 750_000,
             1_400_000)
# bound on bits(b) * bits(q), the cost of the builtin divmod oracle
_ORACLE_WORK = 2 * 10 ** 10


@st.composite
def _divmod_operands(draw):
    """(a, b): a up to about 1.5M bits of either sign, b > 0 random, a
    power of two, larger than |a|, or an exact divisor of a."""
    jitter = st.integers(-2, 2)
    b_bits = max(1, draw(st.sampled_from(_STRADDLE[:-1])) + draw(jitter))
    q_cap = min(1_500_000 - b_bits, _ORACLE_WORK // b_bits)
    q_bits = draw(st.sampled_from([x for x in _STRADDLE if x <= q_cap]))
    q_bits = max(0, min(q_cap, q_bits + draw(jitter)))
    kind = draw(st.sampled_from(("random", "power of two", "b > a", "multiple")))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    if kind == "power of two":
        b = 1 << (b_bits - 1)
    a = rng.getrandbits(b_bits + q_bits)
    if kind == "b > a":
        a >>= q_bits + 1
    elif kind == "multiple":
        a = b * (rng.getrandbits(q_bits) | 1 << q_bits)
    return draw(st.sampled_from((a, -a))), b


@settings(max_examples=120)
@given(_divmod_operands())
def test_int_divmod_matches_builtin(operands):
    a, b = operands
    assert precision.int_divmod(a, b) == divmod(a, b)


def test_int_divmod_deep_recursion_and_signs():
    # balanced and unbalanced shapes well above the cut-overs, all four
    # sign combinations
    rng = random.Random(13)
    for b_bits, q_bits in ((9_001, 4_501), (30_011, 30_011), (200_000, 50_000),
                           (10_000, 1_400_000), (558_000, 139_500)):
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rng.getrandbits(b_bits + q_bits)
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            assert precision.int_divmod(sa * a, sb * b) == divmod(sa * a, sb * b)
    # a quotient of all ones puts every partial remainder's top half equal
    # to the divisor's: the capped digit estimate 2^half - 1 is then exact
    for b_bits in (9_001, 40_000):
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        for r in (0, 1, b - 1, rng.randrange(b)):
            a = ((1 << b_bits) - 1) * b + r
            assert precision.int_divmod(a, b) == ((1 << b_bits) - 1, r)
    with pytest.raises(ZeroDivisionError):
        precision.int_divmod(1 << 20000, 0)


def test_int_divmod_toy_six_newton_step():
    # the full-size Newton step n // x^4 of the 697,753-bit fifth root that
    # the twist factor of level 6 of `construct --mode toy --levels 6` takes
    n = 5 << 5 * 139550
    x = precision.int_nth_root(n, 5) + 3
    q, r = precision.int_divmod(n, x ** 4)
    assert 0 <= r < x ** 4 and q * x ** 4 + r == n
