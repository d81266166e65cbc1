"""Working-precision control and exact integer floors of real expressions.

All floating computations in the library run at a configurable binary
precision (default 256 bits, matching the headroom needed by quantities like
floor(e**25.25) evaluated exactly).  The construction of the explicit vector
additionally needs *exact* integer floors of expressions such as t**theta,
e**(p/q) and (qbar/q)*(2*t**(theta/2)/gap - 1).  Those are resolved here by
one of two routes:

* a pure integer route when the expression is provably rational
  (floor(t**(p/q)) == floor((t**p)**(1/q)), an integer k-th root), or
* interval arithmetic at escalating precision until both interval endpoints
  share the same floor.  For irrational values (e**x with rational x != 0,
  t**(p/q) with t**p not a perfect q-th power) the escalation terminates.

Every helper that can produce astronomically large integers takes a digit
budget and raises ExponentOverflow beyond it, so the computational frontier
of the paper-mode construction is explicit rather than an out-of-memory
crash.

Without gmpy2 the exact kernels are pure Python on CPython 3.11, whose
long division and int/str conversion are quadratic.  Subquadratic here:
multiplication (CPython's Karatsuba), k-th roots (`int_nth_root`,
precision-doubling Newton), division above a few thousand bits
(`int_divmod`, Burnikel-Ziegler) and decimal conversion
(`serialize.int_str` and `parse_int`, divide and conquer over
`int_divmod`).  The gcd is not: `big_gcd` is `math.gcd`, and it is the
largest cost left in `construct --mode toy --levels 6`, 112 `math.gcd`
calls and 0.16-0.22 s of a 0.44-0.55 s in-process run on a 2-vCPU VM,
most of it in the four gcds of the deepest level's checks.  Importing this module
changes no interpreter setting, mpmath's working precision included: the
caller sets it (`set_working_precision`; the CLI from `--precision`).
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp, iv

from .errors import ExponentOverflow

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

#: Default cap on the decimal-digit count of any exactly computed integer.
DEFAULT_DIGIT_BUDGET = 10**6

_LN2 = 0.6931471805599453
_LN10 = 2.302585092994046


def set_working_precision(bits: int) -> None:
    if bits < MIN_PRECISION:
        raise ValueError(f"working precision must be >= {MIN_PRECISION} bits, got {bits}")
    mp.prec = bits


def working_precision_bits() -> int:
    return mp.prec


@contextlib.contextmanager
def working_precision(bits: int):
    """Temporarily run mpmath at `bits` of binary precision."""
    if bits < MIN_PRECISION:
        raise ValueError(f"working precision must be >= {MIN_PRECISION} bits, got {bits}")
    old = mp.prec
    mp.prec = bits
    try:
        yield
    finally:
        mp.prec = old


def as_fraction(value) -> Fraction:
    """Exact rational from int/Fraction/str/float/mpf.

    Floats go through their shortest decimal repr, so as_fraction(0.4)
    is 2/5 rather than the 53-bit binary neighbor.  mpf values convert
    exactly (they are binary rationals).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, mpmath.mpf):
        return Fraction(*mpmath.libmp.to_rational(value._mpf_))
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def to_mpf(value) -> mpmath.mpf:
    """Convert to mpf at the current working precision."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


try:
    import gmpy2 as _gmpy2
except ImportError:  # the pure-Python kernels below give the same results
    _gmpy2 = None


def int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1 (exact integer arithmetic).

    Without gmpy2, k == 2 is `math.isqrt` and any other k is `_iroot`,
    precision-doubling Newton (Brent & Zimmermann, *Modern Computer
    Arithmetic*, section 1.5): a root of the top half of the bits, shifted
    back, starts one integer Newton step at full size.

    * From any positive x the integer Newton step
      floor(((k-1) x + n // x^(k-1)) / k) lands at or above floor(n^(1/k)):
      it equals floor(((k-1) x + n / x^(k-1)) / k) (nested floors), and
      that mean is >= n^(1/k) by the AM-GM inequality.
    * For x = r 2^h the step's quotient is (n >> (k-1) h) // r^(k-1), the
      same integer (nested floors again) from operands about half the size.
    * The start x = (r + 1) 2^h, r the inner result, lies above the real
      root and, with r at most one above floor(n^(1/k) / 2^h), within
      2^(h+1) of it (rb the root's bit length, h = rb // 2 - g); the step
      then lands within (k-1) 4^(1-g) < 1 of the root, so at most one
      above the floor.  The g guard bits, 4 up to k = 63 and more above,
      make 4^(g-1) > k - 1, which keeps that overshoot at one, level after
      level.
    * The outermost call alone walks `while x**k > n: x -= 1` down to the
      exact floor, at most once.

    Correctness rests on the step's lower bound and on that outermost
    descent alone; the guard bits only keep the descent short.  Roots of
    at most 48 bits take the monotone descent from 2^rb: above the floor,
    x^k > n makes the step strictly decrease, so the first x whose step
    does not decrease is the floor.
    """
    if n < 0 or k < 1:
        raise ValueError("int_nth_root requires n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if _gmpy2 is not None:
        return int(_gmpy2.iroot(_gmpy2.mpz(n), k)[0])
    if k == 2:
        return math.isqrt(n)
    return _iroot(n, k)


def int_nth_root_bracket(n: int, k: int) -> int:
    """An integer r with floor(n^(1/k)) <= r <= floor(n^(1/k)) + 1, for
    n >= 0, k >= 1: `_iroot_above`, the enclosure `int_nth_root` takes
    before its exact descent, where that descent would run, and
    `int_nth_root` (gmpy2's root, `math.isqrt`, trivial cases) elsewhere."""
    if _gmpy2 is None and k > 2 and n > 1:
        return _iroot_above(n, k)
    return int_nth_root(n, k)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 2; see `int_nth_root`.

    Recursion goes through `_iroot_above`, never the public name, so
    wrappers bound to `int_nth_root` see one call per root.  Only this
    outermost call runs the exact descent.
    """
    x = _iroot_above(n, k)
    while x ** k > n:
        x -= 1
    return x


def _iroot_above(n: int, k: int) -> int:
    """An integer in [floor(n^(1/k)), floor(n^(1/k)) + 1], exact at most
    48 root bits; see `int_nth_root` for the bound."""
    rb = -(-n.bit_length() // k)
    if rb <= 48:
        # k may be in the hundreds here: no float guess, no linear search
        x = 1 << rb
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                return x
            x = y
    h = rb // 2 - max(4, (k.bit_length() + 3) // 2)
    # the inner result is at most one above floor(n^(1/k) / 2^h)
    r = _iroot_above(n >> (k * h), k) + 1
    return ((k - 1) * (r << h)
            + int_divmod(n >> ((k - 1) * h), r ** (k - 1))[0]) // k


#: Burnikel-Ziegler cut-overs of `int_divmod`: the builtin below them.
_BZ_DIVISOR_BITS = 9000
_BZ_QUOTIENT_BITS = 4500


def int_divmod(a: int, b: int) -> tuple[int, int]:
    """Exactly divmod(a, b) (floor semantics) for any int a and int b != 0.

    CPython 3.11's long division is schoolbook, O(size(b) size(q)).  Once
    the divisor has at least `_BZ_DIVISOR_BITS` bits and the quotient at
    least `_BZ_QUOTIENT_BITS`, this runs Burnikel-Ziegler recursive division
    (Burnikel & Ziegler, *Fast Recursive Division*, MPI-I-98-1-022, 1998;
    Brent & Zimmermann, *Modern Computer Arithmetic*, section 1.4.3), which
    costs about two Karatsuba multiplications of the operands' size.
    Below either cut-over, and for a negative divisor, which no caller
    passes, it is the builtin; the recursion's leaves are builtin divisions
    with quotients of at most `_BZ_QUOTIENT_BITS`.
    The cut-overs are CPython 3.12's (300 and 150 digits of 30 bits).
    Measured on a 2-vCPU VM under Python 3.11.7 (median of 9, random
    operands, quotient half or all of the divisor's size), the recursion
    takes 1.0x the builtin's time at a 9,000-bit divisor, 0.8x at 18,000,
    0.5x at 40,000-70,000 and 0.4x at 150,000 bits; at 6,000 bits it is
    1.1-1.2x, the cost of its digit split with nothing to recurse on.
    """
    if (b < 0 or b.bit_length() < _BZ_DIVISOR_BITS
            or a.bit_length() - b.bit_length() < _BZ_QUOTIENT_BITS):
        return divmod(a, b)
    if a < 0:
        # floor(a / b) = -1 - floor((-a - 1) / b) = ~q
        q, r = _divmod_nonneg(~a, b)
        return ~q, b + ~r
    return _divmod_nonneg(a, b)


def _divmod_nonneg(a: int, b: int) -> tuple[int, int]:
    """divmod for a >= 0, b > 0: schoolbook in base 2^n, n = bits(b), each
    digit of the quotient one `_div2n1n`."""
    n = b.bit_length()
    top = -(-a.bit_length() // n) - 1
    q, r = 0, 0
    mask = (1 << n) - 1
    for i in range(top, -1, -1):
        digit, r = _div2n1n(r << n | (a >> (i * n)) & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < 2^n b, so that the
    quotient has at most n bits: two `_div3n2n` on the halves of n."""
    if a.bit_length() - n <= _BZ_QUOTIENT_BITS:
        return divmod(a, b)
    odd = n & 1
    if odd:
        # an even n halves exactly; the scaled divisor keeps its top bit
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> odd


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int,
             half: int) -> tuple[int, int]:
    """divmod(a12 2^half + a3, b) for b = b1 2^half + b2 with b1 of exactly
    half bits, a3 < 2^half and a12 < 2^half b: the quotient of a12 by b1,
    capped at 2^half - 1, is at most two above the true one."""
    if a12 >> half == b1:
        q, r = (1 << half) - 1, a12 - (b1 << half) + b1
    else:
        q, r = _div2n1n(a12, b1, half)
    r = (r << half | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def big_gcd(a: int, b: int) -> int:
    """gcd(a, b): gmpy2's subquadratic gcd when installed, else `math.gcd`,
    which is quadratic in the operands' size on CPython 3.11."""
    if _gmpy2 is not None:
        return int(_gmpy2.gcd(_gmpy2.mpz(a), _gmpy2.mpz(b)))
    return math.gcd(a, b)


def floor_int_pow(t: int, exponent: Fraction) -> int:
    """Exact floor(t ** exponent) for integer t >= 1 and exponent >= 0.

    Pure integer arithmetic: floor(t**(p/q)) is the integer q-th root of
    t**p, so results are independent of any floating precision.
    """
    if t < 1:
        raise ValueError("base must be a positive integer")
    exponent = Fraction(exponent)
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    p, q = exponent.numerator, exponent.denominator
    if p == 0:
        return 1
    return int_nth_root(t ** p, q)


def floor_exp(x: Fraction, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact floor(e ** x) for rational x >= 0, within the digit budget.

    e**x is irrational for rational x != 0, so the interval escalation
    always resolves the floor.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("exponent must be nonnegative")
    if x == 0:
        return 1
    # integer-only budget guard: x may be astronomically large
    if x.numerator > int(digit_budget * _LN10 * x.denominator) + 1:
        raise ExponentOverflow(
            f"floor(e**x) would exceed the digit budget {digit_budget}; "
            f"exponent has ~{x.numerator.bit_length() - x.denominator.bit_length()} bits",
            exponent=x,
        )
    num, den = x.numerator, x.denominator

    def expr():
        return iv.exp(iv.mpf(num) / den)

    return resolve_floor(expr, start_bits=max(mp.prec, int(float(x) / _LN2) + 64))


def floor_rational_pow(base: int, exponent: Fraction,
                       digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact floor(base ** exponent) for integer base >= 1, rational exponent >= 0."""
    exponent = Fraction(exponent)
    if base < 1:
        raise ValueError("base must be a positive integer")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if base == 1 or exponent == 0:
        return 1
    # integer-only budget guard before any large power is formed
    if exponent.numerator * base.bit_length() > 4 * digit_budget * exponent.denominator:
        raise ExponentOverflow(
            f"floor(base**x) far exceeds the digit budget {digit_budget}",
            exponent=exponent,
        )
    result = floor_int_pow(base, exponent)
    result_digits = (result.bit_length() * 30103) // 100000 + 1
    if result_digits > digit_budget:
        raise ExponentOverflow(
            f"floor(base**x) has ~{result_digits} digits (budget {digit_budget})",
            exponent=exponent,
        )
    return result


def resolve_floor(interval_expr: Callable[[], "iv.mpf"],
                  start_bits: int | None = None) -> int:
    """Floor of a real expression via interval arithmetic with escalation.

    `interval_expr` is re-evaluated under doubling interval precision until
    both endpoints agree on the floor.  Past 2^23 bits (which for our
    expressions can only happen when the value is exactly an integer) a
    RuntimeError is raised.
    """
    bits = start_bits if start_bits is not None else mp.prec
    bits = max(bits, MIN_PRECISION)
    old = iv.prec
    try:
        while bits <= 1 << 23:
            iv.prec = bits
            value = interval_expr()
            lo = mpmath.floor(value.a)
            hi = mpmath.floor(value.b)
            if lo == hi:
                return int(lo)
            bits *= 2
    finally:
        iv.prec = old
    raise RuntimeError(
        "could not resolve an exact floor by interval escalation; "
        "the value may be exactly an integer"
    )
