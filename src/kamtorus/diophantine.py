"""Small-divisor arithmetic over lattice balls.

Provides the nearest-integer distance ||x|| = min_k |x - k|, continued
fractions with convergents and remainder products, the 1-D Bryuno-type
partial sums, and the minimal divisor

    Omega_alpha(N) = min over 0 < |l|_sup <= N of ||alpha . l||

with minimizer tracking.  Scans accept either exact rational vectors
(fractions.Fraction entries, certified in pure integer arithmetic) or real
vectors certified as mpf at the working precision.  Every scan filters then
certifies: a float64 pass over the whole box, with a rigorous rounding
margin, keeps the few vectors that can still be minimal or resonant, and only
those are evaluated exactly (see _divisor_min).

Since ||x|| is even, minimizers always come in +/- pairs; scans therefore
enumerate only the representatives whose first nonzero entry is positive and
report the lexicographically smallest minimizing representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath import mp

from .errors import RationalTruncation, ResonanceDetected
from .precision import to_mpf

LatticeVector = tuple  # d-tuple of ints


def sup_norm(l: Sequence[int]) -> int:
    return max(abs(c) for c in l)


def l1_norm(l: Sequence[int]) -> int:
    return sum(abs(c) for c in l)


def nearest_int_distance(x):
    """||x||: distance from x to the nearest integer, in [0, 1/2].

    Exact for Fraction/int input; mpf at working precision otherwise.
    """
    if isinstance(x, (Fraction, int)):
        frac = x - math.floor(x)
        return min(frac, 1 - frac)
    x = to_mpf(x)
    frac = x - mpmath.floor(x)
    return min(frac, 1 - frac)


@dataclass(frozen=True)
class ContinuedFraction:
    """Continued-fraction data of a real number x = a0 + 1/(a1 + 1/(...)).

    quotients[k-1] is a_k for k = 1..depth; numerators/denominators hold the
    convergents p_k/q_k on the same indexing (q_0 = 1, q_{-1} = 0 are implied
    by the recursion q_{k+1} = a_{k+1} q_k + q_{k-1}).  remainders[k] is the
    k-th iterated fractional part alpha_k (alpha_0 = {x}), and products[k] is
    beta_k = alpha_k * ... * alpha_0, with beta_{-1} = 1 implied.
    """

    integer_part: int
    quotients: tuple
    numerators: tuple
    denominators: tuple
    remainders: tuple
    products: tuple
    depth: int
    precision_bits: int


def continued_fraction(x, depth: int) -> ContinuedFraction:
    """Expand x to `depth` partial quotients.

    Raises RationalTruncation if a remainder vanishes (x rational at working
    precision) or a quotient exhausts the available precision before depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    exact = isinstance(x, (Fraction, int))
    if not exact:
        x = to_mpf(x)
    a0 = math.floor(x) if exact else int(mpmath.floor(x))
    rem = x - a0
    quotient_cap = 1 << max(8, mp.prec // 2)

    quotients, numerators, denominators = [], [], []
    remainders = [rem]
    products = [rem]
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    for k in range(1, depth + 1):
        if rem == 0:
            raise RationalTruncation(
                f"remainder vanished at index {k - 1} (input rational at working precision)"
            )
        inv = 1 / rem
        a = math.floor(inv) if exact else int(mpmath.floor(inv))
        if not exact and a > quotient_cap:
            raise RationalTruncation(
                f"quotient a_{k} = {a} exhausts the working precision ({mp.prec} bits)"
            )
        rem = inv - a
        quotients.append(a)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        numerators.append(p_cur)
        denominators.append(q_cur)
        remainders.append(rem)
        products.append(products[-1] * rem)
    return ContinuedFraction(
        integer_part=a0,
        quotients=tuple(quotients),
        numerators=tuple(numerators),
        denominators=tuple(denominators),
        remainders=tuple(remainders),
        products=tuple(products),
        depth=depth,
        precision_bits=mp.prec,
    )


def bryuno_1d(x, depth: int):
    """1-D Bryuno-type partial sums of x up to `depth`.

    Returns (b_partial, q_partial) where

        b_partial = sum_{n=0..depth} beta_{n-1} * log(1/alpha_n),
        q_partial = sum_{k=0..depth-1} (1/q_k) * log(q_{k+1}),  q_0 = 1.

    Both are nonnegative and nondecreasing in depth; they are finite together
    in the limit.  Propagates RationalTruncation from the expansion.
    """
    cf = continued_fraction(x, depth + 1)
    b_partial = mp.mpf(0)
    for n in range(depth + 1):
        alpha_n = cf.remainders[n]
        beta_prev = 1 if n == 0 else cf.products[n - 1]
        b_partial += to_mpf(beta_prev) * mpmath.log(1 / to_mpf(alpha_n))
    q_full = (1,) + cf.denominators
    q_partial = mp.mpf(0)
    for k in range(depth):
        q_partial += mpmath.log(q_full[k + 1]) / q_full[k]
    return b_partial, q_partial


@dataclass(frozen=True)
class SmallDivisorRecord:
    """Minimal small divisor over the sup-norm ball of radius N.

    value = ||alpha . argmin|| is minimal among 0 < |l| <= N; argmin is the
    lexicographically smallest minimizer with positive leading entry.
    """

    N: int
    value: object  # Fraction (exact scan) or mpf
    argmin: tuple
    precision_bits: int

    def value_mpf(self):
        return to_mpf(self.value)

    def bryuno_term(self):
        """log(1/value) / N, this scale's term of the dyadic Bryuno sum
        (mpf; dividing by a power of two N is exact)."""
        return mpmath.log(1 / self.value_mpf()) / self.N


def _resonance_eps():
    return mpmath.ldexp(1, -(mp.prec - 16))


def resonance_threshold(alpha: Sequence):
    """The resonance policy: ||alpha . l|| below this is resonant.

    The threshold follows the kind of input, as DivisorOracle's route does:

    * Fraction/int entries: 0, since only an exact zero is resonant;
    * entries that are all plain floats: 1e-13, about 450 ulps of 1;
    * any other input (mpf at the working precision): 2^-(prec - 16).

    Every scan and oracle of ||alpha . l|| reads it.  The one other guard,
    |e^(2 pi i alpha.l) - 1| < 1e-13 in kam.solve_cohomological, bounds the
    complex divisor of the double-precision solve, a different quantity.
    """
    if all(isinstance(a, (Fraction, int)) for a in alpha):
        return 0
    if all(isinstance(a, float) for a in alpha):
        return 1e-13
    return _resonance_eps()


#: Rows per float64 filter block: bounds the scan's memory at any radius.
_BLOCK = 1 << 14


def _box_blocks(d: int, N: int, lower: int):
    """The l with lower <= |l|_sup <= N and first nonzero entry > 0, in
    lexicographic order, as int64 arrays of at most _BLOCK rows.

    Vectors whose first nonzero entry sits at position k (the last position
    comes first in lexicographic order) are the mixed-radix numbers
    l_k - 1 in [0, N) followed by d - 1 - k digits l_j + N in [0, 2N], so a
    running index decodes to them in order.
    """
    width = 2 * N + 1
    for k in range(d - 1, -1, -1):
        size = N * width ** (d - 1 - k)
        for start in range(0, size, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, size), dtype=np.int64)
            block = np.zeros((len(rows), d), dtype=np.int64)
            for j in range(d - 1, k, -1):
                rows, digit = np.divmod(rows, width)
                block[:, j] = digit - N
            block[:, k] = rows + 1
            if lower > 1:
                block = block[np.abs(block).max(axis=1) >= lower]
            yield block


def _divisor_min(alpha: Sequence, N: int, lower: int = 1,
                 skip_parallel_to=None, raise_resonance: bool = True):
    """(min ||alpha . l||, lexicographically first minimizer) over the
    canonical l with lower <= |l|_sup <= N, or (None, None) if none is left.

    Fraction/int alpha gives a Fraction value, certified in integers as
    min(r, den - r) / den with r = l . nums mod den over a common
    denominator; other alpha gives the mpf value
    nearest_int_distance(fsum(l_i alpha_i)) at the working precision.
    `skip_parallel_to` drops every l parallel to that nonzero vector.
    Unless `raise_resonance` is false, the first l in lexicographic order
    with value 0 (exact) or below resonance_threshold(alpha) raises
    ResonanceDetected.

    Filter then certify (Shewchuk, Discrete Comput. Geom. 18, 1997):

    1. Filter.  With af_i the float64 of alpha_i reduced mod 1, every box
       vector gets fd(l) = |x - rint(x)|, x = fl(l . af).  Let u = 2^-53,
       S = sum |af_i| and c(l) the certified value.  Three error terms
       bound |fd(l) - c(l)| for |l|_sup <= N:
       * rounding alpha_i mod 1 to af_i (faithful, even when subnormal):
         at most 2u |af_i| + 2^-1074 per entry, so 2u N S + d N 2^-1074;
       * the float64 products and sum: |l_i| < 2^53 is exact in float64,
         and a d-term dot product errs by at most gamma_d N S with
         gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
         Numerical Algorithms, 3.1), in any order and with FMA; rint is
         exact, x - rint(x) is exact by Sterbenz's lemma, and ||.|| is
         1-Lipschitz;
       * for mpf input only, the working-precision evaluation at
         prec >= MIN_PRECISION = 64 bits: each product l_i alpha_i and the
         final fsum round once (2^(1-prec) relative each; fsum adds its
         terms exactly up to a 2^(-2 prec) cut), and 1 - frac rounds once,
         so at most 2^(2-prec) (N A + 1) with A = sum |alpha_i|.
       The margin m = (d + 3) u (N S + 1) + 2^(2-prec) (N A + 1), with the
       second term only for mpf input, bounds their sum; the slack of one
       u N S and the +1 cover the subnormal term and the rounding of the
       threshold below.  Once 2m >= 1/2 (for example when sum |alpha_i|
       overflows float64) every vector passes the filter below.
    2. Candidates.  With fmin the least fd over the box and eps the
       resonance threshold (0 for exact input), keep every l with
       fd(l) <= fmin + 2m + eps.  Blocks are pruned against the running
       minimum, which never undercuts fmin, then all against fmin.  A
       minimizer l* is kept: for the float argmin lf,
       fd(l*) <= c(l*) + m <= c(lf) + m <= fmin + 2m.  So is every
       resonant l: c(l) < eps (or c(l) = 0) gives fd(l) < eps + m.
    3. Certify.  The candidates, in lexicographic order, are evaluated
       exactly as above and the strict < keeps the first minimizer, so the
       argmin and the first resonant vector are those of a scan of the
       whole box.  Near-ties (Liouville-type divisors far below 2^-52)
       only add candidates; many exact ties cost at most the full loop.
    """
    d = len(alpha)
    exact = all(isinstance(a, (Fraction, int)) for a in alpha)
    eps = resonance_threshold(alpha)
    if exact:
        fracs = [Fraction(a) for a in alpha]
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        af = np.array([n % den / den for n in nums])
        mpf_error = 0.0
    else:
        alphas = [to_mpf(a) for a in alpha]
        af = np.array([float(a - mpmath.floor(a)) for a in alphas])
        mpf_error = 2.0 ** (2 - mp.prec) * (N * float(mpmath.fsum(alphas, absolute=True)) + 1)
    margin = (d + 3) * 2.0 ** -53 * (N * float(af.sum()) + 1) + mpf_error
    slack = 2 * margin + float(eps)

    ray = None
    if skip_parallel_to is not None:
        g = math.gcd(*skip_parallel_to)
        nu = [c // g for c in skip_parallel_to]
        if max(abs(c) for c in nu) <= N:
            p = next(i for i, c in enumerate(nu) if c != 0)
            ray = (p, np.array(nu, dtype=np.int64))

    kept, fmin = [], math.inf
    for block in _box_blocks(d, N, lower):
        if ray is not None:
            p, nu = ray
            block = block[~np.all(block * nu[p] == block[:, [p]] * nu, axis=1)]
        if not len(block):
            continue
        x = block @ af
        fd = np.abs(x - np.rint(x))
        fmin = min(fmin, float(fd.min()))
        keep = fd <= fmin + slack
        kept.append((block[keep], fd[keep]))
    if not kept:
        return None, None
    candidates = [row for block, fd in kept for row in block[fd <= fmin + slack].tolist()]

    best, best_arg = None, None
    for l in map(tuple, candidates):
        if exact:
            r = sum(c * n for c, n in zip(l, nums)) % den
            dist = min(r, den - r)
            if dist == 0 and raise_resonance:
                raise ResonanceDetected(
                    f"alpha . {l} is an exact integer", lattice_vector=l)
        else:
            dist = nearest_int_distance(mpmath.fsum(c * a for c, a in zip(l, alphas)))
            if dist < eps and raise_resonance:
                raise ResonanceDetected(
                    f"||alpha . {l}|| = {mpmath.nstr(dist, 8)} is below the "
                    f"resonance threshold", lattice_vector=l)
        if best is None or dist < best:
            best, best_arg = dist, l
    return (Fraction(best, den) if exact else best), best_arg


def omega_min(alpha: Sequence, N: int, lower: int = 1,
              seed: SmallDivisorRecord | None = None) -> SmallDivisorRecord:
    """Minimal divisor over 0 < |l|_sup <= N (or an annulus).

    `lower` restricts the scan to lower <= |l|_sup <= N, and `seed` supplies
    a record already covering |l| < lower, which enables incremental dyadic
    scans.  Exact rational alpha is certified in integer arithmetic;
    otherwise mpf at working precision.  A divisor below
    resonance_threshold(alpha) raises ResonanceDetected.  The result equals
    an exhaustive scan's (see _divisor_min).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    value, best_arg = _divisor_min(alpha, N, lower)
    if seed is not None:
        both_exact = isinstance(seed.value, Fraction) and isinstance(value, Fraction)
        sv, nv = (seed.value, value) if both_exact else (to_mpf(seed.value), to_mpf(value))
        if sv < nv:
            value, best_arg = seed.value, seed.argmin
        elif sv == nv:
            best_arg = min(best_arg, seed.argmin)
    return SmallDivisorRecord(N=N, value=value, argmin=best_arg,
                              precision_bits=mp.prec)


def omega_min_1d(alpha, N: int) -> SmallDivisorRecord:
    """Convergent-based fast path for d = 1.

    By best-approximation theory the minimum of ||l*alpha|| over 0 < l <= N
    is attained at the largest convergent denominator q_k <= N.  Must agree
    with the exhaustive scan; tested, not assumed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x = alpha[0] if isinstance(alpha, (list, tuple)) else alpha
    denominators = ()
    depth = 1
    while True:
        try:
            cf = continued_fraction(x, depth)
        except RationalTruncation:
            break
        denominators = cf.denominators
        if denominators[-1] > N:
            break
        depth += 1
    best_q = 1  # q_0 = 1 is always a convergent denominator
    for q in denominators:
        if q <= N:
            best_q = q
    if isinstance(x, (Fraction, int)):
        dist = nearest_int_distance(Fraction(x) * best_q)
        if dist == 0:
            raise ResonanceDetected(f"{best_q} * alpha is an exact integer",
                                    lattice_vector=(best_q,))
    else:
        dist = nearest_int_distance(to_mpf(x) * best_q)
        if dist < resonance_threshold((x,)):
            raise ResonanceDetected(
                f"||{best_q} * alpha|| = {mpmath.nstr(dist, 8)} is below "
                f"the resonance threshold",
                lattice_vector=(best_q,))
    return SmallDivisorRecord(N=N, value=dist, argmin=(best_q,),
                              precision_bits=mp.prec)


def synthetic_liouville(depth: int = 4) -> Fraction:
    """Exact stand-in for a number with explosively growing quotients.

    Builds the continued fraction [0; a_1, a_2, ...] with a_{k+1} = 2**q_k
    and returns the depth-th convergent as an exact rational.  The next
    convergent denominator is ~2**q_depth, so for every scan radius N
    reachable in practice, ||l * alpha|| of the true limit and of this
    rational agree to within N / (q_depth * 2**q_depth): the returned value
    is a faithful scan surrogate far beyond any computable budget.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for _ in range(depth):
        a = 2 ** q_cur
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return Fraction(p_cur, q_cur)


def bryuno_partial_sum(alpha: Sequence, K: int, records: list | None = None):
    """Partial Bryuno sum sum_{k=1..K} 2^-k log(1/Omega_alpha(2^k)).

    Dyadic scales share work: the ball of radius 2^k is scanned as the
    previous record plus the annulus 2^(k-1) < |l| <= 2^k.  If `records` is
    a list, the per-scale SmallDivisorRecord values are appended to it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    total = mp.mpf(0)
    record = None
    for k in range(1, K + 1):
        lower = (1 << (k - 1)) + 1 if k > 1 else 1
        record = omega_min(alpha, 1 << k, lower=lower, seed=record)
        total += record.bryuno_term()
        if records is not None:
            records.append(record)
    return total
