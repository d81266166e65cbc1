"""Small-divisor arithmetic over lattice balls.

Provides the nearest-integer distance ||x|| = min_k |x - k|, continued
fractions with convergents and remainder products, the 1-D Bryuno-type
partial sums, and the minimal divisor

    Omega_alpha(N) = min over 0 < |l|_sup <= N of ||alpha . l||

with minimizer tracking.  `DivisorOracle` is the one code that evaluates
||alpha . l|| and judges it resonant: exact rational vectors
(fractions.Fraction entries) are certified in pure integer arithmetic, and
every other vector, plain floats included, as mpf at the precision current
when the oracle was built.  Every scan filters then certifies: a float64
pass over the whole box, with a rigorous rounding margin, keeps the few
vectors that can still be minimal or resonant, and only those go through the
oracle (see _divisor_min); the schedule stages do the same per mode
(schedule._stage_caps).

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
from mpmath.libmp import (fone, mpf_floor, mpf_log, mpf_lt, mpf_mul_int,
                          mpf_neg, mpf_sub, mpf_sum, to_float)

from .errors import RationalTruncation, ResonanceDetected
from .precision import to_mpf

LatticeVector = tuple  # d-tuple of ints

#: Unit roundoff of float64.
_U = 2.0 ** -53


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

    The threshold follows the kind of input:

    * Fraction/int entries: 0, since only an exact zero is resonant;
    * entries that are all plain floats: 1e-13, about 450 ulps of 1, the
      floats' own resolution, though they are evaluated like mpf;
    * any other input (mpf at the working precision): 2^-(prec - 16).

    DivisorOracle applies it to every scanned ||alpha . l||, and
    omega_min_1d, the independent d = 1 path, reads it too.  The one other
    guard, |e^(2 pi i alpha.l) - 1| < 1e-13 in kam.solve_cohomological,
    bounds the complex divisor of the double-precision solve.
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


class _DivisorFilter:
    """The float64 filter of an oracle's ||alpha . l|| over |l|_sup <= N.

    `distances(block)` gives fd(l) = |x - rint(x)|, x = fl(l . af), for the
    int64 rows l of `block`, with af_i the float64 of alpha_i reduced mod 1.
    `margin` is an m with |fd(l) - c(l)| <= m for every |l|_sup <= N, where
    c(l) is ||alpha . l|| as the DivisorOracle's route gives it: exactly for
    Fraction/int alpha, else nearest_int_distance(fsum(l_i alpha_i)) at the
    oracle's precision prec; `eps` is the double of its resonance threshold
    (exact, or 0 once it underflows).  With u = 2^-53, S = sum |af_i| and
    A = sum |alpha_i|, three error terms bound |fd(l) - c(l)|:

    * rounding alpha_i mod 1 to af_i (faithful, even when subnormal): at
      most 2u |af_i| + 2^-1074 per entry, so 2u N S + d N 2^-1074;
    * the float64 products and sum: |l_i| < 2^53 is exact in float64, and
      a d-term dot product errs by at most gamma_d N S with
      gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.1), in any order and with FMA; rint is exact,
      x - rint(x) is exact by Sterbenz's lemma, and ||.|| is 1-Lipschitz;
    * for inexact alpha, the evaluation of c(l) at prec >= 53 bits: each
      product l_i alpha_i and the final fsum round once (2^(1-prec)
      relative each; mpmath's fsum adds its terms exactly up to a
      2^(-2 prec) cut), and 1 - frac rounds once, so at most
      2^(2-prec) (N A + 1).

    m = (d + 3) u (N S + 1) + 2^(2-prec) (N A + 1), with the second term
    only for inexact alpha, bounds their sum with a slack of at least
    u N S + (d + 2) u.  While m < 1/2 that covers the subnormal term and
    one float64 rounding of fd(l) +/- m or of a threshold below 1 (m is
    infinite when sum |alpha_i| overflows float64).
    """

    def __init__(self, oracle: DivisorOracle, N: int):
        prec, rnd = oracle._prec, oracle._rnd
        if oracle.exact:
            self.af = np.array([a.numerator % a.denominator / a.denominator
                                for a in oracle.alpha])
            eval_error = 0.0
        else:
            self.af = np.array([
                to_float(mpf_sub(a, mpf_floor(a, prec, rnd), prec, rnd), rnd=rnd)
                for a in oracle._raw])
            eval_error = 2.0 ** (2 - prec) * (
                N * to_float(mpf_sum(oracle._raw, prec, rnd, True), rnd=rnd) + 1)
        self.margin = ((oracle.dimension + 3) * _U
                       * (N * float(self.af.sum()) + 1) + eval_error)
        self.eps = to_float(oracle._eps, rnd=rnd)

    def distances(self, block: np.ndarray) -> np.ndarray:
        x = block @ self.af
        return np.abs(x - np.rint(x))


class DivisorOracle:
    """||alpha.l|| with resonance detection; exact on rational vectors.

    The one code that evaluates ||alpha.l|| and judges it resonant, at the
    precision current when it is built: a context entered later
    (mpmath.workprec) changes nothing it computes or caches.  Two routes,
    each returning the raw distance.  Rational alpha = P / q (q the common
    denominator) is evaluated on integers: r = (l.P) mod q and
    ||alpha.l|| = min(r, q - r) / q (`_residue`).  Any other alpha, plain
    floats included, goes through the `mpmath.libmp` functions behind
    nearest_int_distance(fsum(to_mpf(a) * c)): same precision, same
    rounding, no wrapper objects (`_mpf_distance`).  `_checked` judges the
    value by resonance_threshold(alpha); distance(l) and
    log_inv(l) = log(1/||alpha.l||), a float (the solver works in log
    scale, so double precision suffices even when the divisor itself
    underflows a double, as Liouville-type vectors arrange), raise its
    ResonanceDetected.  Each mode's value is computed once per oracle.
    """

    def __init__(self, alpha):
        self.alpha = tuple(alpha)
        self.dimension = len(self.alpha)
        self.exact = all(isinstance(a, (Fraction, int)) for a in self.alpha)
        # every evaluation runs in this context; the raw mpf threshold and,
        # for inexact alpha, the raw mpf alpha are taken at its precision
        self._prec, self._rnd = mp._prec_rounding
        self._eps = to_mpf(resonance_threshold(self.alpha))._mpf_
        # tau, the exact route's absolute log_inv error (schedule._stage_caps)
        self._log_tau = 0.0
        if self.exact:
            self._den = math.lcm(*(a.denominator for a in self.alpha))
            self._nums = tuple(a.numerator * (self._den // a.denominator)
                               for a in self.alpha)
            self._log_tau = 48 * _U * (self._den.bit_length() * math.log10(2) + 1)
        else:
            self._raw = tuple(to_mpf(a)._mpf_ for a in self.alpha)
        self._cache = {}                    # distance per mode
        self._log_table = {}                # log_inv per mode
        self.bounded_modes = 0              # rows through log_inv_bounds
        self.log_inv_calls = 0

    def _residue(self, key) -> int:
        """Numerator m of ||alpha.l|| = m / q (exact route)."""
        q = self._den
        r = sum(c * p for c, p in zip(key, self._nums)) % q
        return min(r, q - r)

    def _mpf_distance(self, key):
        """Raw mpf ||alpha.l|| at the oracle's precision."""
        prec, rnd = self._prec, self._rnd
        s = mpf_sum([mpf_mul_int(a, c, prec, rnd)
                     for a, c in zip(self._raw, key)], prec, rnd)
        frac = mpf_sub(s, mpf_floor(s, prec, rnd), prec, rnd)
        other = mpf_sub(fone, frac, prec, rnd)
        return other if mpf_lt(other, frac) else frac

    def _checked(self, key, raise_resonance: bool = True):
        """The route's raw distance; ResonanceDetected below the threshold
        unless `raise_resonance` is false."""
        if self.exact:
            dist = self._residue(key)
            if dist == 0 and raise_resonance:
                raise ResonanceDetected(f"alpha . {key} is an exact integer",
                                        lattice_vector=key)
        else:
            dist = self._mpf_distance(key)
            if raise_resonance and mpf_lt(dist, self._eps):
                raise ResonanceDetected(
                    f"||alpha . {key}|| vanishes at working precision",
                    lattice_vector=key)
        return dist

    def distance(self, l):
        key = tuple(l)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        dist = self._checked(key)
        dist = Fraction(dist, self._den) if self.exact else mp.make_mpf(dist)
        self._cache[key] = dist
        return dist

    def _fresh_log_inv(self, key) -> float:
        dist = self._checked(key)
        if self.exact:
            g = math.gcd(dist, self._den)
            # the reduced fraction's terms, as Fraction(m, q) would hold them
            return _log_inv_ratio(dist // g, self._den // g)
        prec, rnd = self._prec, self._rnd
        return to_float(mpf_neg(mpf_log(dist, prec, rnd), prec, rnd), rnd=rnd)

    def log_inv(self, l) -> float:
        self.log_inv_calls += 1
        key = tuple(l)
        val = self._log_table.get(key)
        if val is None:
            val = self._log_table[key] = self._fresh_log_inv(key)
        return val

    def log_inv_bounds(self, N: int):
        """The float64 filter's bound of log_inv over |l|_sup <= N: a
        function mapping an int64 block of such modes to arrays (lo, hi)
        with lo <= log_inv(l) <= hi on every row, and (-inf, inf) on each
        row whose filtered distance does not clear the resonance threshold.
        `schedule._stage_caps` derives the bound."""
        filt = _DivisorFilter(self, N)
        m, eps = filt.margin, filt.eps
        slope = 2 * (19 * _U + 2.0 ** (3 - self._prec))  # 2 (rho + 8u)
        offset = 2 * self._log_tau

        def bounds(block: np.ndarray):
            self.bounded_modes += len(block)
            fd = filt.distances(block)
            safe = fd - m > eps
            lam_lo = -np.log(np.where(safe, fd + m, 1.0))
            lam_hi = -np.log(np.where(safe, fd - m, 1.0))
            width = slope * lam_hi + offset
            return (np.where(safe, lam_lo - width, -np.inf),
                    np.where(safe, lam_hi + width, np.inf))

        return bounds


def _log10_int(n: int) -> float:
    """log10 of a positive integer, safe for million-bit values."""
    shift = max(n.bit_length() - 64, 0)
    return math.log10(n >> shift) + shift * math.log10(2)


def _log_inv_ratio(num: int, den: int) -> float:
    """log(den / num) = log(1 / (num / den)) for positive integers."""
    return (_log10_int(den) - _log10_int(num)) * math.log(10)


def _divisor_min(alpha: Sequence, N: int, lower: int = 1,
                 skip_parallel_to=None, raise_resonance: bool = True):
    """(min ||alpha . l||, lexicographically first minimizer) over the
    canonical l with lower <= |l|_sup <= N, or (None, None) if none is left.

    The value is DivisorOracle's: a Fraction for Fraction/int alpha,
    certified in integers, and an mpf at the working precision otherwise.
    `skip_parallel_to` drops every l parallel to that nonzero vector.
    Unless `raise_resonance` is false, the oracle's ResonanceDetected is
    raised at the first resonant l in lexicographic order.

    Filter then certify (Shewchuk, Discrete Comput. Geom. 18, 1997):

    1. Filter.  Every box vector gets its float64 distance fd(l), within
       the margin m of the certified value c(l) (_DivisorFilter at the
       working precision).
    2. Candidates.  With fmin the least fd over the box and eps the
       resonance threshold (0 for exact input), keep every l with
       fd(l) <= fmin + 2m + eps.  Blocks are pruned against the running
       minimum, which never undercuts fmin, then all against fmin.  A
       minimizer l* is kept: for the float argmin lf,
       fd(l*) <= c(l*) + m <= c(lf) + m <= fmin + 2m.  So is every
       resonant l: c(l) < eps (or c(l) = 0) gives fd(l) < eps + m.  Once
       2m >= 1/2 every vector passes.
    3. Certify.  The candidates, in lexicographic order, are evaluated
       by the oracle (`_checked`) and the strict < keeps the first minimizer,
       so the argmin and the first resonant vector are those of a scan of
       the whole box.  Near-ties (Liouville-type divisors far below 2^-52)
       only add candidates; many exact ties cost at most the full loop.
    """
    d = len(alpha)
    oracle = DivisorOracle(alpha)
    filt = _DivisorFilter(oracle, N)
    slack = 2 * filt.margin + filt.eps

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
        fd = filt.distances(block)
        fmin = min(fmin, float(fd.min()))
        keep = fd <= fmin + slack
        kept.append((block[keep], fd[keep]))
    if not kept:
        return None, None
    candidates = [row for block, fd in kept for row in block[fd <= fmin + slack].tolist()]

    best, best_arg = None, None
    for l in map(tuple, candidates):
        dist = oracle._checked(l, raise_resonance)
        if not oracle.exact:
            dist = mp.make_mpf(dist)
        if best is None or dist < best:
            best, best_arg = dist, l
    return (Fraction(best, oracle._den) if oracle.exact else best), best_arg


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
        value, best_arg = min((value, best_arg), (seed.value, seed.argmin))
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
