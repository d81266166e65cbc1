"""Iterative exact-rational construction of a planar frequency vector whose
small divisors concentrate, scale by scale, along a slowly twisting lattice
direction.

The state carries four integer sequences (p_j, q_j) and (pbar_j, qbar_j) with
alpha_1 = lim p_{2l}/q_{2l}, alpha_2 = lim pbar_{2l}/qbar_{2l}.  One level
appends the direction data

    c(l)        = floor((qbar_{2l}/q_{2l}) * phi(l)),
    nu_tilde(l) = (q_{2l} c(l), -qbar_{2l}),
    nu(l)       = nu_tilde(l) / gcd,      q_tilde(l) = |nu(l)|_sup,

and two growth factors a_{2l+1}, a_{2l+2} controlling how fast the next
approximants converge.  The twist factor phi(l) = 2 t_n^(tb/2)/(l - t_n) - 1
rotates the worst direction within each bracket t_n < l <= t_{n+1} of the
auxiliary sequence t_{n+1} = t_n + floor(t_n^tb).

Everything here is exact: floors of irrational expressions are resolved with
rigorous enclosures (see `precision`), never by trusting a rounded float.

Growth modes.  In `paper` mode the factors are floor(e^(q_tilde/t_n^2)) and
floor(e^(q_tilde/(t_n log t_n))); these become physically uncomputable beyond
the first level (the next exponent is ~1e76), which the digit budget turns
into an explicit ExponentOverflow.  `toy` mode keeps the same divisibility
structure but replaces the exponent argument q_tilde by log2(q_tilde), so the
factors are polynomial in q_tilde and several exact levels fit in memory; all
analytic-rate checks on toy states are reported as toy-scale measurements,
not paper-rate assertions.

Index gap at the start: phi and the t_n-brackets are defined for l > t_0 = 2
while the construction starts at l = 0.  Levels l <= t_0 use the n = 0
bracket with unit gap, i.e. phi(l) := 2 t_0^(tb/2) - 1; every report header
carries this note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
from mpmath import mp, iv

from .diophantine import _divisor_min, l1_norm, nearest_int_distance, sup_norm
from .errors import ExponentOverflow, ScanTooLarge, SchemaMismatch
from .precision import (
    DEFAULT_DIGIT_BUDGET,
    _LN10,
    as_fraction,
    big_gcd,
    floor_exp,
    floor_int_pow,
    floor_rational_pow,
    int_divmod,
    int_nth_root,
    int_nth_root_bracket,
    resolve_floor,
    to_mpf,
)
from .reports import VerificationReport
from .serialize import fraction_str, int_str, parse_fraction, parse_int

START_GAP_NOTE = "levels l <= t_0 = 2 use the n = 0 bracket with unit gap"

#: Largest scan radius of the exact full-ball divisor scans; a larger one
#: raises ScanTooLarge.
SCAN_GUARD = 10 ** 5


# ---------------------------------------------------------------------------
# twist sequence and twist factor


@dataclass(frozen=True)
class TwistSequence:
    """t_0 = 2, t_{n+1} = t_n + floor(t_n ** theta_bar); exact integers."""

    theta_bar: Fraction
    values: tuple

    def bracket(self, l: int):
        """(n, t_n, gap) with t_n < l <= t_{n+1}; unit gap below t_0."""
        t = self.values
        if l <= t[0]:
            return 0, t[0], 1
        for n in range(len(t) - 1):
            if t[n] < l <= t[n + 1]:
                return n, t[n], l - t[n]
        raise ValueError(f"twist sequence (top {t[-1]}) too short for level {l}")


def t_sequence(theta_bar, count: int) -> TwistSequence:
    """Exact twist recursion t_0 = 2, t_{n+1} = t_n + floor(t_n**theta_bar).

    theta_bar must lie in (0, 1/2); floors are pure integer arithmetic, so
    the sequence is independent of the working precision.
    """
    tb = as_fraction(theta_bar)
    if not (0 < tb < Fraction(1, 2)):
        raise ValueError(f"theta_bar must lie in (0, 1/2), got {tb}")
    if count < 1:
        raise ValueError("count must be >= 1")
    values = [2]
    for _ in range(count):
        values.append(_twist_step(values[-1], tb))
    return TwistSequence(theta_bar=tb, values=tuple(values))


def _twist_step(t: int, theta_bar: Fraction) -> int:
    """t_{n+1} = t_n + floor(t_n ** theta_bar), in integers."""
    return t + floor_int_pow(t, theta_bar)


def extend_twist(twist: TwistSequence, min_top: int) -> TwistSequence:
    """Grow the sequence until its last entry is >= min_top."""
    if twist.values[-1] >= min_top:
        return twist
    values = list(twist.values)
    while values[-1] < min_top:
        values.append(_twist_step(values[-1], twist.theta_bar))
    return TwistSequence(theta_bar=twist.theta_bar, values=tuple(values))


def _floor_twist_scaled(q_bar: int, q: int, gap: int, t: int,
                        theta_bar: Fraction) -> int:
    """Exact floor((q_bar/q) * (2 t^(tb/2)/gap - 1)).

    Uses s = t^(tb/2) enclosed by an integer root at escalating scale:
    r = int_nth_root_bracket(t^rn << (rd*P), rd) is floor(s * 2^P) or one
    above it, so s * 2^P lies in [r - 1, r + 1), the value in an interval
    of width (4 q_bar)/(q gap 2^P), and the floor is read off once that
    interval clears an integer.  When t^rn is a perfect rd-th power the
    value is rational and the floor is immediate.
    """
    half = theta_bar / 2
    rn, rd = half.numerator, half.denominator
    power = t ** rn
    root = int_nth_root(power, rd)
    if root ** rd == power:
        return q_bar * (2 * root - gap) // (q * gap)
    # lo and hi are q_bar (2 S - gap 2^P) / (q gap 2^P) for S = r - 1 and
    # r + 1, floored by integer division without gcd normalisation;
    # hi - lo = 4 q_bar / den, so one division gives both floors
    bits = max(q_bar.bit_length() - q.bit_length(), 0) + 66
    while True:
        scaled = int_nth_root_bracket(power << (rd * bits), rd)
        den = q * gap << bits
        flo, rem = int_divmod(q_bar * (2 * scaled - 2 - (gap << bits)), den)
        fhi = flo + (rem + 4 * q_bar) // den
        if flo == fhi:
            return flo
        bits *= 2


# ---------------------------------------------------------------------------
# growth schedule


@dataclass(frozen=True)
class GrowthSchedule:
    """How the approximation factors a_{2l+1}, a_{2l+2} grow with q_tilde.

    mode "paper": a = floor(e**(q_tilde / t_n^2)) resp.
    floor(e**(q_tilde / (t_n log t_n))).  mode "toy": the exponent argument
    q_tilde is replaced by exponent_scale * log2(q_tilde) and e by `base`,
    keeping factors polynomial in q_tilde.
    """

    mode: str = "paper"
    base: int = 2
    exponent_scale: Fraction = Fraction(1, 8)
    digit_budget: int = DEFAULT_DIGIT_BUDGET

    def __post_init__(self):
        if self.mode not in ("paper", "toy"):
            raise ValueError(f"unknown growth mode {self.mode!r}")
        object.__setattr__(self, "exponent_scale", as_fraction(self.exponent_scale))
        if self.mode == "toy":
            if self.base < 2:
                raise ValueError("toy base must be an integer >= 2")
            if not (0 < self.exponent_scale <= 1):
                raise ValueError("exponent_scale must lie in (0, 1]")

    def describe(self) -> dict:
        d = {"mode": self.mode, "digit_budget": self.digit_budget}
        if self.mode == "toy":
            d["base"] = self.base
            d["exponent_scale"] = str(self.exponent_scale)
        return d

    # -- factor a_{2l+1}: exponent divisor t_n^2 ---------------------------

    def odd_factor(self, q_tilde: int, t_n: int) -> int:
        if self.mode == "paper":
            return floor_exp(Fraction(q_tilde, t_n * t_n), self.digit_budget)
        return self._toy_factor(q_tilde, Fraction(t_n * t_n))

    # -- factor a_{2l+2}: exponent divisor t_n * log(t_n) ------------------

    def even_factor(self, q_tilde: int, t_n: int) -> int:
        if self.mode == "paper":
            self._guard_digits(q_tilde, t_n * math.log(t_n))
            start = int(q_tilde / (t_n * math.log(t_n)) / 0.693) + 80

            def expr():
                return iv.exp(iv.mpf(q_tilde) / (t_n * iv.log(t_n)))

            return resolve_floor(expr, start_bits=start)
        return self._toy_factor(q_tilde, None, t_log_t=t_n)

    def _guard_digits(self, q_tilde: int, divisor: float) -> None:
        if q_tilde > int(self.digit_budget * divisor * _LN10) + 1:
            raise ExponentOverflow(
                f"exp(q_tilde/{divisor:.4g}) exceeds the digit budget "
                f"{self.digit_budget}; q_tilde has {q_tilde.bit_length()} bits",
                exponent=Fraction(q_tilde),
            )

    def _toy_factor(self, q_tilde: int, divisor: Fraction | None,
                    t_log_t: int | None = None) -> int:
        """floor(base ** (scale * log2(q_tilde) / divisor)).

        divisor is either an exact rational (t_n^2) or the irrational
        t_n log t_n passed via t_log_t.  Power-of-two bases with rational
        divisor reduce to an exact rational power of q_tilde.
        """
        scale = self.exponent_scale
        bits_q = q_tilde.bit_length()
        if divisor is not None:
            est_digits = float(scale) * bits_q * self.base.bit_length() / float(divisor) * 0.302
        else:
            est_digits = float(scale) * bits_q * self.base.bit_length() / (
                t_log_t * math.log(t_log_t)) * 0.302
        if est_digits > self.digit_budget:
            raise ExponentOverflow(
                f"toy factor would have ~{est_digits:.3g} digits "
                f"(budget {self.digit_budget})",
                exponent=Fraction(bits_q),
            )
        if divisor is not None and self.base & (self.base - 1) == 0:
            # base = 2^b: base**(scale*log2(qt)/divisor) == qt**(b*scale/divisor)
            b = self.base.bit_length() - 1
            return floor_rational_pow(q_tilde, b * scale / divisor,
                                      self.digit_budget)
        start = int(est_digits * 3.33) + 80
        num, den = scale.numerator, scale.denominator

        def expr():
            log2_qt = iv.log(iv.mpf(q_tilde)) / iv.log(2)
            if divisor is not None:
                y = log2_qt * num / (den * divisor.numerator) * divisor.denominator
            else:
                y = log2_qt * num / (den * t_log_t * iv.log(t_log_t))
            return iv.exp(y * iv.log(self.base))

        return resolve_floor(expr, start_bits=start)


# ---------------------------------------------------------------------------
# construction state


@dataclass(frozen=True)
class DirectionData:
    """Per-level direction data, available before the level's growth step."""

    level: int
    bracket_n: int
    t_n: int
    c: int
    nu_tilde: tuple
    nu: tuple
    q_tilde: int


@dataclass(frozen=True)
class ConstructionState:
    """Exact state after `level` completed construction steps.

    p/q (and pbar/qbar) hold indices 0..2*level; direction data and growth
    factors cover levels 0..level-1.  All entries are exact integers.
    """

    theta_bar: Fraction
    twist: TwistSequence
    mode: str
    level: int
    p: tuple
    q: tuple
    p_bar: tuple
    q_bar: tuple
    a: tuple                 # a_1 .. a_{2*level}
    c: tuple                 # c(0) .. c(level-1)
    nu_tilde: tuple
    nu: tuple
    q_tilde: tuple
    q_bar_minus1: int = 1

    @classmethod
    def seed(cls, theta_bar="0.4", q0: int = 100, q0_bar: int = 101,
             mode: str = "paper") -> "ConstructionState":
        """Level 0: alpha_0 = (1/q0, 1/q0_bar) and 16 twist steps."""
        tb = as_fraction(theta_bar)
        if q0 < 1 or q0_bar < 1:
            raise ValueError("seed denominators must be positive")
        return cls(
            theta_bar=tb,
            twist=t_sequence(tb, 16),
            mode=mode,
            level=0,
            p=(1,), q=(q0,), p_bar=(1,), q_bar=(q0_bar,),
            a=(), c=(), nu_tilde=(), nu=(), q_tilde=(),
        )

    def direction(self, l: int) -> DirectionData:
        """Direction data at level l <= self.level (current level computed)."""
        if l < self.level:
            n, t_n, _ = self.twist.bracket(l)
            return DirectionData(l, n, t_n, self.c[l], self.nu_tilde[l],
                                 self.nu[l], self.q_tilde[l])
        if l == self.level:
            return level_direction_data(self)
        raise ValueError(f"level {l} beyond computed state (level {self.level})")

    def alpha_pair_at(self, k: int):
        """(alpha_1,k, alpha_2,k) as exact rationals, k = 0..2*level."""
        return Fraction(self.p[k], self.q[k]), Fraction(self.p_bar[k], self.q_bar[k])


def level_direction_data(state: ConstructionState) -> DirectionData:
    """c(l), nu_tilde(l), nu(l), q_tilde(l) for the state's current level."""
    l = state.level
    twist = extend_twist(state.twist, l)
    n, t_n, gap = twist.bracket(l)
    q = state.q[2 * l]
    q_bar = state.q_bar[2 * l]
    c = _floor_twist_scaled(q_bar, q, gap, t_n, state.theta_bar)
    if c < 1:
        raise ValueError(
            f"direction factor c({l}) = {c} < 1; the twist factor is too "
            f"small against q_bar/q at this level")
    nu_tilde = (q * c, -q_bar)
    g = big_gcd(*nu_tilde)
    nu = (nu_tilde[0] // g, nu_tilde[1] // g)
    return DirectionData(l, n, t_n, c, nu_tilde, nu, sup_norm(nu))


def construct_step(state: ConstructionState,
                   schedule: GrowthSchedule) -> ConstructionState:
    """Advance one level; exact integer arithmetic throughout.

    Appends c(l), nu(l), the growth factors a_{2l+1} = floor(base^(x/t_n^2)),
    a_{2l+2} = floor(base^(x/(t_n log t_n))) and the updates

        q_{2l+1} = a_{2l+1} q_{2l}^2 c(l),   qbar_{2l+1} = a_{2l+1} qbar_{2l}^2,
        q_{2l+2} = a_{2l+2} q_{2l+1},
        qbar_{2l+2} = (a_{2l+2} q_{2l+1} qbar_{2l+1} + 1) qbar_{2l+1},

    with numerators advanced so that p_k/q_k accumulates the unit-fraction
    increments exactly: p_k = (q_k/q_{k-1}) p_{k-1} + q_{k-1}, and likewise
    for pbar against qbar (the new alpha_2 increment has the off-by-one
    denominator a_{2l+2} q_{2l+1} qbar_{2l+1} + 1).
    """
    if schedule.mode != state.mode:
        raise ValueError(f"schedule mode {schedule.mode!r} != state mode {state.mode!r}")
    l = state.level
    data = level_direction_data(state)
    q2l, qb2l = state.q[2 * l], state.q_bar[2 * l]
    p2l, pb2l = state.p[2 * l], state.p_bar[2 * l]

    a_odd = schedule.odd_factor(data.q_tilde, data.t_n)
    a_even = schedule.even_factor(data.q_tilde, data.t_n)

    q_odd = a_odd * q2l * q2l * data.c
    qb_odd = a_odd * qb2l * qb2l
    p_odd = (q_odd // q2l) * p2l + q2l
    pb_odd = (qb_odd // qb2l) * pb2l + qb2l

    cof = a_even * q_odd * qb_odd + 1
    q_even = a_even * q_odd
    qb_even = cof * qb_odd
    p_even = a_even * p_odd + q_odd
    pb_even = cof * pb_odd + qb_odd

    return replace(
        state,
        twist=extend_twist(state.twist, l + 2),
        level=l + 1,
        p=state.p + (p_odd, p_even),
        q=state.q + (q_odd, q_even),
        p_bar=state.p_bar + (pb_odd, pb_even),
        q_bar=state.q_bar + (qb_odd, qb_even),
        a=state.a + (a_odd, a_even),
        c=state.c + (data.c,),
        nu_tilde=state.nu_tilde + (data.nu_tilde,),
        nu=state.nu + (data.nu,),
        q_tilde=state.q_tilde + (data.q_tilde,),
    )


def build(theta_bar="0.4", levels: int = 1,
          schedule: GrowthSchedule = GrowthSchedule(),
          **seed_kwargs) -> ConstructionState:
    """Seed a state in the schedule's mode and advance `levels` steps."""
    state = ConstructionState.seed(theta_bar=theta_bar, mode=schedule.mode,
                                   **seed_kwargs)
    for _ in range(levels):
        state = construct_step(state, schedule)
    return state


def alpha_approx(state: ConstructionState):
    """Deepest even approximant (alpha_1, alpha_2) as exact rationals."""
    return state.alpha_pair_at(2 * state.level)


STATE_FORMAT = "kamtorus.construction_state.v1"


def state_to_jsonable(state: ConstructionState) -> dict:
    """Canonical JSON form: every integer as a decimal string, bit-exact."""
    return {
        "format": STATE_FORMAT,
        "theta_bar": fraction_str(state.theta_bar),
        "mode": state.mode,
        "level": state.level,
        "twist_values": [int_str(t) for t in state.twist.values],
        "p": [int_str(v) for v in state.p],
        "q": [int_str(v) for v in state.q],
        "p_bar": [int_str(v) for v in state.p_bar],
        "q_bar": [int_str(v) for v in state.q_bar],
        "a": [int_str(v) for v in state.a],
        "c": [int_str(v) for v in state.c],
        "nu_tilde": [[int_str(v) for v in vec] for vec in state.nu_tilde],
        "nu": [[int_str(v) for v in vec] for vec in state.nu],
        "q_tilde": [int_str(v) for v in state.q_tilde],
        "q_bar_minus1": int_str(state.q_bar_minus1),
    }


def state_from_jsonable(data: dict) -> ConstructionState:
    """The state of `state_to_jsonable`'s form; SchemaMismatch for any
    other format or for a missing key."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != STATE_FORMAT:
        raise SchemaMismatch(f"expected format {STATE_FORMAT!r}, got {fmt!r}")
    try:
        theta = parse_fraction(data["theta_bar"])
        return ConstructionState(
            theta_bar=theta,
            twist=TwistSequence(theta_bar=theta,
                                values=tuple(parse_int(t) for t in data["twist_values"])),
            mode=data["mode"],
            level=int(data["level"]),
            p=tuple(parse_int(v) for v in data["p"]),
            q=tuple(parse_int(v) for v in data["q"]),
            p_bar=tuple(parse_int(v) for v in data["p_bar"]),
            q_bar=tuple(parse_int(v) for v in data["q_bar"]),
            a=tuple(parse_int(v) for v in data["a"]),
            c=tuple(parse_int(v) for v in data["c"]),
            nu_tilde=tuple(tuple(parse_int(v) for v in vec) for vec in data["nu_tilde"]),
            nu=tuple(tuple(parse_int(v) for v in vec) for vec in data["nu"]),
            q_tilde=tuple(parse_int(v) for v in data["q_tilde"]),
            q_bar_minus1=parse_int(data["q_bar_minus1"]),
        )
    except KeyError as exc:
        raise SchemaMismatch(f"construction state lacks key {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# verification suite


def _report_header(state: ConstructionState, **extra) -> dict:
    h = {
        "mode": state.mode,
        "theta_bar": str(state.theta_bar),
        "level": state.level,
        "precision_bits": mp.prec,
        "start_gap": START_GAP_NOTE,
    }
    h.update(extra)
    return h


def _fraction_ratio_str(num, den) -> str:
    """Approximate num/den as a short scientific string; bit-length based so
    it stays cheap for million-bit operands."""
    if den == 0:
        return "inf"
    if num == 0:
        return "0"
    sign = "-" if (num < 0) != (den < 0) else ""
    num, den = abs(num), abs(den)
    sn = max(num.bit_length() - 64, 0)
    sd = max(den.bit_length() - 64, 0)
    log10 = math.log10((num >> sn) / (den >> sd)) + (sn - sd) * math.log10(2)
    e = math.floor(log10)
    mant = 10 ** (log10 - e)
    if mant >= 10.0:
        mant /= 10.0
        e += 1
    return f"{sign}{mant:.7f}e{e:+d}"


def verify_construction(state: ConstructionState) -> VerificationReport:
    """Exact structural checks on every computed level.

    Covers the seed ordering, the two-sided growth sandwich
    qbar_{2l-1}^2 q_{2l} <= qbar_{2l} <= q_{2l} qbar_{2l-1}^4 with its gcd
    bound, the convergent gcd bounds gcd(p_k, q_k) <= q_{k-1}, the direction
    size bound q_tilde >= |nu_tilde| / (2 max(l,1) qbar_{2l-1}^5), coprimality
    of nu(l), the tail bound |alpha_{i,2l+1} - alpha_i| <= 2/a_{2l+2} against
    the deepest approximant, and strict monotonicity of the approximants.
    Failures are entries, not exceptions.

    Every check takes its own gcd.  The approximants in lowest terms come
    from the convergent entries' gcds by exact division, and the powers of
    qbar_{2l-1} are formed once per level.
    """
    rep = VerificationReport("construction checks", _report_header(state))
    toy = state.mode == "toy"

    rep.add("seed_ordering", "level 0", state.q[0] < state.q_bar[0],
            margin=f"q_bar0 - q0 = {state.q_bar[0] - state.q[0]}")
    g0 = big_gcd(state.q[0], state.q_bar[0])
    rep.add("seed_gcd", "level 0", g0 <= state.q_bar_minus1,
            margin=f"gcd = {g0}")

    # qbar_{2l-1}^2, ^4 and ^5 of each level l (qbar_{-1} at l = 0), formed
    # once for the sandwich, convergent, direction size and twist entries
    powers = []
    for l in range(state.level + 1):
        qbp = state.q_bar[2 * l - 1] if l >= 1 else state.q_bar_minus1
        square = qbp * qbp
        fourth = square * square
        powers.append((square, fourth, fourth * qbp))

    for l in range(1, state.level + 1):
        q, qb, qbp = state.q[2 * l], state.q_bar[2 * l], state.q_bar[2 * l - 1]
        square, fourth, _ = powers[l]
        lo, hi = square * q, q * fourth
        rep.add("growth_sandwich_lower", f"level {l}", lo <= qb,
                margin=_fraction_ratio_str(qb, lo))
        rep.add("growth_sandwich_upper", f"level {l}", qb <= hi,
                margin=_fraction_ratio_str(hi, qb),
                note="toy-scale, not paper-rate" if toy and qb > hi else "")
        g = big_gcd(q, qb)
        rep.add("even_gcd_bound", f"level {l}", g <= qbp,
                margin=f"gcd = {int_str(g)}")

    # every approximant in lowest terms, divided by its convergent entry's gcd
    lowest = ([_divide_out(state.p[0], state.q[0], big_gcd(state.q[0], state.p[0]))],
              [_divide_out(state.p_bar[0], state.q_bar[0],
                           big_gcd(state.q_bar[0], state.p_bar[0]))])
    for k in range(1, 2 * state.level + 1):
        g1 = big_gcd(state.q[k], state.p[k])
        g2 = big_gcd(state.q_bar[k], state.p_bar[k])
        # p_k q_{k-1} - p_{k-1} q_k = q_{k-1}^2 exactly, so the gcd divides
        # the square of the previous denominator; the linear bound gcd <=
        # q_{k-1} does not survive the unit-fraction increments and is
        # reported as a measurement only.
        qb_square = powers[k // 2][0] if k % 2 == 0 else state.q_bar[k - 1] ** 2
        ok = (int_divmod(state.q[k - 1] ** 2, g1)[1] == 0
              and int_divmod(qb_square, g2)[1] == 0)
        rep.add("convergent_gcd_divides", f"index {k}", ok,
                margin=f"gcd = {int_str(g1)}, gcd_bar = {int_str(g2)}")
        rep.add("convergent_gcd_linear", f"index {k}", None,
                margin=f"gcd/q_prev = {_fraction_ratio_str(g1, state.q[k - 1])}, "
                       f"gcd_bar/q_bar_prev = {_fraction_ratio_str(g2, state.q_bar[k - 1])}")
        lowest[0].append(_divide_out(state.p[k], state.q[k], g1))
        lowest[1].append(_divide_out(state.p_bar[k], state.q_bar[k], g2))

    for l in range(state.level + 1):
        try:
            data = state.direction(l)
        except (ValueError, ExponentOverflow) as exc:
            rep.add("direction_data", f"level {l}", None, note=str(exc))
            continue
        factor = 2 * max(l, 1)
        bound_num = sup_norm(data.nu_tilde)
        scaled = data.q_tilde * factor * powers[l][2]
        rep.add("direction_size_bound", f"level {l}", scaled >= bound_num,
                margin=_fraction_ratio_str(scaled, bound_num),
                note="factor max(l,1) substituted at l = 0")
        # the two exponent-index variants of the twist-factor bound
        # c(l) <= 2 max(l,1) qbar^4 coexist upstream; report both margins
        margins = [f"prev: {_fraction_ratio_str(factor * powers[l][1], data.c)}"]
        if l < state.level:
            margins.append(
                f"next: {_fraction_ratio_str(factor * powers[l + 1][1], data.c)}")
        rep.add("twist_factor_bound", f"level {l}", None,
                margin="; ".join(margins),
                note="both exponent-index variants reported")
        g = big_gcd(*data.nu)
        rep.add("direction_coprime", f"level {l}", g == 1, margin=f"gcd = {g}")

    for l in range(state.level):
        a_even = state.a[2 * l + 1]
        cof = a_even * state.q[2 * l + 1] * state.q_bar[2 * l + 1] + 1
        rep.add("cofactor_coprime", f"level {l}",
                big_gcd(a_even, cof) == 1)

    # tail bound against the deepest approximant as proxy limit
    (deep1, den1), (deep2, den2) = lowest[0][-1], lowest[1][-1]
    for l in range(state.level):
        (a1, d1), (a2, d2) = lowest[0][2 * l + 1], lowest[1][2 * l + 1]
        bound = Fraction(2, state.a[2 * l + 1])
        tail1, tail_den = _lowest_difference(deep1, den1, a1, d1)
        lhs, rhs = abs(tail1) * bound.denominator, tail_den * bound.numerator
        ok = (lhs <= rhs
              and abs(deep2 * d2 - a2 * den2) * bound.denominator
              <= bound.numerator * den2 * d2)
        rep.add("tail_bound", f"level {l}", ok,
                margin=_fraction_ratio_str(lhs, rhs),
                note="proxy limit = deepest approximant"
                     + ("; toy-scale" if toy else ""))

    squares_ok = all(state.a[j + 1] > state.a[j] ** 2 for j in range(len(state.a) - 1))
    rep.add("factor_squares", "all indices",
            squares_ok if not toy else None,
            note="a_{j+1} > a_j^2" + ("; informational in toy mode" if toy else ""))

    # cross products: every denominator is positive
    increasing = all(n1 * d0 > n0 * d1 for pairs in lowest
                     for (n0, d0), (n1, d1) in zip(pairs, pairs[1:]))
    rep.add("approximants_increasing", "all indices", increasing)
    return rep


def _divide_out(num: int, den: int, g: int) -> tuple:
    """num/den in lowest terms by exact division, g = gcd(num, den)."""
    return int_divmod(num, g)[0], int_divmod(den, g)[0]


def _lowest_difference(na: int, da: int, nb: int, db: int) -> tuple:
    """na/da - nb/db in lowest terms, from two fractions in lowest terms
    with positive denominators, formed as `Fraction.__sub__` forms it: the
    gcd of the two denominators, then the gcd of the cross term with it."""
    g = big_gcd(da, db)
    if g == 1:
        return na * db - da * nb, da * db
    s = int_divmod(da, g)[0]
    t = na * int_divmod(db, g)[0] - nb * s
    g2 = big_gcd(t, g)
    if g2 == 1:
        return t, s * db
    return int_divmod(t, g2)[0], s * int_divmod(db, g2)[0]


def offdirection_divisor(state: ConstructionState, alpha, scale: int,
                         radius: int):
    """(l(n), least ||alpha . k|| over 0 < |k|_sup <= radius with k not
    parallel to nu(l(n))), l(n) the deepest level with q_tilde <= scale;
    (None, None) if there is none.  The divisor is exact (0 at a resonance,
    None for an empty ball).  alpha is `alpha_approx(state)`: shallower
    approximants can be resonant inside the radius."""
    l_of_n = None
    for l in range(state.level):
        if state.q_tilde[l] <= scale:
            l_of_n = l
    if l_of_n is None:
        return None, None
    value, _ = _divisor_min(alpha, radius, skip_parallel_to=state.nu[l_of_n],
                            raise_resonance=False)
    return l_of_n, value


def _log_inv(x: Fraction):
    """log(1/x) for a positive rational, safe for huge parts."""
    return mpmath.log(to_mpf(Fraction(x.denominator))) - mpmath.log(to_mpf(Fraction(x.numerator)))


def _scan_alpha(state: ConstructionState, level: int):
    """Approximant used for level-l divisor scans: the level's own even
    approximant alpha_{.,2(l+1)}.  Its divisor structure at scale q_tilde(l)
    is exactly the one the level's growth factors control; increments from
    deeper levels sit below the gap only at paper growth rates, so scanning
    the deepest approximant would inject toy-mode noise."""
    return state.alpha_pair_at(2 * (level + 1))


def verify_divisor_bounds(state: ConstructionState,
                          level: int) -> VerificationReport:
    """Small-divisor structure at one level, from an exact full-ball scan.

    Scans the full ball |l|_sup <= q_tilde(level) on the level's even exact
    approximant: the minimizer must be +/- nu(level), and the minimum must
    respect the exact lower bound 1/(2 (a_{2l+2} qbar_{2l+1} q_{2l+1} + 1)).
    Ray (parallel) multiples get the two-sided per-|m| bounds; non-parallel
    annulus vectors get the exact divisor floor 1/(2 a_{2l+1} q_{2l} qbar_{2l}
    c(l)).  ScanTooLarge if q_tilde(level) exceeds SCAN_GUARD; the ray
    entries check the first 64 multiples at most.
    """
    if level >= state.level:
        raise ValueError("divisor bounds need the level's growth factors; "
                         f"advance the state beyond level {level}")
    data = state.direction(level)
    if data.q_tilde > SCAN_GUARD:
        raise ScanTooLarge(
            f"q_tilde({level}) = {data.q_tilde} exceeds the scan guard {SCAN_GUARD}")
    rep = VerificationReport(
        f"divisor bounds at level {level}",
        _report_header(state, scan_radius=data.q_tilde,
                       scan_vector=f"even approximant of level {level}"))
    toy = state.mode == "toy"
    alpha = _scan_alpha(state, level)

    # divisor ordering (the minimizer sits on the twisted direction) is a
    # paper-rate property: it needs a_{2l+2} >> q_tilde, which toy growth
    # cannot reach; toy entries are measurements, not assertions
    assertable = not toy

    omega, argmin = _divisor_min(alpha, data.q_tilde, raise_resonance=False)
    canonical_nu = data.nu if data.nu[0] > 0 else (-data.nu[0], -data.nu[1])
    rep.add("argmin_is_direction", f"level {level}",
            (argmin == canonical_nu) if assertable else None,
            margin=f"argmin = {argmin}, nu = {data.nu}",
            note="" if assertable else "toy-scale measurement")

    a_odd, a_even = state.a[2 * level], state.a[2 * level + 1]
    q_odd, qb_odd = state.q[2 * level + 1], state.q_bar[2 * level + 1]
    lower = Fraction(1, 2 * (a_even * qb_odd * q_odd + 1))
    rep.add("omega_lower_bound", f"level {level}", omega >= lower,
            margin=_fraction_ratio_str(omega.numerator * lower.denominator,
                                       omega.denominator * lower.numerator))
    upper = Fraction(8 * max(level, 1) * qb_odd ** 5, a_even)
    rep.add("omega_upper_bound", f"level {level}",
            (omega <= upper) if not toy else None,
            margin=_fraction_ratio_str(upper.numerator * omega.denominator,
                                       upper.denominator * omega.numerator),
            note="factor max(l,1) substituted at l = 0"
                 + ("; toy-scale" if toy else ""))

    # non-parallel floor over the same ball (exact)
    off_min, off_arg = _divisor_min(alpha, data.q_tilde, skip_parallel_to=data.nu,
                                    raise_resonance=False)
    if off_min is not None:
        q2l, qb2l = state.q[2 * level], state.q_bar[2 * level]
        floor_np = Fraction(1, 2 * a_odd * q2l * qb2l * data.c)
        rep.add("nonparallel_floor", f"level {level}",
                (off_min >= floor_np) if assertable else None,
                margin=_fraction_ratio_str(
                    off_min.numerator * floor_np.denominator,
                    off_min.denominator * floor_np.numerator),
                note=f"attained at {off_arg}"
                     + ("" if assertable else "; toy-scale measurement"))
        rep.add("parallel_strictly_smallest", f"level {level}",
                (omega < off_min) if assertable else None,
                margin=_fraction_ratio_str(
                    off_min.numerator * omega.denominator,
                    off_min.denominator * omega.numerator),
                note="" if assertable else "toy-scale measurement")

    _ray_entries(rep, state, level, 64)
    return rep


def _ray_entries(rep: VerificationReport, state: ConstructionState, level: int,
                 ray_cap: int) -> None:
    """Two-sided bounds along multiples of nu(level); cheap at any level."""
    data = state.direction(level)
    alpha = _scan_alpha(state, level)
    base = alpha[0] * data.nu[0] + alpha[1] * data.nu[1]
    base_dist = nearest_int_distance(base)
    if level + 1 <= state.level:
        try:
            q_next = state.direction(level + 1).q_tilde
        except (ValueError, ExponentOverflow):
            q_next = None
    else:
        q_next = None
    if q_next is None:
        rep.add("ray_bounds", f"level {level}", None,
                note="next level unavailable; ray range unknown")
        return
    m_hi_inner = int_nth_root(q_next, 2) // data.q_tilde  # |m| q_tilde < sqrt(q_next)
    toy = state.mode == "toy"
    l_eff = max(level, 2)
    checked = 0
    worst = None
    for m in range(1, min(m_hi_inner, ray_cap) + 1):
        val = m * base_dist
        if val >= Fraction(1, 2):
            break
        ell1 = m * l1_norm(data.nu)
        ratio = _log_inv(val) / ell1
        lo = to_mpf(Fraction(1, 4 * m * l_eff)) / mpmath.log(l_eff)
        hi = to_mpf(Fraction(4, m * l_eff)) / mpmath.log(l_eff)
        ok = bool(lo <= ratio <= hi)
        checked += 1
        if worst is None or not ok:
            worst = (m, ratio, lo, hi, ok)
    if checked:
        m, ratio, lo, hi, ok = worst
        rep.add("ray_two_sided", f"level {level}",
                (ok if not toy else None),
                margin=f"m={m}: {mpmath.nstr(lo, 6)} <= {mpmath.nstr(ratio, 6)}"
                       f" <= {mpmath.nstr(hi, 6)}",
                note=f"{checked} multiples checked; l_eff = max(l, 2)"
                     + ("; toy-scale" if toy else ""))
    else:
        rep.add("ray_two_sided", f"level {level}", None,
                note="no in-range multiples (sqrt(q_tilde(l+1)) < 2 q_tilde)")


def verify_criteria(state: ConstructionState,
                    max_scale: int = 128) -> VerificationReport:
    """Finite-scale checks of the scale-separation criteria.

    1. q_tilde(l+1) > 4 q_tilde(l), exactly.
    2. The per-level loss rate log(1/Omega(q_tilde))/q_tilde sits inside the
       two-sided band recomputed from the level's own integers
       (log of the exact divisor sandwich); the nominal paper-rate band
       [1/(2 t_n log t_n), 4/(t_n log t_n)] is reported alongside.
    3. Direction angles within a twist bracket are separated; the measured
       constant theta * t_n^(tb/2) is reported.
    4. Partial sums over non-direction divisors stay summable-looking at the
       scanned scales (k_n from `offdirection_divisor` up to max_scale).
    5. Ray bounds are delegated to verify_divisor_bounds/_ray_entries.
    """
    if max_scale > SCAN_GUARD:
        raise ScanTooLarge(f"max_scale {max_scale} exceeds 1e5")
    rep = VerificationReport("scale-separation criteria",
                             _report_header(state, max_scale=max_scale))
    toy = state.mode == "toy"
    levels = state.level
    if levels < 2:
        rep.add("levels", "state", None, note="insufficient levels (need >= 2)")

    for l in range(levels - 1):
        ratio_ok = state.q_tilde[l + 1] > 4 * state.q_tilde[l]
        rep.add("scale_growth", f"levels {l}->{l + 1}", ratio_ok,
                margin=_fraction_ratio_str(state.q_tilde[l + 1], state.q_tilde[l]))

    for l in range(levels):
        data = state.direction(l)
        alpha = _scan_alpha(state, l)
        base = nearest_int_distance(alpha[0] * data.nu[0] + alpha[1] * data.nu[1])
        if base == 0:
            rep.add("loss_rate_band", f"level {l}", False, note="resonant approximant")
            continue
        term = _log_inv(base) / data.q_tilde
        a_even = state.a[2 * l + 1]
        q_odd, qb_odd = state.q[2 * l + 1], state.q_bar[2 * l + 1]
        hi = _log_inv(Fraction(1, 2 * (a_even * qb_odd * q_odd + 1))) / data.q_tilde
        up = Fraction(8 * max(l, 1) * qb_odd ** 5, a_even)
        lo = max(mp.mpf(0), _log_inv(up) / data.q_tilde) if up < 1 else mp.mpf(0)
        ok = bool(lo <= term <= hi)
        nominal_lo = 1 / (2 * data.t_n * mpmath.log(data.t_n))
        nominal_hi = 4 / (data.t_n * mpmath.log(data.t_n))
        in_nominal = bool(nominal_lo <= term <= nominal_hi)
        rep.add("loss_rate_band", f"level {l}", ok,
                margin=f"{mpmath.nstr(lo, 6)} <= {mpmath.nstr(term, 6)} <= {mpmath.nstr(hi, 6)}",
                note="band recomputed from level integers")
        rep.add("loss_rate_paper_band", f"level {l}",
                in_nominal if not toy else None,
                margin=f"nominal [{mpmath.nstr(nominal_lo, 6)}, {mpmath.nstr(nominal_hi, 6)}]",
                note="toy-scale, not paper-rate" if toy else "")

    # condition 3: angle separation inside common twist brackets
    pairs = 0
    for i in range(levels):
        for j in range(i + 1, levels):
            di, dj = state.direction(i), state.direction(j)
            if di.bracket_n != dj.bracket_n:
                continue
            pairs += 1
            cross = di.nu[0] * dj.nu[1] - di.nu[1] * dj.nu[0]
            dot = di.nu[0] * dj.nu[0] + di.nu[1] * dj.nu[1]
            angle = abs(mpmath.atan2(abs(cross), dot))
            angle = min(angle, mpmath.pi - angle)  # direction, not orientation
            scale = mpmath.power(di.t_n, to_mpf(state.theta_bar) / 2)
            rep.add("angle_separation", f"levels {i},{j}", bool(cross != 0),
                    margin=f"theta*t_n^(tb/2) = {mpmath.nstr(angle * scale, 6)}",
                    note="measured constant; positivity checked exactly")
    if pairs == 0:
        rep.add("angle_separation", "state", None,
                note="no two computed levels share a twist bracket")

    # condition 4: non-direction divisors at dyadic scales
    k_total = mp.mpf(0)
    scan_vec = alpha_approx(state)
    for n in range(1, max_scale.bit_length()):
        scale = 1 << n
        l_of_n, k_min = offdirection_divisor(state, scan_vec, scale, scale)
        if l_of_n is None:
            continue
        if k_min is None or k_min == 0:
            rep.add("offdirection_sum", f"scale 2^{n}", False, note="degenerate scan")
            continue
        nu = state.nu[l_of_n]
        base = nearest_int_distance(scan_vec[0] * nu[0] + scan_vec[1] * nu[1])
        rep.add("offdirection_dominates", f"scale 2^{n}",
                bool(k_min > base) if (scale >= state.q_tilde[l_of_n] and not toy) else None,
                margin=_fraction_ratio_str(
                    k_min.numerator * base.denominator,
                    k_min.denominator * base.numerator))
        k_total += _log_inv(k_min) / scale
    rep.add("offdirection_sum", f"scales <= {max_scale}", None,
            margin=mpmath.nstr(k_total, 8),
            note="finite-depth partial sum; summability is asymptotic")
    return rep
