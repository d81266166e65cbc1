"""Truncated Fourier calculus for analytic torus maps.

A FourierMap stores, for each of its components, the complex coefficients
f_hat(l) over the centered box |l|_sup <= n_max, representing

    f(x) = sum_l f_hat(l) exp(2 pi i l . x),      x in T^d.

The maps of the KAM scheme are real-valued: f_hat(-l) = conj(f_hat(l)).
All operations preserve that symmetry up to a few ulp and
`hermitian_defect` measures it; only the coefficients are complex, and
every value the layer returns is real.

The stored box's sup and l1 norms, the phase e^(2 pi i l . v) and the
direction products |beta . l| are built here only, so the KAM solver and
`translate` share one phase.

Norms follow the sliced-domain convention: each lattice mode carries the
weight exp(2 pi w(l)) with w(l) = max over directions beta of
delta_beta |beta . l|.  With constant radii this equals the classical
analytic norm sum |f_hat(l)| exp(2 pi delta |l|_2) exactly (the maximizing
direction is l/|l|_2, so the implementation uses the closed form rather than
a literal grid augmentation).  Vector-valued maps report the max over
components.

On the uniform grid of m^d points `grid_values` and `_reexpand` are one
exact inverse pair, with one map between modes and FFT bins (`_bins`):
`grid_values` scatters the coefficients into their bins and returns the
real part of one inverse FFT; `_reexpand` takes real samples, one column
per component, transforms all components in one forward FFT, gathers the
same bins and reports the mass it drops as spill.  Every grid round trip
of composition, inversion and the KAM stage goes through this pair.
Values at arbitrary points are the real part of the dense trigonometric
sum, `evaluate`, in real arithmetic: each axis folds mode -b onto b, so
the coefficients become one real (2s + 1)^d array over the basis
cos 0..s, sin 1..s of each axis (`_real_form`, `_real_basis`).
It sums only over the central box |l|_sup <= s that holds the nonzero
coefficients, at cost O(P (2s + 1)^d) real multiply-adds per component for
P points, half a complex sum's, and runs over fixed blocks of points so its
temporaries stay small; s is far below n_max for the stage maps of the KAM
loop, whose solver zeroes every mode outside its truncation.  The complex
sum that it replaces is an oracle of the tests.
Values at grid points plus small offsets, g(x + delta(x)), are Taylor sums
from the grid, `GridTaylor`: each derivative d^t g is a real inverse FFT
over the same bins, and the sum is nested Horner in the offsets to an order
fixed a priori by a bound on the tail; an offset beyond the radius of that
order is refused.  Its cost, O(K^2 m^d log m) for order K, does not grow
with the number of modes, so it replaces the dense sum wherever a map of
many modes is evaluated at perturbed grid points: every evaluation of the
KAM stage.  For a map of few modes the dense sum is the cheaper one, and
the dense sum stays the independent route of composition, inversion and
the KAM loop's direct check.
The layer owns its transforms' error model: the FFT's normwise error
(`_fft_rho`), the Lipschitz constant of a map (`_lipschitz`), and the
tail, Horner and synthesis bounds of the Taylor sums (`GridTaylor`).

Composition f(x + h(x)) has two independent routes: the primary path samples
on a uniform grid of (4 n_max)^d points (h by inverse FFT, f at the shifted
points by the dense sum) and re-expands by FFT, reporting the coefficient
mass that lands beyond n_max as "spill"; the oracle path, with no FFT,
grid value or dense evaluation, sums the Taylor series
f(x + h) = sum_a h_1^a / a! sum_b h_2^b / b! d_1^a d_2^b f in nested Horner
form, each product by a component of h and never by a power of it, to an
order fixed a priori by a bound on the whole tail, on nonzero supports that
drop exactly the modes unable to reach the output box; it refuses outside
its convergence radius.
Near-identity inversion likewise: the fixed-point sweep `_preimages` on the
grid, with the dense sum, against the telescoping difference series.  The
KAM stage runs the same sweep at its own points with Taylor values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionFailure, OffsetBeyondRadius, OracleDivergence
from .reports import VerificationReport
from .schedule import DirectionGrid

TWO_PI = 2 * math.pi
# points per block of the dense evaluation: bounds its (components, 2 n_max
# + 1, block) temporaries to a few MB at any point count
EVAL_BLOCK = 1024
# relative l1 size of what the series oracles leave unsummed
SERIES_TOL = 1e-16
# unit roundoff of float64
UNIT_ROUNDOFF = 2.0 ** -53
# highest order a GridTaylor takes before it refuses a radius
TAYLOR_MAX_ORDER = 30


class FourierMap:
    """Truncated Fourier coefficients of a map T^d -> C^components.

    coeffs has shape (components,) + (2 n_max + 1,) * d with axis index i
    holding mode i - n_max.  Instances are immutable by convention; `info`
    carries producer metadata (composition spill, inversion residuals),
    which the producers fill in after construction.
    """

    __slots__ = ("d", "n_max", "coeffs", "info")

    def __init__(self, d: int, n_max: int, coeffs: np.ndarray):
        expected = (2 * n_max + 1,) * d
        if coeffs.ndim != d + 1 or coeffs.shape[1:] != expected:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match "
                             f"d={d}, n_max={n_max}")
        self.d = d
        self.n_max = n_max
        self.coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        self.info = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, d: int, n_max: int, components: int | None = None):
        components = d if components is None else components
        return cls(d, n_max, np.zeros((components,) + (2 * n_max + 1,) * d,
                                       dtype=np.complex128))

    @classmethod
    def from_modes(cls, d: int, n_max: int, modes: dict,
                   components: int | None = None, hermitian: bool = True):
        """Build from {lattice vector: coefficient vector (or scalar)}.

        With hermitian=True (the default) the conjugate modes are filled in,
        so the result represents a real-valued map.
        """
        components = d if components is None else components
        out = cls.zeros(d, n_max, components)
        for l, val in modes.items():
            vec = np.broadcast_to(np.asarray(val, dtype=np.complex128),
                                  (components,))
            out.coeffs[out._index(l)] += vec
            if hermitian and any(c != 0 for c in l):
                out.coeffs[out._index([-int(c) for c in l])] += np.conj(vec)
        return out

    @classmethod
    def constant(cls, d: int, n_max: int, value, components: int | None = None):
        components = d if components is None else components
        out = cls.zeros(d, n_max, components)
        out.coeffs[(slice(None),) + (n_max,) * d] = \
            np.broadcast_to(np.asarray(value, dtype=np.complex128), (components,))
        return out

    # -- basic access ------------------------------------------------------

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def _index(self, l) -> tuple:
        """The coefficient index of mode l, which must have d components
        and |l|_sup <= n_max (ValueError)."""
        if len(l) != self.d or max(abs(int(c)) for c in l) > self.n_max:
            raise ValueError(f"mode {tuple(l)} is not stored: d={self.d}, "
                             f"n_max={self.n_max}")
        return (slice(None),) + tuple(int(c) + self.n_max for c in l)

    def mode(self, l) -> np.ndarray:
        return self.coeffs[self._index(l)]

    def mean(self) -> np.ndarray:
        return self.mode((0,) * self.d)

    def component(self, j: int) -> "FourierMap":
        return FourierMap(self.d, self.n_max, self.coeffs[j:j + 1])

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, FourierMap):
            raise TypeError("expected a FourierMap")
        if (self.d, self.components) != (other.d, other.components):
            raise ValueError("incompatible maps")
        n = max(self.n_max, other.n_max)
        a = retruncate(self, n).coeffs
        b = retruncate(other, n).coeffs
        return FourierMap(self.d, n, op(a, b))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scaled(self, factor) -> "FourierMap":
        return FourierMap(self.d, self.n_max, self.coeffs * factor)

    # -- analysis ----------------------------------------------------------

    def l1_norm(self) -> float:
        """Unweighted coefficient norm: max over components of sum |f_hat|."""
        return float(np.abs(self.coeffs).sum(axis=tuple(range(1, self.d + 1))).max())

    def hermitian_defect(self) -> float:
        flipped = self.coeffs
        for ax in range(1, self.d + 1):
            flipped = np.flip(flipped, axis=ax)
        return float(np.abs(self.coeffs - np.conj(flipped)).max())

    def is_real(self) -> bool:
        """Whether the coefficients represent a real-valued map: Hermitian
        up to 1e-9 of the l1 norm (or of 1 for small maps), far above the
        few ulp that the operations leave."""
        return self.hermitian_defect() <= 1e-9 * max(self.l1_norm(), 1.0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Real part of the dense trigonometric sum at arbitrary points,
        float64 of shape (components, P), for any coefficients, Hermitian or
        not.

        points: (P, d) or a single point (d,).  The sum runs over the
        central box |l|_sup <= s only, s being the nonzero radius (the
        largest |l|_sup of a nonzero coefficient in any component, 0 for the
        zero map), in real arithmetic: the coefficients are folded once per
        call into their `_real_form` A, and each block of EVAL_BLOCK points
        makes one real GEMM A X(y) over the second axis's `_real_basis` and
        one contraction with the first axis's, cost O(P (2s + 1)^d).  For
        values on the uniform sample grid use `grid_values`.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.d:
            raise ValueError("point dimension mismatch")
        if self.d > 2:
            raise NotImplementedError("evaluation implemented for d <= 2")
        # n is the nonzero radius s: the terms outside its box are exact
        # zeros and the phase rows |m| <= s are the same cumulative products
        n = nonzero_radius(self)
        c = self.components
        coeffs = _real_form(retruncate(self, n).coeffs, n)
        out = np.empty((c, pts.shape[0]), dtype=np.float64)
        rows = coeffs.shape[1]
        for start in range(0, pts.shape[0], EVAL_BLOCK):
            block = pts[start:start + EVAL_BLOCK]
            phase0 = _real_basis(block[:, 0], n)
            if self.d == 1:
                vals = coeffs @ phase0
            else:
                # (c a, b) @ (b, p) is one BLAS call; then contract axis a
                # against the first-axis basis without a (c, a, p) product
                tmp = (coeffs.reshape(c * rows, -1)
                       @ _real_basis(block[:, 1], n)).reshape(c, rows, -1)
                vals = np.einsum("cap,ap->cp", tmp, phase0)
            out[:, start:start + EVAL_BLOCK] = vals
        return out

    def grid_values(self, m: int) -> np.ndarray:
        """Values at `_sample_points(d, m)`, float64 of shape
        (components, m^d): the real part, a view with no copy, of an
        inverse FFT of the coefficients scattered into their `_bins` and
        zero elsewhere.  `_reexpand` is its exact inverse: it gathers the
        same bins of a forward FFT.  Needs m >= 2 n_max + 1 so that no two
        modes alias."""
        if m < 2 * self.n_max + 1:
            raise ValueError(f"grid of {m} points per axis aliases modes "
                             f"|l| <= {self.n_max}")
        padded = np.zeros((self.components,) + (m,) * self.d, dtype=np.complex128)
        bins = np.ix_(*[_bins(self.n_max, m)] * self.d)
        padded[(slice(None),) + bins] = self.coeffs
        axes = tuple(range(1, self.d + 1))
        vals = np.fft.ifftn(padded, axes=axes) * m ** self.d
        return vals.reshape(self.components, -1).real


def nonzero_radius(f: FourierMap) -> int:
    """Largest |l|_sup of a nonzero coefficient in any component (0 for
    the zero map)."""
    nonzero = np.any(f.coeffs != 0, axis=0)
    return int(_sup_norms(f.d, f.n_max)[nonzero].max(initial=0))


def retruncate(f: FourierMap, n_max: int) -> FourierMap:
    """View f at an arbitrary truncation: pad with zeros or drop the outer
    modes (an exact head extraction when shrinking)."""
    if n_max == f.n_max:
        return f
    small, big = sorted((n_max, f.n_max))
    inner = (slice(None),) + (slice(big - small, big + small + 1),) * f.d
    if n_max < f.n_max:
        return FourierMap(f.d, n_max, f.coeffs[inner])
    out = FourierMap.zeros(f.d, n_max, f.components)
    out.coeffs[inner] = f.coeffs
    return out


def _phase_rows(x: np.ndarray, n_max: int) -> np.ndarray:
    """exp(2 pi i m x_p) for m = 0..n_max: one exp row, then cumulative
    products written in place (complex exp is ~50x costlier than a complex
    multiply)."""
    base = np.exp(2j * np.pi * x)
    out = np.empty((n_max + 1, x.size), dtype=np.complex128)
    out[0] = 1.0
    for m in range(1, n_max + 1):
        np.multiply(out[m - 1], base, out=out[m])
    return out


def _real_basis(x: np.ndarray, n_max: int) -> np.ndarray:
    """The real trigonometric basis at x: rows cos(2 pi m x_p) for
    m = 0..n_max, then sin(2 pi m x_p) for m = 1..n_max (2 n_max + 1 rows),
    the real and imaginary parts of `_phase_rows`."""
    rows = _phase_rows(x, n_max)
    out = np.empty((2 * n_max + 1, x.size), dtype=np.float64)
    out[:n_max + 1] = rows.real
    out[n_max + 1:] = rows.imag[1:]
    return out


def _real_form(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real coefficients A of Re sum_l c_l e_l(x) in the `_real_basis` of
    each axis, for the box |l|_sup <= n: shape (c, 2n + 1) for d = 1 and
    (c, 2n + 1, 2n + 1) for d = 2, so that Re f(x) = A . X(x) or
    X(x)^T A X(y) per component.

    Each axis folds mode -b onto b.  Along the first axis
    Re(c_l e_l) + Re(c_-l e_-l) = Re((c_l + conj c_-l) e_l) leaves
    F[a, .] for a = 0..n, with F[0, .] the unfolded row 0 (its pairs l, -l
    both sit in that row).  Along the second axis
    F[a, b] e_b + F[a, -b] e_-b = P cos_b + i Q sin_b with
    P = F[a, b] + F[a, -b] and Q = F[a, b] - F[a, -b] for b = 1..n, and
    P = F[a, 0] for b = 0, whose sine row vanishes.  Then
    Re(T_a e_a) = Re T_a cos_a - Im T_a sin_a with
    T_a = sum_b P cos_b + i Q sin_b gives the cos_a row
    [Re P, -Im Q] and, for a >= 1, the sin_a row -[Im P, Re Q].
    """
    folded = coeffs[:, n:].copy()
    mirror = np.flip(coeffs[:, :n], axis=tuple(range(1, coeffs.ndim)))
    folded[:, 1:] += np.conj(mirror)
    if coeffs.ndim == 2:
        return np.concatenate([folded.real, -folded.imag[:, 1:]], axis=1)
    c = coeffs.shape[0]
    ahead, behind = folded[:, :, n + 1:], np.flip(folded[:, :, :n], axis=2)
    plus = np.concatenate([folded[:, :, n:n + 1], ahead + behind], axis=2)
    minus = ahead - behind
    out = np.empty((c, 2 * n + 1, 2 * n + 1), dtype=np.float64)
    out[:, :n + 1, :n + 1] = plus.real
    out[:, :n + 1, n + 1:] = -minus.imag
    out[:, n + 1:, :n + 1] = -plus.imag[:, 1:]
    out[:, n + 1:, n + 1:] = -minus.real[:, 1:]
    return out


# ---------------------------------------------------------------------------
# sliced domains and norms


@dataclass(frozen=True)
class SlicedDomain:
    """Union of direction-indexed analyticity slices with radii per grid
    direction; `constant_radius` marks the classical strip, for which the
    per-mode weight has the exact closed form delta |l|_2."""

    grid: DirectionGrid
    radii: tuple
    constant_radius: float | None = None

    def __post_init__(self):
        if len(self.radii) != len(self.grid):
            raise ValueError("one radius per grid direction required")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")

    @classmethod
    def constant(cls, d: int, delta: float, grid: DirectionGrid | None = None):
        if grid is None:
            grid = DirectionGrid.pair() if d == 1 else DirectionGrid.circle(64)
        return cls(grid=grid, radii=(float(delta),) * len(grid),
                   constant_radius=float(delta))

    @classmethod
    def from_schedule_column(cls, sched, n: int):
        radii = tuple(float(v) for v in sched.values[n])
        return cls(grid=sched.grid, radii=radii)

    def min_radius(self) -> float:
        return min(self.radii)


def norm_xi(f: FourierMap, domain: SlicedDomain) -> float:
    """Weighted coefficient norm sum_l |f_hat(l)| exp(2 pi w(l)), with
    w(l) the max over the domain's directions of delta_beta |beta . l|
    (delta |l|_2 at a constant radius), evaluated over the whole mode box;
    max over components.
    """
    if domain.constant_radius is not None:
        idx = np.arange(-f.n_max, f.n_max + 1, dtype=np.float64)
        if f.d == 1:
            w = np.abs(idx) * domain.constant_radius
        else:
            w = np.hypot(idx[:, None], idx[None, :]) * domain.constant_radius
    else:
        dots = _direction_dots(domain.grid.directions, f.n_max)
        radii = np.asarray(domain.radii, dtype=np.float64)
        w = (radii.reshape((-1,) + (1,) * f.d) * dots).max(axis=0)
    return max(_weighted_sums(f, w))


def seminorm_beta(f: FourierMap, beta, delta_bar) -> float:
    """Directional seminorm sum_l |f_hat(l)| exp(2 pi delta_bar |beta . l|);
    max over components."""
    if delta_bar < 0:
        raise ValueError("delta_bar must be >= 0")
    dots = _direction_dots([beta], f.n_max)[0]
    return max(_weighted_sums(f, float(delta_bar) * dots))


def _weighted_sums(f: FourierMap, w: np.ndarray) -> tuple:
    """sum_l |f_hat_j(l)| exp(2 pi w(l)) per component j, w given over the
    stored mode box: the one weighting of `norm_xi` and `seminorm_beta`."""
    weights = np.exp(TWO_PI * w)
    return tuple(float((np.abs(f.coeffs[j]) * weights).sum())
                 for j in range(f.components))


def truncate_split(f: FourierMap, N: int):
    """Exact coefficient partition (head, tail): head holds |l|_sup <= N."""
    if N > f.n_max:
        raise ValueError("N exceeds the stored truncation")
    if N < 0:
        raise ValueError("N must be >= 0")
    mask = (_sup_norms(f.d, f.n_max) <= N)[None]
    head = FourierMap(f.d, f.n_max, np.where(mask, f.coeffs, 0))
    tail = FourierMap(f.d, f.n_max, np.where(mask, 0, f.coeffs))
    return head, tail


# ---------------------------------------------------------------------------
# the mode lattice: functions of l over the stored box, shape
# (2 n_max + 1,) * d with axis index i holding mode i - n_max


@functools.cache
def _sup_norms(d: int, n_max: int) -> np.ndarray:
    """|l|_sup over the stored mode box, one read-only table per (d, n_max)
    (`nonzero_radius` reads it on every call)."""
    idx = np.abs(np.arange(-n_max, n_max + 1))
    table = functools.reduce(np.maximum.outer, [idx] * d)
    table.flags.writeable = False
    return table


@functools.cache
def _l1_norms(d: int, n_max: int) -> np.ndarray:
    """|l|_1 over the stored mode box, one read-only table per (d, n_max)."""
    idx = np.abs(np.arange(-n_max, n_max + 1))
    table = functools.reduce(np.add.outer, [idx] * d)
    table.flags.writeable = False
    return table


def _dots(d: int, n_max: int, v: np.ndarray) -> np.ndarray:
    """l . v over the stored mode box, for a real vector v."""
    idx = np.arange(-n_max, n_max + 1)
    return functools.reduce(np.add.outer, [idx * v[k] for k in range(d)])


def _phase(d: int, n_max: int, v: np.ndarray) -> np.ndarray:
    """e^(2 pi i l . v) over the stored mode box, l . v rounded before it
    meets 2 pi i: the one phase that `translate` multiplies by and
    `kam.solve_cohomological` divides by (minus one), so its rounding drops
    out of the cohomological residual (see `kam._residual_bound`)."""
    return np.exp(2j * np.pi * _dots(d, n_max, v))


def _direction_dots(directions, n_max: int) -> np.ndarray:
    """|beta . l| for each direction beta of `directions` (G vectors of
    length d) over the stored mode box, shape (G,) + (2 n_max + 1,) * d."""
    dirs = np.asarray(directions, dtype=np.float64)
    idx = np.arange(-n_max, n_max + 1, dtype=np.float64)
    if dirs.shape[1] == 1:
        return np.abs(dirs * idx[None, :])
    lx = np.repeat(idx, idx.size)
    ly = np.tile(idx, idx.size)
    dots = np.abs(dirs @ np.vstack([lx, ly]))
    return dots.reshape(len(dirs), idx.size, idx.size)


def multiply(f: FourierMap, g: FourierMap) -> FourierMap:
    """Coefficient convolution of scalar maps; output truncation doubles.

    In d = 2 `_convolve2d` adds f_hat(l) * g_hat over the nonzero l in
    row-major order.  f stays the left operand of every product: the
    complex product is not bitwise commutative where numpy uses FMA.
    """
    if f.components != 1 or g.components != 1:
        raise ValueError("multiply expects scalar (single component) maps")
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    n_out = f.n_max + g.n_max
    a, b = f.coeffs[0], g.coeffs[0]
    if f.d == 1:
        conv = np.convolve(a, b)
    else:
        conv = _convolve2d(a, b)
    return FourierMap(f.d, n_out, conv[None])


def _convolve2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D convolution by the dense loop: from +0, add a[i, j] * b at
    offset (i, j) for each nonzero a[i, j] in row-major order."""
    bh, bw = b.shape
    out = np.zeros((a.shape[0] + bh - 1, a.shape[1] + bw - 1),
                   dtype=np.complex128)
    for i, j in zip(*np.nonzero(a)):
        out[i:i + bh, j:j + bw] += a[i, j] * b
    return out


def derivative(f: FourierMap, j: int) -> FourierMap:
    """Coefficient-wise 2 pi i l_j multiplier (derivative in the j-th angle,
    1-based)."""
    if not 1 <= j <= f.d:
        raise ValueError(f"axis {j} out of range for d={f.d}")
    idx = np.arange(-f.n_max, f.n_max + 1)
    shape = [1] * (f.d + 1)
    shape[j] = 2 * f.n_max + 1
    factor = (2j * np.pi * idx).reshape(shape)
    return FourierMap(f.d, f.n_max, f.coeffs * factor)


# ---------------------------------------------------------------------------
# sampling grid, composition, inversion


def _sample_points(d: int, m: int) -> np.ndarray:
    xs = np.arange(m) / m
    if d == 1:
        return xs[:, None]
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _grid_size(n_max: int) -> int:
    """Points per axis of the sampling grid: 4 n_max, at least 8."""
    return max(4 * n_max, 8)


def _bins(n_max: int, m: int) -> np.ndarray:
    """FFT bin of each mode -n_max..n_max along an axis of m points: the
    index that `grid_values` scatters the coefficients by and `_reexpand`
    gathers them by."""
    return np.arange(-n_max, n_max + 1) % m


def _reexpand(values: np.ndarray, d: int, n_max: int):
    """FFT re-expansion of real grid samples, the exact inverse of
    `grid_values`; returns (map, spill).

    values holds one row per point of `_sample_points(d, m)` and one column
    per component, shape (m^d, components).  One forward FFT over the grid
    axes transforms every component, and the modes |l|_sup <= n_max are
    gathered from their `_bins`.  spill is the recovered coefficient mass in
    the aliasing-safe band n_max < |l|_sup <= m/2 - 1 (max over
    components): the part of the samples that does not fit the stored
    truncation.
    """
    m = round(len(values) ** (1 / d))
    spectrum = np.fft.fftn(values.reshape((m,) * d + (-1,)),
                           axes=tuple(range(d))) / m ** d
    freq = np.abs(np.fft.fftfreq(m, 1.0 / m))
    sup = functools.reduce(np.maximum.outer, [freq] * d)
    band = np.abs(spectrum[(sup > n_max) & (sup <= m // 2 - 1)])
    # one contiguous row per component: each is summed pairwise in bin order
    spill = float(np.ascontiguousarray(band.T).sum(axis=1).max())
    kept = spectrum[np.ix_(*[_bins(n_max, m)] * d)]
    return FourierMap(d, n_max, np.moveaxis(kept, -1, 0)), spill


class GridTaylor:
    """Values of a real map g at the points x + delta(x), x running over
    `_sample_points(d, m)` and delta an offset per point, d <= 2:

        g(x + delta) = sum_{a + b <= K} delta_1^a / a! delta_2^b / b!
                       d_1^a d_2^b g(x) + tail,

    the Taylor evaluation from the grid of Anderson and Dahleh (SIAM J.
    Sci. Comput. 17, 1996).  In d = 1 the sum runs over b alone.

    Construction synthesizes the order-0 values, `grid`, shape
    (components, m^d); every sum at x adds its higher orders to these same
    values.  `fix_radius`(r) then picks the order K: the smallest with the
    a-priori tail

        max_j sum_l |g_j(l)| sum_{t > K} (2 pi |l|_1 r)^t / t! <= u |g|,

    u = 2^-53 and |g| the l1 norm, each inner sum bounded by
    x^(K+1) / (K+1)! / (1 - x / (K+2)); e^(2 pi i l . delta) is off from
    its Taylor polynomial of total order K by at most that inner sum at
    x = 2 pi |l|_1 |delta|_sup, so the tail of every value is at most
    `tail`.  `radius` is then the largest r at which order K still meets
    the bound (infinite for a constant map).  Calling the object with
    offsets of shape (m^d, d) returns the values, shape (components, m^d)
    like `FourierMap.evaluate`; an offset beyond the radius raises
    OffsetBeyondRadius, and so does `fix_radius` at a radius that no order
    up to TAYLOR_MAX_ORDER meets.  `rounding` bounds the Horner and
    synthesis errors of the sums from the same shell table as the tail.

    Each derivative is a real inverse FFT over the `_bins` of the nonzero
    radius s of g: the coefficients are folded to the half spectrum of the
    last axis, (c_l + conj c_-l) / 2, whose real synthesis is exactly
    Re sum_l c_l e_l, and multiplied by (2 pi i l)^t.  The sum is nested
    Horner, acc <- S_a + acc delta_1 / (a + 1) over the rows a = K..0 and
    S <- d_1^a d_2^b g + S delta_2 / (b + 1) within one, products by delta
    and never by its powers.  A call works component by component and row
    by row: a row's derivatives share one inverse FFT over the first axis
    (2s + 1 modes), and each takes one `irfft` over the last when the
    Horner sum consumes it, so a call holds one derivative's values at a
    time.  Repeated calls synthesize the same derivatives again, bit for
    bit.
    """

    def __init__(self, g: FourierMap, m: int):
        if g.d > 2:
            raise NotImplementedError("Taylor values implemented for d <= 2")
        s = nonzero_radius(g)
        if m < 2 * s + 1:
            raise ValueError(f"grid of {m} points per axis aliases modes "
                             f"|l| <= {s}")
        coeffs = retruncate(g, s).coeffs
        self.g, self.m, self._s = g, m, s
        # half spectrum of the last axis, modes 0..s: its real synthesis is
        # Re sum_l c_l e_l, the imaginary part of mode 0 being dropped
        flipped = np.flip(coeffs, axis=tuple(range(1, g.d + 1)))
        half = (coeffs[..., s:] + np.conj(flipped[..., s:])) / 2
        half[..., 0] = coeffs[..., s]
        self._half = half
        l1 = _l1_norms(g.d, s).ravel()
        self._weights = np.stack([
            np.bincount(l1, weights=np.abs(coeffs[j]).ravel(),
                        minlength=g.d * s + 1)
            for j in range(g.components)])
        self.grid = np.stack([self._synthesize(self._row(j, 0), 0)
                              for j in range(g.components)])
        self.order = self.radius = self.tail = None

    def fix_radius(self, radius: float) -> "GridTaylor":
        """Pick the order for offsets up to `radius` and widen the radius to
        the largest that order covers.  Returns self."""
        tol = UNIT_ROUNDOFF * self.g.l1_norm()
        reach = np.flatnonzero(self._weights.max(axis=0))
        if reach.size == 0 or reach[-1] == 0:
            # a constant map: every derivative and every tail is zero
            self.order, self.radius, self.tail = 0, math.inf, 0.0
        else:
            for order in range(TAYLOR_MAX_ORDER + 1):
                if _taylor_tail(self._weights, order, radius) <= tol:
                    break
            else:
                raise OffsetBeyondRadius(
                    f"no Taylor order up to {TAYLOR_MAX_ORDER} meets the tail "
                    f"bound at radius {radius:.3g}", radius=radius)
            lo, hi = radius, (order + 2) / (TWO_PI * reach[-1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _taylor_tail(self._weights, order, mid) <= tol:
                    lo = mid
                else:
                    hi = mid
            self.order, self.radius = order, float(lo)
            self.tail = _taylor_tail(self._weights, order, lo)
        return self

    def rounding(self, points: int):
        """(horner, synthesis) for the offsets within the radius r of these
        sums of order K over N = points grid points.

        On the grid, |d^t g_j| <= sum_l |(2 pi l)^t| |g_j(l)| for a
        multi-index t, and by the binomial theorem these bounds, each over
        t!, sum over |t| = n to sum_k w_jk (2 pi k)^n / n!, w_jk the l1
        mass of component j at |l|_1 = k: the table that `fix_radius`
        reads.  M_n is the largest over j of that sum for n >= 1, and M_0
        the largest computed order-0 value.

        * horner = gamma_(3K+2) sum_{n <= K} M_n r^n (0 at K = 0, which
          adds nothing) bounds the rounding of one Horner sum against the
          exact sum of the computed derivatives: the term of order t meets
          3 roundings per Horner step of either axis (a product by the
          offset, a division by the step's order, an addition), at most
          3 |t| + 2 in all.
        * synthesis = sum_{1 <= n <= K} n r^(n-1) e_n, with
          e_n = (rho + 2 (n + 4) u) sqrt(N) M_n and rho = `_fft_rho`(N), is
          the factor of |delta - delta'| in the difference of the synthesis
          errors of two sums at offsets delta, delta' within r:
          |delta^t - delta'^t| <= |t| r^(|t|-1) |delta - delta'|.  The
          synthesized d^t g_j carries the FFT's error (Higham's Thm. 24.2,
          as `_fft_rho`) and the rounding of the fold and of the factor
          (2 pi i l)^t, at most 2 (|t| + 4) u per coefficient, against the
          2-norm of its values, at most sqrt(N) sum_l |(2 pi l)^t| |g_j(l)|;
          that bounds its sup too, and over |t| = n, each over t!, these
          errors sum to at most e_n.  The order-0 error is shared by every
          sum, and this factor leaves it out.
        """
        K, r = self.order, self.radius
        if K == 0:
            return 0.0, 0.0
        u = UNIT_ROUNDOFF
        n = np.arange(1, K + 1)
        shells = TWO_PI * np.arange(self._weights.shape[1])
        moments = ((self._weights @ np.power.outer(shells, n)).max(axis=0)
                   / [math.factorial(i) for i in n])
        horner = float(np.abs(self.grid).max() + (moments * r ** n).sum())
        rho = _fft_rho(points)
        synthesis = float((n * r ** (n - 1) * (rho + 2 * (n + 4) * u)
                           * math.sqrt(points) * moments).sum())
        gamma = (3 * K + 2) * u / (1 - (3 * K + 2) * u)
        return gamma * horner, synthesis

    def __call__(self, offsets: np.ndarray) -> np.ndarray:
        reach = float(np.abs(offsets).max(initial=0.0))
        if not reach <= self.radius:
            raise OffsetBeyondRadius(
                f"Taylor offset {reach:.3g} beyond the radius {self.radius:.3g} "
                f"of order {self.order}", offset=reach, radius=self.radius)
        last = offsets[:, -1]
        out = np.empty((self.g.components, len(offsets)))
        for j in range(self.g.components):
            acc = out[j]
            for a in range(self._outer(), -1, -1):
                row = self._row(j, a)
                top = self.order - a
                part = self.grid[j].copy() if a == top == 0 else \
                    self._synthesize(row, top)
                for b in range(top - 1, -1, -1):
                    part *= last
                    part /= b + 1
                    part += self.grid[j] if a == b == 0 else \
                        self._synthesize(row, b)
                if a == self._outer():
                    acc[:] = part
                else:
                    acc *= offsets[:, 0]
                    acc /= a + 1
                    acc += part
        return out

    def _outer(self) -> int:
        """Highest order of the first axis in the nested sum (0 in d = 1)."""
        return self.order if self.g.d == 2 else 0

    def _row(self, j: int, a: int) -> np.ndarray:
        """Component j's half spectrum times (2 pi i l_1)^a, transformed
        over the first axis in d = 2: shape (m, s + 1), or (s + 1,) in
        d = 1."""
        s, m = self._s, self.m
        if self.g.d == 1:
            return self._half[j]
        spread = np.zeros((m, s + 1), dtype=np.complex128)
        spread[_bins(s, m)] = self._half[j] * _derivative_factors(
            range(-s, s + 1), a)[:, None]
        return np.fft.ifft(spread, axis=0, norm="forward")

    def _synthesize(self, row: np.ndarray, b: int) -> np.ndarray:
        """Grid values, flat, of the derivative of order b in the last axis
        of a `_row`."""
        factor = _derivative_factors(range(self._s + 1), b)
        return np.fft.irfft(row * factor, n=self.m, axis=-1,
                            norm="forward").ravel()


def _derivative_factors(modes, t: int) -> np.ndarray:
    """(2 pi i l)^t for l in modes: i^t, exact, times the real (2 pi l)^t."""
    return (1j ** t) * (TWO_PI * np.asarray(modes, dtype=np.float64)) ** t


def _taylor_tail(weights: np.ndarray, order: int, r: float) -> float:
    """max_j sum_k w_jk sum_{t > order} (2 pi k r)^t / t!, w_jk the l1
    mass of component j at |l|_1 = k, each inner sum bounded by
    x^(order+1) / (order+1)! / (1 - x / (order+2)) (infinite from
    x = order + 2 on)."""
    x = TWO_PI * np.arange(weights.shape[1]) * r
    ratio = x / (order + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.where(ratio < 1, x ** (order + 1) / math.factorial(order + 1)
                         / np.where(ratio < 1, 1 - ratio, 1.0), np.inf)
        return float(np.where(weights > 0, weights * inner, 0.0)
                     .sum(axis=1).max())


def _fft_rho(points: int) -> float:
    """rho = k / (1 - k) with k = log2(N) (u + gamma_4 (sqrt 2 + u)): the
    normwise relative error of a computed FFT of N = points values (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm. 24.2,
    with twiddle factors correct to u)."""
    u = UNIT_ROUNDOFF
    k = math.log2(points) * (u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u))
    return k / (1 - k)


def _lipschitz(f: FourierMap) -> float:
    """2 pi max_j sum_l |l|_1 |f_hat_j(l)|: a Lipschitz constant of f in
    the sup norm, |f(y) - f(z)|_sup <= L |y - z|_sup."""
    axes = tuple(range(1, f.d + 1))
    return TWO_PI * float((np.abs(f.coeffs) * _l1_norms(f.d, f.n_max))
                          .sum(axis=axes).max())


def compose_shift(f: FourierMap, h: FourierMap, method: str = "grid") -> FourierMap:
    """x -> f(x + h(x)), re-expanded to f's truncation.

    method "grid": sample h on the (4 n_max)^d uniform grid by inverse FFT,
    evaluate f at the shifted points exactly (dense trig sum), FFT back; the
    coefficient mass beyond the truncation is reported in info["spill"].
    Its values are real, so it refuses an f or h that is not `is_real` with
    ValueError.
    method "series": the Taylor oracle, independent of the grid path, for
    any coefficients: nested Horner in the components of h on nonzero
    supports, to an order whose whole tail is at most SERIES_TOL ||f||;
    raises OracleDivergence outside 2 pi n_max ||h - mean||_l1 < 1.
    """
    if f.d != h.d or h.components != f.d:
        raise ValueError("shift must be a d-component map on the same torus")
    if method == "series":
        return _compose_series(f, h)
    if method != "grid":
        raise ValueError(f"unknown method {method!r}")
    if not (f.is_real() and h.is_real()):
        raise ValueError("grid composition expects real-representing maps")
    m = _grid_size(max(f.n_max, h.n_max))
    shifted = _sample_points(f.d, m) + h.grid_values(m).T
    out, spill = _reexpand(f.evaluate(shifted).T, f.d, f.n_max)
    out.info["spill"] = spill
    return out


def _compose_series(f: FourierMap, h: FourierMap) -> FourierMap:
    """The Taylor oracle of `compose_shift`, component by component: after
    the exact translation by the mean h0 of h and the guard, f and each h_j
    are cut to their nonzero radii s_f, r_j, and `_horner` sums the orders
    |t| <= K = `_series_order`(2 pi s_f sum_j ||h_j||_l1).  A complex h0
    translates by its real part and weights mode l by e^(-2 pi l . Im h0),
    so that mode l picks up e^(2 pi i l . h0) in all."""
    # translations are exact and do not count against the radius
    h0 = h.mean()
    if np.abs(h0).max() > 0:
        f = translate(f, h0.real)
        if h0.imag.any():
            f = f.scaled(np.exp(-TWO_PI * _dots(f.d, f.n_max, h0.imag))[None])
        h = h - FourierMap.constant(h.d, h.n_max, h0, components=h.components)
    radius = TWO_PI * f.n_max * h.l1_norm()
    if radius >= 1.0:
        raise OracleDivergence(
            f"series composition needs 2 pi n_max ||h|| < 1, got {radius:.3g}")
    shifts = [_head(h.component(j), h.n_max) for j in range(f.d)]
    order = _series_order(TWO_PI * nonzero_radius(f)
                          * sum(s.l1_norm() for s in shifts))
    out = FourierMap.zeros(f.d, f.n_max, f.components)
    for i in range(f.components):
        part = _horner(_head(f.component(i), f.n_max), shifts, order, 0, f.n_max)
        out.coeffs[i] = retruncate(part, f.n_max).coeffs[0]
    return out


def _series_order(rho: float) -> int:
    """Smallest K with rho^(K+1) / (K+1)! / (1 - rho/(K+2)) <= SERIES_TOL:
    the order-t terms are at most ||f|| rho^t / t! in l1, so this bounds the
    whole tail beyond K.  OracleDivergence if K would exceed 40."""
    term = rho                      # rho^(K+1) / (K+1)! at K = 0
    for order in range(41):
        if rho < order + 2 and term <= SERIES_TOL * (1 - rho / (order + 2)):
            return order
        term *= rho / (order + 2)
    raise OracleDivergence(
        f"series composition needs more than 40 orders at rho = {rho:.3g}")


def _horner(g: FourierMap, shifts: list, order: int, extra: int,
            n_out: int) -> FourierMap:
    """sum_{|t| <= order} prod_k h_k^t_k / t_k! d^t g over the last
    len(shifts) axes, h = shifts[0] the shift of the first of them at
    nonzero radius r; g is scalar, within the output box |l|_sup <= n_out.
    Horner in that axis, acc <- S_b + (h / (b + 1)) acc for b = order - 1
    .. 0, S_b the same sum of d^b g over the later axes: products by h,
    never by h^k.  acc_b meets b more products by h, and the outer axes
    widen it by at most `extra`, so it keeps |l|_sup <= n_out + extra + b r,
    exactly the modes that can still reach the output box, stored at their
    nonzero radius."""
    if not shifts:
        return g
    h, rest = shifts[0], shifts[1:]
    r = h.n_max
    derivs = [g]
    for _ in range(order):
        derivs.append(derivative(derivs[-1], g.d - len(rest)))
    acc = _head(_horner(derivs[order], rest, 0, extra + order * r, n_out),
                n_out + extra + order * r)
    for b in range(order - 1, -1, -1):
        inner = _horner(derivs[b], rest, order - b, extra + b * r, n_out)
        acc = _head(inner + multiply(h, acc).scaled(1.0 / (b + 1)),
                    n_out + extra + b * r)
    return acc


def _head(f: FourierMap, cap: int) -> FourierMap:
    """The modes |l|_sup <= cap of f (an exact head extraction), stored at
    their nonzero radius."""
    f = retruncate(f, min(cap, f.n_max))
    return retruncate(f, nonzero_radius(f))


def translate(f: FourierMap, v) -> FourierMap:
    """f(x + v) for a constant shift: coefficients pick up e^(2 pi i l . v)."""
    v = np.asarray(v, dtype=np.float64).reshape(f.d)
    return FourierMap(f.d, f.n_max, f.coeffs * _phase(f.d, f.n_max, v)[None])


def invert_near_identity(h: FourierMap) -> FourierMap:
    """Correction g with (id - h + g) o (id + h) = id.

    g is defined on the *target* side: (id + h)^(-1)(w) = w - h(w) + g(w),
    so g(w) = y(w) - w + h(w) with y(w) the preimage of w.  Primary path:
    take h(w) on the uniform grid once (inverse FFT), solve y + h(y) = w at
    every grid point w by `_preimages` from y = w - h(w), then re-expand g
    by FFT.  info carries the final residual, sweep count and re-expansion
    spill.  The series oracle is `invert_series`.
    """
    m = _grid_size(h.n_max)
    w = _sample_points(h.d, m)          # target points
    h_w = h.grid_values(m).T
    y, _, residual, sweeps = _preimages(h, h.evaluate, w, w - h_w)
    out, spill = _reexpand(y - w + h_w, h.d, h.n_max)
    out.info.update(residual=residual, sweeps=sweeps, spill=spill)
    return out


def _preimages(h: FourierMap, values, w: np.ndarray, y: np.ndarray,
               tol: float = 1e-14):
    """Solve y + h(y) = w at the points w, shape (P, d), by the damped-free
    fixed-point sweep y <- w - h(y) from the first iterate y, all points
    vectorized; returns (y, h(y), residual sup |y + h(y) - w|, sweeps),
    sweeps counting the evaluations of h.

    `values` maps the iterate to h(y), shape (components, P) as
    `FourierMap.evaluate` returns it.  `invert_near_identity` passes the
    dense `h.evaluate` and starts at w - h(w).  The KAM stage solves for
    offsets from x + alpha: it passes a `GridTaylor` of the translated h,
    whose order-0 values give its start w - h(x + alpha).  Both starts are
    off by a second-order quantity.  A start only seeds the sweep: every
    sweep evaluates h before it tests the residual, so the y, h(y) and
    residual returned are those of one evaluated iterate whatever the
    start, and a better start only saves sweeps.

    Requires a real h, the contraction guard 2 pi n_max ||h - mean||_l1
    < 1/2 and each sweep to cut the residual in half; stops below tol.
    After 80 sweeps the y returned is the next iterate w - h(y).
    """
    if not h.is_real():
        raise ValueError("inversion expects a real-representing shift")
    guard = TWO_PI * h.n_max * (h - FourierMap.constant(
        h.d, h.n_max, h.mean(), components=h.components)).l1_norm()
    if guard >= 0.5:
        raise ContractionFailure(
            f"inversion guard 2 pi n_max ||h - mean|| = {guard:.3g} >= 1/2")
    residual = None
    for sweep in range(80):
        hy = values(y).T
        res = np.abs(y + hy - w).max()
        if residual is not None and res > 0.5 * residual and res > tol:
            raise ContractionFailure(
                f"fixed-point sweep stalled: residual {res:.3g} after "
                f"{sweep} sweeps (previous {residual:.3g})")
        residual = res
        if res < tol:
            break
        y = w - hy
    return y, hy, float(residual), sweep + 1


def invert_series(h: FourierMap) -> FourierMap:
    """Series oracle for the inversion correction.

    With w_0 = h o (id + h) - h and w_k = w_{k-1} o (id + h) - w_{k-1},
    the defining identity g(z + h(z)) = w_0(z) unrolls to the alternating
    sum g = sum_k (-1)^k w_k: each unroll step rewrites w_k(z) as
    w_k(w) - w_{k+1}(z) at the target point w = z + h(z).  Compositions use
    the Taylor path (nested Horner to an a-priori order), so this route
    never touches the sampling grid.  The sum stops once a term falls below
    SERIES_TOL of |h|; OracleDivergence after 60 terms.
    """
    w_k = _compose_series(h, h) - h
    total = w_k
    sign = 1.0
    for _ in range(60):
        if w_k.l1_norm() < SERIES_TOL * max(h.l1_norm(), 1e-300):
            break
        w_k = _compose_series(w_k, h) - w_k
        sign = -sign
        total = total + w_k.scaled(sign)
    else:
        raise OracleDivergence("inversion series did not converge")
    return total


# ---------------------------------------------------------------------------
# remainder split


def remainder_split_check(f: FourierMap, domain: SlicedDomain,
                          shrunk: SlicedDomain, N: int) -> VerificationReport:
    """Tail seminorm transfer between nested sliced domains.

    For each grid direction beta with shrunk radius db < delta_beta, checks

        |R_N f_beta|_db <= e^(-(delta_beta - db) N / 2) |R_N f_beta|_delta
                           + e^(-delta N / 4) ||R_N f||_delta,

    delta = min radius of `domain`; all three quantities are evaluated from
    the stored coefficients.  Preconditions (shrunk <= original,
    |delta - db| < delta/4) are validated into the report header.
    """
    if domain.grid is not shrunk.grid and domain.grid.directions != shrunk.grid.directions:
        raise ValueError("domains must share the direction grid")
    _, tail = truncate_split(f, N)
    delta = domain.min_radius()
    rep = VerificationReport("remainder split", {
        "N": N, "delta": delta, "tail_modes": int(np.count_nonzero(tail.coeffs)),
    })
    const_domain = SlicedDomain.constant(f.d, delta, grid=domain.grid)
    tail_norm = norm_xi(tail, const_domain)
    for i, beta in enumerate(domain.grid.directions):
        db = float(shrunk.radii[i])
        dbeta = float(domain.radii[i])
        ok_pre = db <= dbeta and abs(delta - db) < delta / 4
        lhs = seminorm_beta(tail, beta, db)
        rhs = (math.exp(-(dbeta - db) * N / 2) * seminorm_beta(tail, beta, dbeta)
               + math.exp(-delta * N / 4) * tail_norm)
        rep.add("tail_transfer", f"direction {i}", lhs <= rhs * (1 + 1e-12),
                margin=f"lhs = {lhs:.6g}, rhs = {rhs:.6g}",
                note="" if ok_pre else "precondition |delta - db| < delta/4 not met")
    return rep
