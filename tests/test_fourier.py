"""Tests for the truncated Fourier calculus."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from kamtorus import fourier as fr
from kamtorus.errors import (ContractionFailure, OffsetBeyondRadius,
                             OracleDivergence)
from kamtorus.schedule import DirectionGrid


def _failure_lines(rep):
    """The lines of the failed entries of a VerificationReport."""
    return [e.line() for e in rep.entries if e.passed is False]


def random_map(rng, d=2, n_max=6, components=None, amp=1.0, decay=0.5,
               max_modes=5, span=None):
    """Seeded random real-representing map with geometric coefficient decay.

    span limits the sup-norm of the populated modes: composition/inversion
    outputs only fit a fixed truncation when the inputs leave headroom, so
    dual-path tests keep span well below n_max.
    """
    components = d if components is None else components
    span = n_max if span is None else span
    modes = {}
    for _ in range(max_modes):
        l = tuple(int(rng.integers(-span, span + 1)) for _ in range(d))
        if all(c == 0 for c in l):
            continue
        sup = max(abs(c) for c in l)
        vec = (rng.standard_normal(components)
               + 1j * rng.standard_normal(components)) * amp * decay ** sup
        modes[l] = vec
    return fr.FourierMap.from_modes(d, n_max, modes, components=components)


def const_domain(delta, d=2):
    return fr.SlicedDomain.constant(d, delta)


def dense_random_map(rng, d, n_max, components=2, decay=0.7):
    """Every coefficient drawn independently: not Hermitian."""
    shape = (components,) + (2 * n_max + 1,) * d
    idx = np.abs(np.arange(-n_max, n_max + 1))
    sup = idx if d == 1 else np.maximum(idx[:, None], idx[None, :])
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * decay ** sup
    return fr.FourierMap(d, n_max, coeffs)


# -- evaluation ------------------------------------------------------------------

def _phase_matrix(x, n_max):
    """exp(2 pi i m x_p) for m = -n_max..n_max: `_phase_rows` and, for
    m < 0, their conjugate mirror."""
    rows = fr._phase_rows(x, n_max)
    out = np.empty((2 * n_max + 1, x.size), dtype=np.complex128)
    out[n_max:] = rows
    np.conj(rows[:0:-1], out=out[:n_max])
    return out


def _evaluate_complex(f, points):
    """The complex dense sum whose real part `FourierMap.evaluate` returns,
    over the box of the nonzero radius in blocks of EVAL_BLOCK points: the
    oracle of the real fold and of the FFT grid synthesis."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = fr.nonzero_radius(f)
    c = f.components
    coeffs = fr.retruncate(f, n).coeffs
    out = np.empty((c, pts.shape[0]), dtype=np.complex128)
    rows = coeffs.shape[1]
    for start in range(0, pts.shape[0], fr.EVAL_BLOCK):
        block = pts[start:start + fr.EVAL_BLOCK]
        phase0 = _phase_matrix(block[:, 0], n)
        if f.d == 1:
            vals = coeffs @ phase0
        else:
            tmp = (coeffs.reshape(c * rows, -1)
                   @ _phase_matrix(block[:, 1], n)).reshape(c, rows, -1)
            vals = np.einsum("cap,ap->cp", tmp, phase0)
        out[:, start:start + fr.EVAL_BLOCK] = vals
    return out


def _evaluate(f, points, real):
    """`FourierMap.evaluate` for real=True, the complex oracle otherwise."""
    return f.evaluate(points) if real else _evaluate_complex(f, points)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [0, 5, 16])
def test_grid_values_match_dense_evaluate(d, n_max):
    rng = np.random.default_rng(100 * d + n_max)
    f = dense_random_map(rng, d, n_max)
    for m in (2 * n_max + 1, fr._grid_size(n_max)):
        dense = _evaluate_complex(f, fr._sample_points(d, m)).real
        vals = f.grid_values(m)
        # the real part of the inverse FFT, taken as a view
        assert vals.dtype == np.float64 and not vals.flags.owndata
        assert vals.shape == dense.shape
        assert np.abs(vals - dense).max() <= 1e-14 * max(f.l1_norm(), 1)


def test_grid_values_refuse_aliasing_grid():
    f = fr.FourierMap.zeros(2, 5)
    with pytest.raises(ValueError):
        f.grid_values(10)
    assert f.grid_values(11).shape == (2, 121)


def _reexpand_reference(values, d, m, n_max, components):
    """The per-component re-expansion that `_reexpand` replaced, the oracle
    of its bits: complex samples of shape (components, m^d), bins ordered
    by `fftfreq` and an `argsort`, then the central slice."""
    freqs = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    if d == 1:
        sup = np.abs(freqs)
    else:
        sup = np.maximum(np.abs(freqs)[:, None], np.abs(freqs)[None, :])
    keep = sup <= n_max
    band = (sup > n_max) & (sup <= m // 2 - 1)
    out = fr.FourierMap.zeros(d, n_max, components)
    spill = 0.0
    order = np.argsort(freqs)
    for c in range(components):
        fc = np.fft.fftn(values[c].reshape((m,) * d)) / m ** d
        spill = max(spill, float(np.abs(fc[band]).sum()))
        kept = np.where(keep, fc, 0)
        if d == 1:
            centered = kept[order]
        else:
            centered = kept[np.ix_(order, order)]
        lo = m // 2 - n_max  # freqs sorted ascend: -m/2 .. m/2-1
        sl = tuple([slice(lo, lo + 2 * n_max + 1)] * d)
        out.coeffs[c] = centered[sl]
    return out, spill


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [3, 8, 48])
@pytest.mark.parametrize("components", [1, 2])
def test_reexpand_matches_per_component_reference(d, n_max, components):
    rng = np.random.default_rng(1000 * d + 10 * n_max + components)
    # m = 8 n_max is what compose_shift uses when h.n_max = 2 f.n_max
    for m in (fr._grid_size(n_max), fr._grid_size(2 * n_max)):
        values = rng.standard_normal((m ** d, components))
        want, want_spill = _reexpand_reference(
            np.ascontiguousarray(values.T, dtype=np.complex128), d, m, n_max,
            components)
        # rows in memory order, and the transposed view compose_shift passes
        for held in (values, np.asfortranarray(values)):
            got, spill = fr._reexpand(held, d, n_max)
            assert np.array_equal(got.coeffs.view(np.int64),
                                  want.coeffs.view(np.int64))
            assert np.float64(spill).view(np.int64) == \
                np.float64(want_spill).view(np.int64)


def _fft_round_trip_bound(d, m):
    """Relative 2-norm error of `_reexpand(grid_values(m))`.  One computed
    FFT of t radix-2 stages has error at most t eta / (1 - t eta) with
    eta = mu + gamma_4 (sqrt 2 + mu), mu the twiddle error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2);
    here mu = u, and numpy's mixed-radix passes over d axes of m points
    are counted as t = d ceil(log2 m) radix-2 stages (an assumption: the
    errors measured on these cases stay below a tenth of the bound).  The
    round trip is two transforms and two scalings by m^d; dropping the
    imaginary part of the samples adds no error."""
    u = 2.0 ** -53
    gamma4 = 4 * u / (1 - 4 * u)
    eta = u + gamma4 * (math.sqrt(2) + u)
    t = d * math.ceil(math.log2(m))
    one = t * eta / (1 - t * eta)
    return (1 + one) ** 2 * (1 + u) ** 2 - 1


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [0, 3, 8, 48])
def test_reexpand_inverts_grid_values(d, n_max):
    rng = np.random.default_rng(50 * d + n_max)
    raw = dense_random_map(rng, d, n_max)
    mirror = np.flip(raw.coeffs, axis=tuple(range(1, d + 1)))
    f = fr.FourierMap(d, n_max, (raw.coeffs + np.conj(mirror)) / 2)
    for m in (2 * n_max + 2, fr._grid_size(n_max), fr._grid_size(2 * n_max)):
        back, spill = fr._reexpand(f.grid_values(m).T, d, n_max)
        bound = _fft_round_trip_bound(d, m)
        norms = np.linalg.norm(f.coeffs.reshape(f.components, -1), axis=1)
        errors = np.linalg.norm((back.coeffs - f.coeffs)
                                .reshape(f.components, -1), axis=1)
        assert np.all(errors <= bound * norms)
        # the band holds exact zeros: its l1 mass is rounding only, at most
        # sqrt(band size) times the 2-norm bound
        band = m ** d - (2 * n_max + 1) ** d
        assert spill <= math.sqrt(band) * bound * norms.max()


@pytest.mark.parametrize("d", [1, 2])
def test_evaluate_real_matches_real_part(d):
    # s = 0 has no sine rows, s = 1 one pair per axis; s = 48 is the
    # largest radius of the benchmark runs
    rng = np.random.default_rng(7 + d)
    for s in (6, 0, 1, 48):
        f = dense_random_map(rng, d, s)
        assert f.hermitian_defect() > 0.1 or s == 0
        tol = 1e-15 * max(f.l1_norm(), 1)
        for P in (1, fr.EVAL_BLOCK, fr.EVAL_BLOCK + 1):
            pts = rng.random((P, d))
            real = f.evaluate(pts)
            assert real.dtype == np.float64 and real.shape == (2, P)
            assert np.abs(real - _evaluate_complex(f, pts).real).max() <= tol
        point = rng.random(d)
        assert np.abs(f.evaluate(point)
                      - _evaluate_complex(f, point).real).max() <= tol
    # the real first axis takes the m >= 0 rows of the full phase matrix,
    # and the real basis their real and imaginary parts
    x = rng.random(fr.EVAL_BLOCK)
    rows = fr._phase_rows(x, 6)
    assert np.array_equal(rows.view(np.int64),
                          _phase_matrix(x, 6)[6:].view(np.int64))
    basis = fr._real_basis(x, 6)
    assert np.array_equal(basis, np.concatenate([rows.real, rows.imag[1:]]))


def _phase_rows_loop(x, n_max):
    """The phase rows as built before they were written in place: the
    reference for `_phase_rows`."""
    base = np.exp(2j * np.pi * x)
    out = np.empty((n_max + 1, x.size), dtype=np.complex128)
    out[0] = 1.0
    for m in range(1, n_max + 1):
        out[m] = out[m - 1] * base
    return out


@pytest.mark.parametrize("n_max", [0, 1, 48])
@pytest.mark.parametrize("points", [1, 1024, 1025])
def test_phase_rows_in_place_bit_identical(n_max, points):
    x = np.random.default_rng(points + n_max).random(points) * 3 - 1
    got = fr._phase_rows(x, n_max)
    assert got.shape == (n_max + 1, points)
    assert np.array_equal(got.view(np.int64),
                          _phase_rows_loop(x, n_max).view(np.int64))


def _evaluate_untrimmed(f, points, real=False):
    """The dense sum over the whole stored box (2 n_max + 1)^d, as before the
    support trim: the oracle for `FourierMap.evaluate`."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, c = f.n_max, f.components
    coeffs = f.coeffs
    if real:
        folded = coeffs[:, n:].copy()
        mirror = np.flip(coeffs[:, :n], axis=tuple(range(1, f.d + 1)))
        folded[:, 1:] += np.conj(mirror)
        coeffs = folded
    rows = coeffs.shape[1]
    phase0 = _phase_matrix(pts[:, 0], n)[slice(n, None) if real else slice(None)]
    if f.d == 1:
        vals = coeffs @ phase0
    else:
        tmp = (coeffs.reshape(c * rows, -1)
               @ _phase_matrix(pts[:, 1], n)).reshape(c, rows, -1)
        vals = np.einsum("cap,ap->cp", tmp, phase0)
    return vals.real if real else vals


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 7, 16, 48])
def test_evaluate_trimmed_to_nonzero_radius(d, s):
    # s = 16 fills the stored box; s = 48 is trimmed from a larger one
    n_max = 16 if s <= 16 else s + 4
    rng = np.random.default_rng(1000 + 10 * d + s)
    f = fr.retruncate(dense_random_map(rng, d, s), n_max)
    assert f.hermitian_defect() > 0.1 or s == 0
    tol = 1e-15 * max(f.l1_norm(), 1)
    for pts in (rng.random(d), rng.random((fr.EVAL_BLOCK + 1, d)),
                rng.random((1, d)), rng.random((fr.EVAL_BLOCK, d))):
        for real in (False, True):
            got = _evaluate(f, pts, real)
            assert np.abs(got - _evaluate_untrimmed(f, pts, real)).max() <= tol


@pytest.mark.parametrize("d", [1, 2])
def test_evaluate_zero_map(d):
    f = fr.FourierMap.zeros(d, 5, components=2)
    pts = np.random.default_rng(d).random((fr.EVAL_BLOCK + 1, d))
    for real in (False, True):
        vals = _evaluate(f, pts, real)
        assert vals.shape == (2, fr.EVAL_BLOCK + 1) and not vals.any()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [0, 3, 6])
def test_evaluate_unchanged_by_zero_padding(d, s):
    rng = np.random.default_rng(50 + 10 * d + s)
    f = fr.retruncate(dense_random_map(rng, d, s), 6)
    pts = rng.random((fr.EVAL_BLOCK + 1, d))
    for real in (False, True):
        want = _evaluate(f, pts, real)
        for N in (7, 20):
            got = _evaluate(fr.retruncate(f, N), pts, real)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _direct_phases(x, s):
    """exp(2 pi i m x_p) for m = -s..s, each an exp of its own argument:
    no `_phase_rows` and no cumulative product."""
    return np.exp(2j * np.pi * np.arange(-s, s + 1)[:, None] * x[None, :])


def _direct_tolerance(f, M):
    """Per-component rounding budget of |evaluate - direct| at points with
    |coordinates| <= M, u = 2^-53, W = sum_l |c_l| |l|_1, C = sum_l |c_l|.

    evaluate: phase row m is off by at most m (3 pi M + 3) u, so the
    phases cost W (3 pi M + 3) u; the two folds and the real GEMM and
    contraction cost at most (6 s + 10) u C (the folds hold for any
    coefficients, Hermitian or not).
    direct: the argument fl(fl(2 pi m) x) carries two roundings,
    4 pi |m| M u, and the complex exp at most u more, per axis; the
    product of the d phases and the sums over 2s + 1 modes per axis take
    two complex multiplications (sqrt(2) gamma_2 < 3 u each) and at most
    4s additions per term, (4 s + 8) u C in all.
    """
    u = 2.0 ** -53
    s = fr.nonzero_radius(f)
    axes = tuple(range(1, f.d + 1))
    mags = np.abs(f.coeffs)
    W = (mags * fr._l1_norms(f.d, f.n_max)).sum(axis=axes)
    C = mags.sum(axis=axes)
    evaluate = W * (3 * np.pi * M + 3) + (6 * s + 10) * C
    direct = W * 4 * np.pi * M + (f.d + 4 * s + 8) * C
    return u * (evaluate + direct)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 7, 16, 48])
def test_evaluate_matches_direct_phases(d, s):
    # an oracle independent of `_phase_rows`: every phase is its own exp;
    # the points reach |x| < 2 like the KAM loop's shifted grids
    rng = np.random.default_rng(3000 + 10 * d + s)
    f = fr.retruncate(dense_random_map(rng, d, s), s + 2)
    pts = rng.random((fr.EVAL_BLOCK + 1, d)) * 3.8 - 1.9
    coeffs = fr.retruncate(f, s).coeffs
    c = f.components
    if d == 1:
        direct = coeffs @ _direct_phases(pts[:, 0], s)
    else:
        tmp = (coeffs.reshape(c * (2 * s + 1), -1)
               @ _direct_phases(pts[:, 1], s)).reshape(c, 2 * s + 1, -1)
        direct = np.einsum("cap,ap->cp", tmp, _direct_phases(pts[:, 0], s))
    err = np.abs(f.evaluate(pts) - direct.real).max(axis=1)
    tol = _direct_tolerance(f, float(np.abs(pts).max()))
    assert np.all(err <= tol), (err, tol)


# -- norms ---------------------------------------------------------------------

def _nonzero_modes(f):
    """(lattice vector, coefficient vector) over the nonzero modes of f."""
    for idx in np.argwhere(np.any(f.coeffs != 0, axis=0)):
        l = tuple(int(i) - f.n_max for i in idx)
        yield l, f.mode(l)


def test_mode_index_outside_the_stored_ball_refused():
    # a negative index would wrap around to another stored mode
    with pytest.raises(ValueError):
        fr.FourierMap.from_modes(2, 1, {(-3, 0): [1.0, 0.0]}, hermitian=False)
    f = fr.FourierMap.from_modes(2, 2, {(1, 0): [1.0, 2.0]})
    for l in ((-4, 0), (3, 0), (0, -3), (1,)):
        with pytest.raises(ValueError):
            f.mode(l)
    assert np.array_equal(f.mode((-1, 0)), [1.0, 2.0])
    assert np.array_equal(f.mode((2, -2)), [0.0, 0.0])


def test_norm_single_mode_strip():
    f = fr.FourierMap.from_modes(2, 4, {(1, 0): [1.0, 0.0]}, hermitian=False)
    norm = fr.norm_xi(f, const_domain(0.1))
    assert norm == pytest.approx(math.exp(0.2 * math.pi), rel=1e-12)
    assert abs(norm - 1.87446) < 1e-5


def test_norm_constant_map():
    f = fr.FourierMap.constant(2, 4, [3.5 - 1.0j, 0.25])
    assert fr.norm_xi(f, const_domain(0.3)) == pytest.approx(abs(3.5 - 1.0j), rel=1e-14)
    assert fr.norm_xi(f.component(1), const_domain(0.3)) == pytest.approx(0.25, rel=1e-14)


def test_norm_matches_direct_sum():
    rng = np.random.default_rng(11)
    f = random_map(rng, n_max=5, max_modes=5)
    delta = 0.07
    direct = [0.0, 0.0]
    for l, vec in _nonzero_modes(f):
        w = math.exp(2 * math.pi * delta * math.hypot(*l))
        for j in range(2):
            direct[j] += abs(vec[j]) * w
    for j in range(2):
        assert fr.norm_xi(f.component(j), const_domain(delta)) == \
            pytest.approx(direct[j], rel=1e-12)
    assert fr.norm_xi(f, const_domain(delta)) == pytest.approx(max(direct), rel=1e-12)


def test_norm_varying_radii_max_over_grid():
    grid = DirectionGrid.circle(8)
    radii = tuple(0.05 + 0.01 * i for i in range(8))
    dom = fr.SlicedDomain(grid=grid, radii=radii)
    f = fr.FourierMap.from_modes(2, 3, {(2, 1): [0.5, 0.0]}, hermitian=False)
    expected_w = max(r * abs(d[0] * 2 + d[1] * 1)
                     for r, d in zip(radii, grid.directions))
    assert fr.norm_xi(f, dom) == pytest.approx(0.5 * math.exp(2 * math.pi * expected_w),
                                              rel=1e-12)


def test_seminorm_cases():
    f = fr.FourierMap.from_modes(2, 4, {(1, 0): [0.25, 0.0], (2, 0): [0.125, 0.0]},
                                 hermitian=False)
    flat = 0.25 + 0.125
    # beta orthogonal to every stored mode
    assert fr.seminorm_beta(f, (0.0, 1.0), 0.3) == pytest.approx(flat, rel=1e-14)
    assert fr.seminorm_beta(f, (1.0, 0.0), 0.0) == pytest.approx(flat, rel=1e-14)
    vals = [fr.seminorm_beta(f, (1.0, 0.0), db) for db in (0.0, 0.1, 0.2)]
    assert vals[0] < vals[1] < vals[2]


def test_seminorm_below_norm():
    rng = np.random.default_rng(3)
    f = random_map(rng)
    dom = const_domain(0.12)
    full = fr.norm_xi(f, dom)
    for beta in dom.grid.directions[:8]:
        got = fr.seminorm_beta(f, beta, 0.12)
        assert got <= full * (1 + 1e-12)
        # the mode-by-mode sum with exactly rounded dot products and sums
        direct = max(math.fsum(
            abs(vec[j]) * math.exp(2 * math.pi * 0.12 * abs(math.fsum(
                b * c for b, c in zip(beta, l))))
            for l, vec in _nonzero_modes(f)) for j in range(f.components))
        assert got == pytest.approx(direct, rel=1e-14)


# -- truncation ----------------------------------------------------------------

def test_truncate_split_edges():
    rng = np.random.default_rng(5)
    f = random_map(rng, n_max=6)
    head, tail = fr.truncate_split(f, 6)
    assert np.abs(tail.coeffs).max() == 0
    head0, tail0 = fr.truncate_split(f, 0)
    nz = np.argwhere(head0.coeffs != 0)
    assert all(tuple(i[1:]) == (6, 6) for i in nz)


@given(st.integers(min_value=0, max_value=6))
def test_truncate_split_partition(n):
    rng = np.random.default_rng(n + 1)
    f = random_map(rng, n_max=6, max_modes=8)
    head, tail = fr.truncate_split(f, n)
    assert np.array_equal(head.coeffs + tail.coeffs, f.coeffs)
    dom = const_domain(0.05)
    nf = fr.norm_xi(f, dom)
    nh = fr.norm_xi(head, dom)
    nt = fr.norm_xi(tail, dom)
    assert nh <= nf * (1 + 1e-12) and nt <= nf * (1 + 1e-12)
    assert nh + nt >= nf * (1 - 1e-12)


@pytest.mark.parametrize("table, outer", [(fr._sup_norms, np.maximum.outer),
                                          (fr._l1_norms, np.add.outer)],
                         ids=["sup", "l1"])
@pytest.mark.parametrize("d", [1, 2])
def test_mode_norm_tables_cached_read_only(table, outer, d):
    # one shared table per (d, n_max): equal to the outer-product expression
    # it caches, and read-only, so no caller can corrupt the next one's
    for n_max in (0, 1, 6, 48):
        got = table(d, n_max)
        idx = np.abs(np.arange(-n_max, n_max + 1))
        assert np.array_equal(got, functools.reduce(outer, [idx] * d))
        assert got.shape == (2 * n_max + 1,) * d
        assert table(d, n_max) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[(0,) * d] = 1


# -- products and derivatives ---------------------------------------------------

def test_multiply_delta_modes():
    a = fr.FourierMap.from_modes(2, 3, {(1, 2): 1.0}, components=1, hermitian=False)
    b = fr.FourierMap.from_modes(2, 3, {(2, -1): 1.0}, components=1, hermitian=False)
    prod = fr.multiply(a, b)
    assert prod.n_max == 6
    assert prod.mode((3, 1))[0] == pytest.approx(1.0)
    assert np.count_nonzero(prod.coeffs) == 1


def _convolve2d_bincount(a, b):
    """The dense loop of fr._convolve2d, regrouped: every product of a
    nonzero of a with an entry of b's nonzero bounding box at once, summed
    per output by np.bincount.

    The additions dropped by the crop are exact zeros.  The products and
    their flat targets are formed step-major: the steps are the box entries
    (u, v) in reverse row-major order, each over all nonzeros of a.  The
    pairs (i, j), (u, v) that reach one output have i + u and j + v fixed,
    so a descending (u, v) is an ascending (i, j): in this flat order each
    output meets its terms in the loop's order, and the two np.bincount
    passes, one per part, add them in that order from +0.  a stays the left
    operand of every product, as in the loop.
    """
    out = np.zeros((a.shape[0] + b.shape[0] - 1,
                    a.shape[1] + b.shape[1] - 1), dtype=np.complex128)
    rows, cols = np.nonzero(b)
    if rows.size == 0:
        return out
    r0, c0 = rows.min(), cols.min()
    box = b[r0:rows.max() + 1, c0:cols.max() + 1]
    width = out.shape[1]
    ai, aj = np.nonzero(a)
    base = (ai + r0) * width + aj + c0           # flat target of entry (0, 0)
    shifts = (np.arange(box.shape[0])[:, None] * width
              + np.arange(box.shape[1])).ravel()[::-1]
    targets = (shifts[:, None] + base).ravel()
    prods = (a[ai, aj][None, :] * box.ravel()[::-1, None]).ravel()
    out.real = np.bincount(targets, weights=prods.real, minlength=out.size
                           ).reshape(out.shape)
    out.imag = np.bincount(targets, weights=prods.imag, minlength=out.size
                           ).reshape(out.shape)
    return out


def test_convolve2d_bit_identical_to_dense_loop():
    rng = np.random.default_rng(404)

    def sparse(shape, fill):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.where(rng.random(shape) < fill, x, 0)

    cases = [(sparse((9, 9), fill), sparse((13, 13), fill2))
             for fill in (0.05, 0.3, 1.0) for fill2 in (0.05, 0.3, 1.0)]
    cases += [(np.zeros((5, 5), complex), sparse((7, 7), 0.5)),
              (sparse((5, 5), 0.5), np.zeros((7, 7), complex)),
              (np.full((1, 1), 0.3 - 2j), np.full((1, 1), -1.7 + 0.1j)),
              (sparse((6, 6), 0.5), np.full((1, 1), 2.5 + 1j)),
              (np.full((1, 1), -0.5j), sparse((6, 6), 0.5))]
    single = np.zeros((7, 7), complex)
    single[4, 2] = -1.25 + 0.5j          # a 1x1 bounding box off the corner
    cases += [(sparse((6, 6), 0.5), single), (single, sparse((6, 6), 0.5))]
    few = np.zeros((9, 9), complex)
    few[[1, 4, 7], [6, 0, 3]] = [0.5 - 1j, -2.0 + 0.25j, 1e-3j]
    narrow = np.zeros((11, 11), complex)
    narrow[3:5, 6:9] = sparse((2, 3), 1.0)
    cases += [(few, sparse((11, 11), 1.0)),      # box far larger than nnz(a)
              (sparse((9, 9), 1.0), narrow)]     # box far smaller than nnz(a)
    # exact zeros of either sign inside b's bounding box still add their
    # (signed-zero) products, as in the dense loop
    signed = np.zeros((7, 7), complex)
    signed[1, 1], signed[5, 4] = 1.5 - 0.5j, -0.75j
    signed[2:5, 2] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    signed[3, 3] = -0.0
    cases += [(sparse((6, 6), 0.7), signed), (-sparse((6, 6), 0.7), signed)]
    # a derivative of the criterion-08 field against a component of its
    # shift, padded to n_max + 6; and the series oracle's own product, the
    # shift component at its nonzero radius times the derivative at its own
    f, h0 = _criterion_08_maps()
    df = fr.derivative(f, 1).component(0)
    cases += [(fr.retruncate(df, 16).coeffs[0], h0.coeffs[1]),
              (fr._head(h0.component(1), 10).coeffs[0],
               fr._head(df, 10).coeffs[0])]
    for a, b in cases:
        got, want = fr._convolve2d(a, b), _convolve2d_bincount(a, b)
        assert got.shape == want.shape
        # compare bit patterns, so a signed zero counts as a difference
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_multiply_constants():
    a = fr.FourierMap.constant(2, 2, 3.0, components=1)
    b = fr.FourierMap.constant(2, 2, -0.5, components=1)
    assert fr.multiply(a, b).mean()[0] == pytest.approx(-1.5)


def test_multiply_algebra_inequality_bulk():
    rng = np.random.default_rng(2024)
    dom = const_domain(0.04)
    for _ in range(100):
        a = random_map(rng, n_max=4, components=1, amp=0.8, max_modes=4)
        b = random_map(rng, n_max=4, components=1, amp=0.8, max_modes=4)
        prod = fr.multiply(a, b)
        lhs = fr.norm_xi(prod, const_domain(0.04))
        rhs = fr.norm_xi(a, dom) * fr.norm_xi(b, dom)
        assert lhs <= rhs * (1 + 1e-10)


def test_multiply_algebra_inequality_varying_radii():
    rng = np.random.default_rng(77)
    grid = DirectionGrid.circle(8)
    radii = tuple(0.02 + 0.005 * i for i in range(8))
    dom4 = fr.SlicedDomain(grid=grid, radii=radii)
    dom8 = fr.SlicedDomain(grid=grid, radii=radii)
    for _ in range(20):
        a = random_map(rng, n_max=4, components=1, max_modes=3)
        b = random_map(rng, n_max=4, components=1, max_modes=3)
        lhs = fr.norm_xi(fr.multiply(a, b), dom8)
        rhs = fr.norm_xi(a, dom4) * fr.norm_xi(b, dom4)
        assert lhs <= rhs * (1 + 1e-10)


def test_derivative_single_mode():
    f = fr.FourierMap.from_modes(2, 4, {(3, 0): [1.0, 0.0]}, hermitian=False)
    df = fr.derivative(f, 1)
    assert df.mode((3, 0))[0] == pytest.approx(6j * math.pi)
    const = fr.FourierMap.constant(2, 4, [2.0, 1.0])
    assert fr.derivative(const, 2).l1_norm() == 0


def test_derivative_norm_bound():
    rng = np.random.default_rng(9)
    dom = const_domain(0.05)
    for _ in range(25):
        f = random_map(rng, n_max=5, max_modes=6)
        base = fr.norm_xi(f, dom)
        for j in (1, 2):
            df = fr.norm_xi(fr.derivative(f, j), dom)
            assert df <= 2 * math.pi * 5 * base * (1 + 1e-12)


def test_reality_preserved_by_operations():
    rng = np.random.default_rng(31)
    f = random_map(rng, n_max=5)
    g = random_map(rng, n_max=5)
    assert f.hermitian_defect() == 0
    assert fr.derivative(f, 1).hermitian_defect() < 1e-15
    prod = fr.multiply(f.component(0), g.component(0))
    assert prod.hermitian_defect() < 1e-15
    comp = fr.compose_shift(f, g.scaled(0.01))
    assert comp.hermitian_defect() < 1e-12 * max(comp.l1_norm(), 1)


# -- composition ----------------------------------------------------------------

def test_compose_identity_shift():
    rng = np.random.default_rng(13)
    f = random_map(rng, n_max=6)
    zero = fr.FourierMap.zeros(2, 6)
    out = fr.compose_shift(f, zero)
    assert np.abs(out.coeffs - f.coeffs).max() < 1e-14
    assert out.info["spill"] < 1e-14


def test_compose_constant_shift_is_translation():
    rng = np.random.default_rng(17)
    f = random_map(rng, n_max=5)
    v = np.array([0.37, -0.21])
    shift = fr.FourierMap.constant(2, 5, v)
    out = fr.compose_shift(f, shift)
    expected = fr.translate(f, v)
    assert np.abs(out.coeffs - expected.coeffs).max() < 1e-12


def test_compose_dual_path_agreement():
    rng = np.random.default_rng(23)
    f = random_map(rng, n_max=6, amp=0.5, span=2)
    h = random_map(rng, n_max=6, amp=2e-3, max_modes=3, span=2)
    grid_path = fr.compose_shift(f, h)
    series = fr.compose_shift(f, h, method="series")
    diff = float(np.abs(grid_path.coeffs - series.coeffs).sum())
    assert diff <= 1e-10 * max(1.0, f.l1_norm())


@pytest.mark.parametrize("which", ["f", "h"])
def test_compose_grid_refuses_non_real_maps(which):
    rng = np.random.default_rng(29)
    f = random_map(rng, n_max=6, amp=0.5, span=2)
    h = random_map(rng, n_max=6, amp=2e-3, max_modes=3, span=2)
    skew = dense_random_map(rng, 2, 6, decay=0.1)
    assert not skew.is_real()
    if which == "f":
        f = skew
    else:
        h = skew.scaled(1e-4)
    with pytest.raises(ValueError, match="real"):
        fr.compose_shift(f, h)


def test_compose_series_takes_any_map():
    # composition is linear in f, so the series oracle of the non-Hermitian
    # f1 + i f2 is the grid composition of f1 plus i times that of f2
    rng = np.random.default_rng(37)
    f1 = random_map(rng, n_max=6, amp=0.5, span=2)
    f2 = random_map(rng, n_max=6, amp=0.5, span=2)
    h = random_map(rng, n_max=6, amp=2e-3, max_modes=3, span=2)
    f = f1 + f2.scaled(1j)
    assert not f.is_real()
    series = fr.compose_shift(f, h, method="series")
    grid = fr.compose_shift(f1, h) + fr.compose_shift(f2, h).scaled(1j)
    diff = float(np.abs(grid.coeffs - series.coeffs).sum())
    assert diff <= 1e-10 * max(1.0, f.l1_norm())


def test_compose_series_guard():
    f = random_map(np.random.default_rng(1), n_max=6)
    h = fr.FourierMap.from_modes(2, 6, {(1, 0): [0.2, 0.1]})
    with pytest.raises(OracleDivergence):
        fr.compose_shift(f, h, method="series")
    # a tail that would need more than 40 orders
    with pytest.raises(OracleDivergence):
        fr._series_order(10.0)


@pytest.mark.parametrize("d", [1, 2])
def test_compose_series_complex_constant_shift(d):
    # f = e^(2 pi i k.x) at the constant complex shift h0 is
    # e^(2 pi i k.h0) e^(2 pi i k.x): the imaginary part of the mean weights
    # the mode by e^(-2 pi k.Im h0)
    k = (2, -1)[:d]
    h0 = np.array([0.01 + 0.003j, -0.02 + 0.001j])[:d]
    f = fr.FourierMap.from_modes(d, 4, {k: 1.0}, components=1, hermitian=False)
    h = fr.FourierMap.constant(d, 2, h0)
    got = fr.compose_shift(f, h, method="series")
    want = np.exp(2j * np.pi * np.dot(k, h0))
    assert abs(got.mode(k)[0] - want) <= 4e-16       # a few ulp of |want| ~ 1
    assert np.count_nonzero(got.coeffs) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_compose_series_jacobi_anger(d):
    # f = e^(2 pi i k.x), h_j = eps_j sin(2 pi x_j): by Jacobi-Anger,
    # f(x + h(x)) = prod_j sum_n J_n(2 pi k_j eps_j) e^(2 pi i (k_j + n) x_j),
    # so mode l carries prod_j J_(l_j - k_j)(2 pi k_j eps_j) exactly
    k, eps, n_max = (2, -1)[:d], (0.01, 0.006)[:d], 8
    f = fr.FourierMap.from_modes(d, n_max, {k: 1.0}, components=1,
                                 hermitian=False)
    modes = {}
    for j in range(d):
        vec = np.zeros(d, dtype=complex)
        vec[j] = eps[j] / 2j
        modes[tuple(int(i == j) for i in range(d))] = vec
    h = fr.FourierMap.from_modes(d, n_max, modes)
    got = fr.compose_shift(f, h, method="series").coeffs[0]
    bessel = [np.array([float(mpmath.besselj(int(l - k[j]),
                                             2 * mpmath.pi * k[j] * eps[j]))
                        for l in range(-n_max, n_max + 1)]) for j in range(d)]
    want = functools.reduce(np.multiply.outer, bessel)
    assert float(np.abs(got - want).sum()) <= 1e-15


def _criterion_08_maps():
    """The field f and shift h0 of acceptance criterion 08."""
    rng = np.random.default_rng(808)
    f = fr.FourierMap.from_modes(2, 10, {
        (1, 0): rng.standard_normal(2) * 0.3 + 1j * rng.standard_normal(2) * 0.3,
        (0, 1): rng.standard_normal(2) * 0.2,
        (2, 1): rng.standard_normal(2) * 0.05})
    h0 = fr.FourierMap.from_modes(2, 10, {
        (1, 0): [2e-4, 1e-4j], (0, 1): [-1.3e-4, 2.1e-4], (1, 1): [7e-5, -5e-5]})
    return f, h0


def _record_orders(monkeypatch, order=fr._series_order):
    """Record (rho, K) of every call of the package's `_series_order`."""
    seen = []

    def recording(rho):
        seen.append((rho, order(rho)))
        return seen[-1][1]

    monkeypatch.setattr(fr, "_series_order", recording)
    return seen


def test_series_products_stay_on_nonzero_supports(monkeypatch):
    # every factor of every product is stored at its nonzero radius, and no
    # partial sum outgrows the pruning cap n_out + K r: the dense boxes of
    # n_max + 6 n_max(h) do not come back
    f, h0 = _criterion_08_maps()
    r = max(fr.nonzero_radius(h0.component(j)) for j in range(2))
    multiply, operands = fr.multiply, []

    def recording(a, b):
        operands.extend((a, b))
        return multiply(a, b)

    monkeypatch.setattr(fr, "multiply", recording)
    for run in (lambda: fr.compose_shift(f, h0, method="series"),
                lambda: fr.invert_series(h0)):
        operands.clear()
        orders = _record_orders(monkeypatch)
        run()
        cap = 10 + max(K for _, K in orders) * r
        assert operands
        for op in operands:
            assert op.n_max == fr.nonzero_radius(op) <= cap
    # in d = 1 the products run b = K - 1, ..., 0: the i-th of them meets a
    # partial sum with K - i products left, capped at n_out + (K - i) r,
    # while an f that fills its box would reach n_out + i r unpruned
    f = dense_random_map(np.random.default_rng(88), 1, 8, components=1)
    h = fr.FourierMap.from_modes(1, 8, {(1,): 4e-3})
    operands.clear()
    orders = _record_orders(monkeypatch)
    fr.compose_shift(f, h, method="series")
    (_, K), = orders
    assert K > 2 and len(operands) == 2 * K
    for i, (shift, acc) in enumerate(zip(operands[::2], operands[1::2])):
        assert shift.n_max == fr.nonzero_radius(shift) == 1
        assert acc.n_max == fr.nonzero_radius(acc) <= 8 + (K - i)


@pytest.mark.parametrize("tol", [fr.SERIES_TOL, 1e-8])
def test_series_order_bounds_the_tail(monkeypatch, tol):
    # the a-priori order K: summing 5 more orders moves the result by at
    # most the tail bound rho^(K+1) / (K+1)! / (1 - rho/(K+2)) times ||f||
    monkeypatch.setattr(fr, "SERIES_TOL", tol)
    rng = np.random.default_rng(5)
    cases = [_criterion_08_maps()] + [
        (random_map(rng, n_max=8, amp=0.5, span=3),
         random_map(rng, n_max=8, amp=3e-3, max_modes=3, span=2))
        for _ in range(3)]
    for f, h in cases:
        orders = _record_orders(monkeypatch)
        at_k = fr.compose_shift(f, h, method="series")
        (rho, K), = orders
        monkeypatch.setattr(fr, "_series_order", lambda rho: K + 5)
        beyond = fr.compose_shift(f, h, method="series")
        bound = rho ** (K + 1) / math.factorial(K + 1) / (1 - rho / (K + 2))
        assert bound <= tol
        diff = np.abs(at_k.coeffs - beyond.coeffs).sum(axis=(1, 2)).max()
        assert diff <= bound * f.l1_norm()


def test_series_oracle_never_touches_the_grid(monkeypatch):
    # the oracle stays independent of the path it checks: no FFT, no grid
    # values, no dense evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("the series route used the grid machinery")

    for name in ("fft", "ifft", "fftn", "ifftn", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    monkeypatch.setattr(fr.FourierMap, "evaluate", refuse)
    monkeypatch.setattr(fr.FourierMap, "grid_values", refuse)
    monkeypatch.setattr(fr.GridTaylor, "__init__", refuse)
    f, h0 = _criterion_08_maps()
    fr.compose_shift(f, h0, method="series")
    fr.invert_series(h0)


# -- inversion -------------------------------------------------------------------

def test_invert_zero_and_constant():
    zero = fr.FourierMap.zeros(2, 5)
    g = fr.invert_near_identity(zero)
    assert g.l1_norm() < 1e-14
    const = fr.FourierMap.constant(2, 5, [0.3, 0.4])
    g2 = fr.invert_near_identity(const)
    assert g2.l1_norm() < 1e-13


def test_invert_round_trip_and_quadratic_band():
    # span 2 inside n_max 10: the inverse's tail needs h^5 to escape the
    # truncation, which sits below the 1e-12 round-trip target at this size
    rng = np.random.default_rng(41)
    h0 = random_map(rng, n_max=10, amp=1.5e-3, max_modes=3, span=2)
    m = 32
    pts = fr._sample_points(2, m)
    ratios = []
    for k in range(6):
        h = h0.scaled(2.0 ** -k)
        assert fr.invert_near_identity(h).info["spill"] < 1e-12
        g = fr.invert_near_identity(h)
        # functional check: (id + h) o (id - h + g) = id
        y = pts - h.evaluate(pts).T + g.evaluate(pts).T
        z = y + h.evaluate(y).T
        assert np.abs(z - pts).max() <= 1e-12
        ratios.append(g.l1_norm() / h.l1_norm() ** 2)
    assert max(ratios) <= 4 * min(ratios)


def test_invert_series_agreement():
    rng = np.random.default_rng(43)
    h = random_map(rng, n_max=6, amp=1e-3, max_modes=3, span=2)
    g_grid = fr.invert_near_identity(h)
    g_series = fr.invert_series(h)
    assert np.abs(g_grid.coeffs - g_series.coeffs).sum() <= 1e-10


def _evaluation_tolerance(f, M, sums):
    """Rounding budget of a dense evaluation of f at points with
    |coordinates| <= M whose phases are `_phase_rows`' cumulative products,
    u = 2^-53, W = sum_l |c_l| |l|_1, C = sum_l |c_l| (max over
    components): the phases cost W (3 pi M + 3) u, and the folds, products
    and sums at most `sums` u C (6 s + 10 for `evaluate`, 4 s + 8 for
    `_evaluate_complex`: two complex products and 4 s additions per term;
    see `_direct_tolerance`)."""
    u = 2.0 ** -53
    axes = tuple(range(1, f.d + 1))
    mags = np.abs(f.coeffs)
    W = float((mags * fr._l1_norms(f.d, f.n_max)).sum(axis=axes).max())
    C = float(mags.sum(axis=axes).max())
    return u * (W * (3 * np.pi * M + 3) + sums * C)


def _sweep_case(d, n_max, seed, amp, span):
    """A small real h with modes |l|_sup <= span and 300 target points v
    with |coordinates| < 1.9, like the shifted grids of the KAM stage."""
    rng = np.random.default_rng(seed)
    h = random_map(rng, d=d, n_max=n_max, amp=amp, max_modes=3, span=span)
    return h, rng.random((300, d)) * 3.8 - 1.9


def _true_residual_bound(h, v, y, residual, sums):
    """Bound of the exact sup |y + h(y) - v| from a residual computed with
    one evaluation of h (`sums` as in `_evaluation_tolerance`): the
    residual's two roundings (2 u M) and that evaluation's budget."""
    M = float(max(np.abs(v).max(), np.abs(y).max())) + h.l1_norm()
    return residual + 2 * 2.0 ** -53 * M + _evaluation_tolerance(h, M, sums)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [6, 16])
def test_preimages_residual_against_complex_oracle(d, n_max):
    # the sweep measures its residual with `evaluate`; recomputed with the
    # complex oracle it may exceed the recorded one by the rounding of that
    # evaluation, the oracle's own, and the residual's, and no more
    h, v = _sweep_case(d, n_max, 700 + 10 * d + n_max, amp=1e-3, span=2)
    y, h_y, residual, sweeps = fr._preimages(h, h.evaluate, v, v.copy())
    assert 1 < sweeps < 80 and residual < 1e-14
    assert np.array_equal(h_y, h.evaluate(y).T)
    oracle = np.abs(y + _evaluate_complex(h, y).real.T - v).max()
    s = fr.nonzero_radius(h)
    M = float(max(np.abs(v).max(), np.abs(y).max())) + h.l1_norm()
    tol = (_true_residual_bound(h, v, y, residual, 6 * s + 10)
           + 2 * 2.0 ** -53 * M + _evaluation_tolerance(h, M, 4 * s + 8))
    assert oracle <= tol, (oracle, tol)


@pytest.mark.parametrize("d, n_max", [(1, 8), (2, 6)])
def test_preimages_agree_with_invert_series(d, n_max):
    # the series route's preimage v - h(v) + g(v), g = `invert_series`(h),
    # taken with the complex oracle.  Each preimage a lies within
    # |a + h(a) - v| / (1 - L) of the exact one, L = `fr._lipschitz`(h) < 1,
    # because |a + h(a) - b - h(b)| >= (1 - L) |a - b|.  Modes |l| <= 1 keep
    # the inverse's band beyond n_max (order 9 and up) below the rounding
    h, v = _sweep_case(d, n_max, 800 + 10 * d + n_max, amp=3e-4, span=1)
    y, _, residual, _ = fr._preimages(h, h.evaluate, v, v.copy())
    h_v = _evaluate_complex(h, v).real.T
    y_ref = v - h_v + _evaluate_complex(fr.invert_series(h), v).real.T
    res_ref = np.abs(y_ref + _evaluate_complex(h, y_ref).real.T - v).max()
    s = fr.nonzero_radius(h)
    theta = 1.0 / (1.0 - fr._lipschitz(h))
    tol = (theta * (_true_residual_bound(h, v, y, residual, 6 * s + 10)
                    + _true_residual_bound(h, v, y_ref, res_ref, 4 * s + 8))
           + 2.0 ** -53 * float(np.abs(y).max()))   # the difference below
    assert np.abs(y - y_ref).max() <= tol
    # the comparison resolves far below the correction g that the
    # first-order inverse v - h(v) lacks
    assert tol < 1e-6 * np.abs(y - (v - h_v)).max()


def test_invert_guard():
    h = fr.FourierMap.from_modes(2, 8, {(1, 0): [0.05, 0.02]})
    with pytest.raises(ContractionFailure):
        fr.invert_near_identity(h)


# -- Taylor values from the grid -------------------------------------------------

def _derivative_sups(values):
    """S[a, b] for a + b <= K (a = 0 in d = 1), bounds of
    |d_1^a d_2^b g| over the grid for the map g of the Taylor sums
    `values` of order K: max_j sum_l |2 pi l_1|^a |2 pi l_2|^b |g_j(l)|,
    one pass over the coefficients per (a, b), and for the order-0 values
    the largest computed one."""
    g, K = values.g, values.order
    size = np.abs(g.coeffs)
    modes = np.abs(fr.TWO_PI * np.arange(-g.n_max, g.n_max + 1))
    axes = tuple(range(1, g.d + 1))
    sups = np.zeros((K + 1, K + 1))
    for a in range(K + 1 if g.d == 2 else 1):
        for b in range(K - a + 1):
            factor = modes ** b if g.d == 1 else np.outer(modes ** a, modes ** b)
            sups[a, b] = (size * factor).sum(axis=axes).max()
    sups[0, 0] = np.abs(values.grid).max()
    return sups


def _moment_rounding(values, points):
    """`GridTaylor.rounding` in the (a, b) form, from `_derivative_sups`
    S: horner = gamma_(3K+2) sum_{|t| <= K} S_t r^|t| / t! and
    synthesis = sum_{1 <= |t| <= K} |t| r^(|t|-1) / t!
    (rho + 2 (|t| + 4) u) sqrt(N) S_t, the max over components taken per
    multi-index t."""
    u = 2.0 ** -53
    K, r = values.order, values.radius
    sups = _derivative_sups(values)
    rho = fr._fft_rho(points)
    horner = synthesis = 0.0
    for a in range(K + 1):
        for b in range(K + 1 - a):
            t = a + b
            scale = sups[a, b] / (math.factorial(a) * math.factorial(b))
            horner += scale * r ** t
            if t:
                synthesis += (t * r ** (t - 1) * scale
                              * (rho + 2 * (t + 4) * u) * math.sqrt(points))
    n = 3 * K + 2
    return (n * u / (1 - n * u) * horner if K else 0.0), synthesis


def _taylor_budget(values, M):
    """Budget of |values(delta) - the complex dense sum at x + delta| for
    offsets within the radius r and coordinates |x + delta| <= M: the tail
    bound, the Horner rounding, the synthesis error of every order times
    r^|t| / t! (of the order-0 values too, which the oracle does not
    share; `GridTaylor.rounding` gives the form), and the oracle's own
    rounding (`_evaluation_tolerance` with 4 s + 8)."""
    u = 2.0 ** -53
    points = values.m ** values.g.d
    rho = fr._fft_rho(points)
    horner, _ = values.rounding(points)
    sups = _derivative_sups(values)
    synthesis = sum(
        values.radius ** (a + b) / (math.factorial(a) * math.factorial(b))
        * (rho + 2 * (a + b + 4) * u) * math.sqrt(points) * sups[a, b]
        for a in range(values.order + 1) for b in range(values.order + 1 - a))
    s = fr.nonzero_radius(values.g)
    return (values.tail + horner + synthesis
            + _evaluation_tolerance(values.g, M, 4 * s + 8))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [4, 16])
def test_grid_taylor_matches_complex_sum(d, n_max):
    # at radii from 1e-9 (order 1 or 2) to 1e-3 (order 6 to 10), offsets
    # drawn up to the widened radius.  At the small radii the order K - 1
    # misses by 1e-12 to 1e-7 against budgets near 1e-13, and a flipped
    # derivative sign misses by twice the first-order term
    rng = np.random.default_rng(900 + 10 * d + n_max)
    g = random_map(rng, d=d, n_max=n_max, max_modes=8, decay=0.7)
    m = fr._grid_size(n_max)
    x = fr._sample_points(d, m)
    assert np.abs(fr.GridTaylor(g, m).grid - _evaluate_complex(g, x).real).max() \
        <= 1e-14 * g.l1_norm()
    orders = []
    for r in (1e-9, 1e-6, 1e-4, 1e-3):
        values = fr.GridTaylor(g, m).fix_radius(r)
        assert values.radius >= r
        assert values.tail <= 2.0 ** -53 * g.l1_norm()
        offsets = rng.uniform(-values.radius, values.radius, size=x.shape)
        got = values(offsets)
        want = _evaluate_complex(g, x + offsets).real
        budget = _taylor_budget(values, float(np.abs(x + offsets).max()))
        assert np.abs(got - want).max() <= budget
        orders.append(values.order)
    assert orders == sorted(orders) and 1 <= orders[0] < orders[-1]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_max", [4, 16])
def test_grid_taylor_rounding_against_moment_loops(d, n_max):
    # the shell sums regroup the (a, b) moments of one component exactly
    # (binomial theorem), so one component agrees up to the rounding of
    # the two summation orders; with two, the max over components is taken
    # after the regrouping, never above the max per multi-index
    rng = np.random.default_rng(960 + 10 * d + n_max)
    m = fr._grid_size(n_max)
    points = m ** d
    orders = []
    for components in (1, 2):
        g = random_map(rng, d=d, n_max=n_max, components=components,
                       max_modes=8, decay=0.7)
        for r in (1e-9, 1e-6, 1e-4, 1e-3):
            values = fr.GridTaylor(g, m).fix_radius(r)
            got = values.rounding(points)
            want = _moment_rounding(values, points)
            assert min(got) > 0
            if components == 1:
                assert got == pytest.approx(want, rel=1e-12, abs=0)
            else:
                assert all(x <= y * (1 + 1e-12) for x, y in zip(got, want))
            orders.append(values.order)
    assert 1 <= min(orders) and max(orders) >= 6


def test_grid_taylor_refuses_offsets_beyond_radius():
    rng = np.random.default_rng(940)
    g = random_map(rng, n_max=8, max_modes=6)
    m = fr._grid_size(8)
    values = fr.GridTaylor(g, m).fix_radius(1e-6)
    offsets = np.zeros((m * m, 2))
    offsets[17, 1] = -values.radius
    values(offsets)                                   # at the radius: summed
    offsets[17, 1] = -np.nextafter(values.radius, 1.0)
    with pytest.raises(OffsetBeyondRadius) as exc:
        values(offsets)
    assert exc.value.radius == values.radius < exc.value.offset
    assert exc.value.diagnostic()["error"] == "OffsetBeyondRadius"
    # a radius that no order up to TAYLOR_MAX_ORDER meets
    with pytest.raises(OffsetBeyondRadius):
        fr.GridTaylor(g, m).fix_radius(1.0)
    # a constant map has every radius, and its values are its constant
    const = fr.GridTaylor(fr.FourierMap.constant(2, 8, [0.25, -0.5]), m)
    const.fix_radius(1.0)
    assert const.order == 0 and const.radius == math.inf and const.tail == 0
    assert const.rounding(m * m) == (0.0, 0.0)
    assert np.array_equal(const(np.full((m * m, 2), 3.0)),
                          np.repeat([[0.25], [-0.5]], m * m, axis=1))


# -- remainder split --------------------------------------------------------------

def _domains(radii_scale=0.9, d=2, base=0.08, grid_count=8):
    grid = DirectionGrid.circle(grid_count)
    dom = fr.SlicedDomain(grid=grid, radii=(base,) * grid_count)
    shrunk = fr.SlicedDomain(grid=grid, radii=(base * radii_scale,) * grid_count)
    return dom, shrunk


def test_remainder_split_single_far_mode():
    # one tail mode with |beta.l| > N/2 for the aligned direction: the lhs
    # equals the first right-hand term exactly there, so the bound is tight
    N = 2
    f = fr.FourierMap.from_modes(2, 6, {(5, 0): [1e-6, 0.0]}, hermitian=False)
    dom, shrunk = _domains()
    rep = fr.remainder_split_check(f, dom, shrunk, N)
    assert rep.all_passed(), _failure_lines(rep)


def test_remainder_split_random_tails():
    rng = np.random.default_rng(59)
    dom, shrunk = _domains()
    for _ in range(20):
        f = random_map(rng, n_max=6, amp=0.3, decay=0.35, max_modes=6)
        rep = fr.remainder_split_check(f, dom, shrunk, 3)
        assert rep.all_passed(), _failure_lines(rep)


def test_remainder_split_empty_tail():
    rng = np.random.default_rng(61)
    f = random_map(rng, n_max=4)
    dom, shrunk = _domains()
    rep = fr.remainder_split_check(f, dom, shrunk, 4)
    assert rep.all_passed()
    assert all("lhs = 0" in e.margin for e in rep.entries)
