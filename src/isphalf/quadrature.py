"""Oscillatory quadrature helpers.

Integrals of the form  integral f(t) e^{i w t} dt  appear throughout:
half-line transforms of kernels, the asymptotic-amplitude quadratures and
the successive-approximation sweeps.  Plain trapezoid degrades like
(w h)^2, which is fatal at the grid's largest frequencies, so every rule
here integrates the oscillation exactly and approximates only the slow
factor (piecewise linear or piecewise quadratic).  The resulting value is
the exact transform of the interpolant, which also preserves one-sided
(half-plane) structure of half-line transforms.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL = 0.35


def _moment(z, closed, divisors):
    """closed(z), or the series sum_k z^k / divisors[k] where |z| < _SMALL;
    z may be 0-d."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SMALL
    zs = np.where(small, 1.0, z)
    out = np.asarray(closed(zs))
    if np.any(small):
        s = z[small]
        acc = np.zeros(s.shape, dtype=complex)
        power = np.ones(s.shape, dtype=complex)
        for d in divisors:
            acc += power / d
            power = power * s
        out[small] = acc
    return out


def _m0(z):
    """integral_0^1 e^{z t} dt = (e^z - 1)/z, stable near z = 0."""
    return _moment(z, lambda z: (np.exp(z) - 1.0) / z, [math.factorial(k + 1) for k in range(14)])


def _m1(z):
    """integral_0^1 t e^{z t} dt = (z e^z - e^z + 1)/z^2, stable near z = 0."""
    return _moment(
        z, lambda z: (z * np.exp(z) - np.exp(z) + 1.0) / (z * z), [math.factorial(k) * (k + 2) for k in range(14)]
    )


def _m2(z):
    """integral_0^1 t^2 e^{z t} dt = (e^z (z^2 - 2 z + 2) - 2)/z^3, stable near z = 0."""
    return _moment(
        z,
        lambda z: (np.exp(z) * (z * z - 2.0 * z + 2.0) - 2.0) / (z * z * z),
        [math.factorial(k) * (k + 3) for k in range(14)],
    )


def linear_segment_transform(x_left, h, v_left, v_right, z):
    """integral_{x_left}^{x_left + h} v_lin(s) e^{i z s} ds, elementwise in the broadcast.

    v_lin is the linear interpolant of v_left at x_left and v_right at x_left + h.
    """
    arg = 1j * z * h
    seg = h * (v_left * _m0(arg) + (v_right - v_left) * _m1(arg))
    return np.exp(1j * z * x_left) * seg


def cumulative_right_linear(x0: float, dx: float, g, omega: float):
    """I[i] = integral_{x_i}^{x_end} g_lin(s) e^{i omega s} ds on a uniform grid:
    the suffix sums of the segment transforms.

    Used by the right-to-left successive-approximation sweeps; |e^{i omega s}| = 1
    for real omega so the recursion is stable.
    """
    g = np.asarray(g, dtype=complex)
    n = len(g)
    seg = linear_segment_transform(x0 + dx * np.arange(n - 1), dx, g[:-1], g[1:], omega)
    out = np.zeros(n, dtype=complex)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _chirp(turns: float, m: np.ndarray) -> np.ndarray:
    """e^{2 pi i turns m^2} for integers m, with turns m^2 reduced modulo 1
    before the exponential: turns splits into a head short enough that its
    product with every m^2 is exact, whose fractional part is then exact too,
    and a tail whose product is a small correction.  So the phase is good to
    a few ulps of 2 pi, however large turns m^2 grows."""
    square = (m * m).astype(float)
    mantissa, exponent = math.frexp(turns)
    bits = max(53 - int(square.max()).bit_length(), 0)
    head = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    whole = head * square
    return np.exp(2j * np.pi * ((whole - np.round(whole)) + (turns - head) * square))


def uniform_phase_sums(values, t0: float, dt: float, omegas):
    """sum_k values[..., k] e^{i omega_j (t0 + k dt)} on a uniform grid of
    omegas (a single omega is a grid of one): a chirp-z transform.

    With omega_j = omega_c + (j - c) domega about the middle node c,
    Bluestein's identity (j - c) k = ((j - c)^2 + k^2 - (j - c - k)^2) / 2
    turns the sum into one FFT convolution of the chirped values with the
    conjugate chirp, of a power-of-two length at least K + N - 1, so the cost
    is O((K + N) log) instead of O(K N) (Rabiner, Schafer and Rader, IEEE
    Trans. Audio Electroacoust. 17, 1969; Bluestein, 1970).  The chirp phases
    domega dt m^2 / 2 reach far beyond the largest |omega t|; _chirp reduces
    them modulo 2 pi exactly, so the three chirps compose to
    e^{i domega dt (j - c) k} with one common rounding of domega dt.  Taking
    the linear phase from omega_c keeps it small on grids centred on 0, where
    the transforms of decaying data are largest.
    """
    values = np.asarray(values, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    count, nk = len(omegas), values.shape[-1]
    domega = float(omegas[-1] - omegas[0]) / max(count - 1, 1)
    j = np.arange(count) - count // 2
    omega_c = omegas[count // 2]
    if np.abs(omegas - (omega_c + domega * j)).max() > 1e-12 * np.abs(omegas).max():
        raise ValueError("omegas must form a uniform grid")
    turns = domega * dt / (4.0 * np.pi)
    size = 1 << (nk + count - 2).bit_length()
    k, lag = np.arange(nk), np.arange(1 - nk, count)
    kernel = np.zeros(size, dtype=complex)
    kernel[lag] = _chirp(-turns, lag - count // 2)  # negative lags wrap to the end
    head = np.fft.fft(values * (np.exp(1j * omega_c * dt * k) * _chirp(turns, k)), n=size)
    sums = np.fft.ifft(head * np.fft.fft(kernel), axis=-1)[..., :count]
    return sums * (np.exp(1j * t0 * omegas) * _chirp(turns, j))


def filon_simpson_transform(values, t0: float, dt: float, omegas):
    """integral values(t) e^{i omega t} dt over the sample range, on a uniform
    grid of omegas (a single omega is a grid of one).

    values has the time axis last; a quadratic is fitted per pair of cells
    (classic Filon), so the error is O(dt^4) uniformly in omega.  An even
    sample count is padded with one zero (callers pass decayed tails).  The
    three sums over the cells, of the quadratic's coefficients against
    e^{i omega t} at the cell centres, are chirp-z transforms
    (uniform_phase_sums), and the Filon moments weight them per omega.
    """
    values = np.asarray(values, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    nt = values.shape[-1]
    if nt < 3:
        raise ValueError("need at least 3 samples")
    if nt % 2 == 0:
        pad = np.zeros(values.shape[:-1] + (1,), dtype=complex)
        values = np.concatenate([values, pad], axis=-1)
    f0 = values[..., 0:-1:2]
    f1 = values[..., 1::2]
    f2 = values[..., 2::2]
    a = f1
    b = (f2 - f0) / (2.0 * dt)
    c = (f2 - 2.0 * f1 + f0) / (2.0 * dt * dt)
    # the cell centres t0 + dt (2k + 1)
    sa, sb, sc = uniform_phase_sums(np.stack([a, b, c]), t0 + dt, 2.0 * dt, omegas)
    # over a cell pair, u = t - centre in [-dt, dt] and theta = omega dt:
    # integral u^p e^{i omega u} du is 2 dt^{p+1} times Re m0, i Im m1, Re m2 at i theta
    z = 1j * omegas * dt
    m0 = 2.0 * dt * _m0(z).real
    m1 = 2j * dt * dt * _m1(z).imag
    m2 = 2.0 * dt ** 3 * _m2(z).real
    return sa * m0 + sb * m1 + sc * m2
