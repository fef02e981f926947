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
_OMEGA_CHUNK = 128  # omegas per (cell, omega) phase matrix of filon_simpson_transform


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


def _g0(theta):
    # sin(theta)/theta
    return np.sinc(theta / np.pi)


def _g1(theta):
    # (sin t - t cos t)/t^2
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < _SMALL
    ts = np.where(small, 1.0, theta)
    out = (np.sin(ts) - ts * np.cos(ts)) / (ts * ts)
    t2 = theta * theta
    series = theta / 3.0 - theta * t2 / 30.0 + theta * t2 * t2 / 840.0 - theta * t2 * t2 * t2 / 45360.0
    return np.where(small, series, out)


def _g2(theta):
    # (t^2 sin t + 2 t cos t - 2 sin t)/t^3
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < _SMALL
    ts = np.where(small, 1.0, theta)
    out = (ts * ts * np.sin(ts) + 2.0 * ts * np.cos(ts) - 2.0 * np.sin(ts)) / (ts ** 3)
    t2 = theta * theta
    series = 1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0 - t2 * t2 * t2 / 6480.0
    return np.where(small, series, out)


def filon_simpson_transform(values, t0: float, dt: float, omegas):
    """integral values(t) e^{i omega t} dt over the sample range.

    values has the time axis last; a quadratic is fitted per pair of cells
    (classic Filon), so the error is O(dt^4) uniformly in omega.  An even
    sample count is padded with one zero (callers pass decayed tails).
    """
    values = np.asarray(values, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    nt = values.shape[-1]
    if nt < 3:
        raise ValueError("need at least 3 samples")
    if nt % 2 == 0:
        pad = np.zeros(values.shape[:-1] + (1,), dtype=complex)
        values = np.concatenate([values, pad], axis=-1)
        nt += 1
    k = (nt - 1) // 2
    f0 = values[..., 0:-1:2]
    f1 = values[..., 1::2]
    f2 = values[..., 2::2]
    a = f1
    b = (f2 - f0) / (2.0 * dt)
    c = (f2 - 2.0 * f1 + f0) / (2.0 * dt * dt)
    centers = t0 + dt * (2.0 * np.arange(k) + 1.0)

    lead = values.shape[:-1]
    out = np.zeros(lead + omegas.shape, dtype=complex)
    h = dt
    for lo in range(0, len(omegas), _OMEGA_CHUNK):
        w = omegas[lo : lo + _OMEGA_CHUNK]
        theta = w * h
        m0 = 2.0 * h * _g0(theta)
        m1 = 2j * h * h * _g1(theta)
        m2 = 2.0 * h ** 3 * _g2(theta)
        phase = np.exp(1j * np.multiply.outer(centers, w))  # (k, nw)
        sa = a @ phase
        sb = b @ phase
        sc = c @ phase
        out[..., lo : lo + _OMEGA_CHUNK] = sa * m0 + sb * m1 + sc * m2
    return out
