"""Frequency-domain half-plane projections on the uniform lambda grid.

Plus functions are exactly the nonnegative-frequency images of half-line
data, so the additive split is a masked FFT with the DC (and Nyquist) bin
shared half-half between the parts.  Raw masking is limited by domain
periodization: the split parts of an f that decays like 1/lambda^2 still
carry +-i I0 / lambda tails (I0 the normalized integral of f), and wrapping
those tails pollutes the window edges at the 1e-2 level.  The split
therefore subtracts a six-term rational model whose leading plus/minus
tail coefficients are pinned by I0 and by an edge fit of f's own Laurent
tail, splits the model exactly, and masks only the remainder.  Every step
is linear in the samples, so the split is a linear operator that the
matrix-free Riemann-Hilbert solver applies directly; the dense N x N form
(`plus_projector_matrix`) serves only as a reference in tests.
"""

from __future__ import annotations

from functools import cache

import numpy as np

EDGE_FRACTION = 0.1
MODEL_W = 2.0
NOISE_FLOOR = 1e-13


def plus_mask(n: int) -> np.ndarray:
    """Frequency mask of the plus part with the shared-bin convention."""
    plus = np.zeros(n)
    plus[1 : n // 2] = 1.0
    plus[0] = 0.5
    plus[n // 2] = 0.5
    return plus


def edge_indices(n: int) -> np.ndarray:
    """Indices of the grid-end samples the tail fits use: EDGE_FRACTION of n points."""
    k = max(6, int(EDGE_FRACTION * n / 2))
    return np.concatenate([np.arange(k), np.arange(n - k, n)])


def pole_basis(grid: np.ndarray, pole: complex) -> np.ndarray:
    """Columns 1/(lambda - pole)^p, p = 1, 2, 3: the three-term rational tail model."""
    d = grid - pole
    return np.stack([1.0 / d, 1.0 / d ** 2, 1.0 / d ** 3], axis=1)


def _laurent_fit(grid: np.ndarray, flat: np.ndarray):
    """Edge least-squares fit of c1/l + c2/l^2 + c3/l^3 per column of flat."""
    idx = edge_indices(len(grid))
    le = grid[idx]
    basis = np.stack([1.0 / le, 1.0 / le ** 2, 1.0 / le ** 3], axis=1)
    scale = np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, flat[idx], rcond=None)
    return coef / scale[:, None]  # rows: c1, c2, c3


@cache
def _si_rule():
    """40-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    u, w = np.polynomial.legendre.leggauss(40)
    return 0.5 * (u + 1.0), 0.5 * w


def sine_integral(x):
    """Si(x) = integral_0^1 sin(x u) / u du by a fixed Gauss-Legendre sum.

    The integrand is entire, so 40 nodes give Si to about 2e-14 for
    |x| <= 14, the range the split's probe window uses (lam_max * t <= 14).
    """
    u, w = _si_rule()
    return np.sin(np.multiply.outer(np.asarray(x, float), u)) @ (w / u)


def _halfline_density(grid, flat, c, t_values):
    """phi(t) = (1/2pi) integral f e^{-i lambda t} d lambda at small t > 0.

    For t > 0 only the plus part contributes, so phi(0+) and phi'(0+) give
    the exact leading Laurent coefficients of the plus part.  The window is
    closed with the analytic tail of the fitted Laurent model.
    """
    lam_max = float(max(abs(grid[0]), abs(grid[-1])))
    step = float(grid[1] - grid[0])
    c1, c2, c3 = c[0], c[1], c[2]
    t = np.asarray(t_values)
    phases = np.exp(-1j * np.outer(grid, t))
    # trapezoid closure of the half-open window; the phantom +L node comes
    # from the Laurent model (the raw rectangle sum leaves an O(step f(L))
    # oscillatory error that wrecks the slope estimate)
    f_right = c1 / lam_max + c2 / lam_max ** 2 + c3 / lam_max ** 3
    window = step * (
        phases.T @ flat
        - 0.5 * np.outer(phases[0], flat[0])
        + 0.5 * np.outer(np.exp(-1j * lam_max * t), f_right)
    )  # (nt, k)
    si = sine_integral(lam_max * t)
    rest = 0.5 * np.pi - si
    tail1 = -2j * rest
    tail2 = 2.0 * (np.cos(lam_max * t) / lam_max - t * rest)
    tail3 = -2j * (
        np.sin(lam_max * t) / (2.0 * lam_max ** 2)
        + 0.5 * t * (np.cos(lam_max * t) / lam_max - t * rest)
    )
    tails = tail1[:, None] * c1[None, :] + tail2[:, None] * c2[None, :] + tail3[:, None] * c3[None, :]
    return (window + tails) / (2.0 * np.pi)


def _split_model(grid: np.ndarray, flat: np.ndarray):
    """Rational model of each column with the correct plus/minus tail split.

    Returns (model samples, plus-part samples), each of flat's shape; the
    minus part is the difference.  The split parts of f carry 1/lambda
    tails that f itself need not show; their leading coefficients are fixed
    exactly by the moments of f (i phi(0+) via I0 and -phi'(0+) via the
    small-t half-line density), while order three only matches f's own tail
    and is assigned symmetrically, wrapping at the negligible 1/lambda^3
    periodization level.
    """
    lam_max = float(max(abs(grid[0]), abs(grid[-1])))
    step = float(grid[1] - grid[0])
    c = _laurent_fit(grid, flat)
    c1, c2, c3 = c[0], c[1], c[2]
    w = MODEL_W

    # trapezoid over the half-open window, closed with the model value at +L,
    # plus the analytic tail of the even model part beyond the window
    tail_plus_l = c1 / lam_max + c2 / lam_max ** 2 + c3 / lam_max ** 3
    window = step * (flat.sum(axis=0) - 0.5 * flat[0] + 0.5 * tail_plus_l)
    i0 = (window + 2.0 * c2 / lam_max) / (2.0 * np.pi)

    # short probe window: the moment values carry ~1e-8 noise while the
    # cubic-truncation bias grows like (rate * t)^4, so small t wins for any
    # density varying on O(1) scales
    t_probe = (2.0 / lam_max) * np.arange(1, 8)
    phi = _halfline_density(grid, flat, c, t_probe)
    vand = np.vander(t_probe, 4, increasing=True)  # [1, t, t^2, t^3]
    scale_t = np.abs(vand).max(axis=0)
    fit = np.linalg.lstsq(vand / scale_t, phi, rcond=None)[0] / scale_t[:, None]
    slope, curv = fit[1], 2.0 * fit[2]

    l1p = 1j * i0 + 0.5 * c1  # = i phi(0+)
    l2p = -slope  # = -phi'(0+)
    l3p = -1j * curv  # = -i phi''(0+)
    a1 = l1p
    g1 = c1 - a1
    a2 = l2p + 1j * w * a1
    g2 = (c2 - l2p) - 1j * w * g1
    a3 = l3p + 2j * w * a2 + w * w * a1
    g3 = (c3 - l3p) - 2j * w * g2 + w * w * g1

    plus = pole_basis(grid, -1j * w) @ np.stack([a1, a2, a3])
    minus = pole_basis(grid, 1j * w) @ np.stack([g1, g2, g3])
    return plus + minus, plus


def split_samples(grid: np.ndarray, values: np.ndarray):
    """Additive split of samples (axis 0 is lambda): returns (plus, minus).

    The minus mask is one minus the plus mask and the model's parts sum to
    the model, so the minus part is the samples minus the plus part.
    """
    n = len(grid)
    flat = values.reshape(n, -1)
    model, mplus = _split_model(grid, flat)
    spec = np.fft.fft(flat - model, axis=0)
    plus = (np.fft.ifft(spec * plus_mask(n)[:, None], axis=0) + mplus).reshape(values.shape)
    return plus, values - plus


def plus_projector_matrix(grid: np.ndarray) -> np.ndarray:
    """Dense N x N matrix with the same action as split_samples' plus part.

    N FFTs of the identity; a reference for tests of the matrix-free solver.
    """
    return split_samples(grid, np.eye(len(grid)))[0]


def continue_off_axis(f, delta: float) -> np.ndarray:
    """Samples of f(lambda + i delta) by frequency continuation.

    Frequencies damped by the shift are exact; amplified frequencies are
    noise-floor truncated, valid only inside the declared analyticity strip.
    """
    values = f.values
    n = len(f.grid)
    step = f.step
    spec = np.fft.fft(values, axis=0)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    mags = np.abs(spec).reshape(n, -1).max(axis=1)
    floor = NOISE_FLOOR * float(mags.max()) if mags.max() > 0 else 0.0
    keep = mags > floor
    factor = np.where(keep, np.exp(-np.clip(omega * delta, -700, 700)), 0.0)
    shape = (n,) + (1,) * (values.ndim - 1)
    return np.fft.ifft(spec * factor.reshape(shape), axis=0)
