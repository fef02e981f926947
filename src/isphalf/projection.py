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
(`plus_projector_matrix`) serves only as a reference in tests.  The same
remainder spectrum and model give the parts' half-line densities
(`split_densities`).
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


def edge_tail_fit(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients (rows c1, c2, c3) of the Laurent tail c1/l + c2/l^2 + c3/l^3
    per column of values, by least squares at the edge samples with each
    basis column scaled to unit sup."""
    idx = edge_indices(len(grid))
    basis = pole_basis(grid[idx], 0.0)
    scale = np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, values[idx], rcond=None)
    return coef / scale[:, None]


# the non-negative half of the 40-point Gauss-Legendre rule on [-1, 1]
# (np.polynomial.legendre.leggauss(40), whose nodes are exactly symmetric),
# written out so a split does not import numpy.polynomial
_LEGENDRE_NODES = (
    0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
    0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
    0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
    0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
    0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591,
)
_LEGENDRE_WEIGHTS = (
    0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
    0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
    0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
    0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
    0.022245849194166653, 0.016421058381906828, 0.010498284531153814, 0.004521277098536349,
)


@cache
def _si_rule():
    """40-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    u = np.array(_LEGENDRE_NODES)
    w = np.array(_LEGENDRE_WEIGHTS)
    u, w = np.concatenate([-u[::-1], u]), np.concatenate([w[::-1], w])
    return 0.5 * (u + 1.0), 0.5 * w


def sine_integral(x):
    """Si(x) = integral_0^1 sin(x u) / u du by a fixed Gauss-Legendre sum.

    The integrand is entire, so 40 nodes give Si to about 2e-14 for
    |x| <= 14, the range the split's probe window uses (lam_max * t <= 14).
    """
    u, w = _si_rule()
    return np.sin(np.multiply.outer(np.asarray(x, float), u)) @ (w / u)


def _halfline_density(grid, flat, c, t_values, lam_max: float, step: float, f_right):
    """phi(t) = (1/2pi) integral f e^{-i lambda t} d lambda at small t > 0.

    For t > 0 only the plus part contributes, so phi(0+) and phi'(0+) give
    the exact leading Laurent coefficients of the plus part.  The window
    [-lam_max, lam_max) of spacing step is closed with the analytic tail of
    the fitted Laurent model c, whose value at +lam_max is f_right.
    """
    c1, c2, c3 = c[0], c[1], c[2]
    t = np.asarray(t_values)
    phases = np.exp(-1j * np.outer(grid, t))
    # trapezoid closure of the half-open window; the phantom +L node comes
    # from the Laurent model (the raw rectangle sum leaves an O(step f(L))
    # oscillatory error that wrecks the slope estimate)
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

    Returns the coefficients (plus, minus), each of shape (3, columns), of
    the plus part sum_p a_p / (lambda + i w)^p and the minus part
    sum_p g_p / (lambda - i w)^p, w = MODEL_W.  The split parts of f carry 1/lambda
    tails that f itself need not show; their leading coefficients are fixed
    exactly by the moments of f (i phi(0+) via I0 and -phi'(0+) via the
    small-t half-line density), while order three only matches f's own tail
    and is assigned symmetrically, wrapping at the negligible 1/lambda^3
    periodization level.
    """
    lam_max = float(max(abs(grid[0]), abs(grid[-1])))
    step = float(grid[1] - grid[0])
    c = edge_tail_fit(grid, flat)
    c1, c2, c3 = c[0], c[1], c[2]
    w = MODEL_W

    # trapezoid over the half-open window, closed with the model value at +L,
    # plus the analytic tail of the even model part beyond the window
    f_right = c1 / lam_max + c2 / lam_max ** 2 + c3 / lam_max ** 3
    window = step * (flat.sum(axis=0) - 0.5 * flat[0] + 0.5 * f_right)
    i0 = (window + 2.0 * c2 / lam_max) / (2.0 * np.pi)

    # short probe window: the moment values carry ~1e-8 noise while the
    # cubic-truncation bias grows like (rate * t)^4, so small t wins for any
    # density varying on O(1) scales
    t_probe = (2.0 / lam_max) * np.arange(1, 8)
    phi = _halfline_density(grid, flat, c, t_probe, lam_max, step, f_right)
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

    return np.stack([a1, a2, a3]), np.stack([g1, g2, g3])


def _remainder_spectrum(grid: np.ndarray, flat: np.ndarray):
    """Spectrum of the columns minus their split model, the model's plus samples, and its coefficients."""
    coef = _split_model(grid, flat)
    mplus = pole_basis(grid, -1j * MODEL_W) @ coef[0]
    model = mplus + pole_basis(grid, 1j * MODEL_W) @ coef[1]
    return np.fft.fft(flat - model, axis=0), mplus, coef


def split_samples(grid: np.ndarray, values: np.ndarray):
    """Additive split of samples (axis 0 is lambda): returns (plus, minus).

    The minus mask is one minus the plus mask and the model's parts sum to
    the model, so the minus part is the samples minus the plus part.
    """
    n = len(grid)
    spec, mplus, _ = _remainder_spectrum(grid, values.reshape(n, -1))
    plus = (np.fft.ifft(spec * plus_mask(n)[:, None], axis=0) + mplus).reshape(values.shape)
    return plus, values - plus


def _model_density(coef: np.ndarray, s: np.ndarray, sign: float) -> np.ndarray:
    """Density of sum_p coef_p / (lambda - sign i w)^p at s >= 0, shape (len(s), columns):
    sign -1 is a plus part (int c e^{+i lambda s} ds), sign +1 a minus part."""
    decay = np.exp(-MODEL_W * s)[:, None]
    s = s[:, None]
    return decay * (sign * 1j * coef[0] - s * coef[1] - sign * 0.5j * s ** 2 * coef[2])


def split_densities(grid: np.ndarray, values: np.ndarray, count: int):
    """Half-line densities of the split parts of each column: returns (plus, minus).

    The plus part is int c_+(s) e^{+i lambda s} ds, the minus part
    int c_-(s) e^{-i lambda s} ds; both densities are sampled at
    s_k = 2 pi k / (N d lambda), k < count, shape (count, columns).  There
    s_k lambda_j = s_k lambda_0 + 2 pi k j / N, so a masked remainder's phase
    sum is its spectrum at bin k mod N (plus) or -k mod N (minus) times
    e^{-+i s_k lambda_0}; the model adds its closed-form densities.
    """
    n = len(grid)
    step = float(grid[1] - grid[0])
    spec, _, (a, g) = _remainder_spectrum(grid, values.reshape(n, -1))
    k = np.arange(count)
    s = (2.0 * np.pi / (n * step)) * k
    mask = plus_mask(n)
    phase = (step / (2.0 * np.pi)) * np.exp(1j * s * grid[0])[:, None]
    plus = np.conj(phase) * mask[k % n, None] * spec[k % n]
    minus = phase * (1.0 - mask[-k % n, None]) * spec[-k % n]
    return plus + _model_density(a, s, -1.0), minus + _model_density(g, s, 1.0)


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
