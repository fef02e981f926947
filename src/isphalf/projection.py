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
(`split_densities`).  The model's grid-only pieces (the fits'
pseudo-inverses, the probe phase and the model's poles on the grid) are
built once per grid and cached (`_grid_model`), so a split costs a few thin
products and its two FFTs.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

EDGE_FRACTION = 0.1
MODEL_W = 2.0
NOISE_FLOOR = 1e-13
# the edge fit needs 2 x 6 samples, none of them at lambda = 0
MIN_SPLIT_POINTS = 12
# probe densities at t = 2p / lam_max, p = 0 .. PROBES - 1
PROBES = 8
# grid models kept (least recently used dropped); each holds 3 N complex values
GRID_MODELS = 4


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
    basis column scaled to unit sup (the grid model's `edge_pinv`)."""
    model = _grid_model(grid)
    return model.edge_pinv @ values[model.edge]


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


def _pinv(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse R^-1 Q^T of a tall real matrix of full column rank.

    Q R comes from classical Gram-Schmidt run twice per column, enough for
    the three or four unit-sup columns of the tail fits, and np.linalg.solve
    finishes it: no LAPACK least-squares, SVD or QR routine is loaded.
    """
    q = np.array(a, dtype=float)
    r = np.zeros((q.shape[1], q.shape[1]))
    for j in range(q.shape[1]):
        for _ in range(2):
            h = q[:, :j].T @ q[:, j]
            q[:, j] -= q[:, :j] @ h
            r[:j, j] += h
        r[j, j] = np.linalg.norm(q[:, j])
        q[:, j] /= r[j, j]
    return np.linalg.solve(r, q.T)


class _GridModel(NamedTuple):
    """The grid-only pieces of the split's tail model (`_split_model`)."""

    window: float  # d lambda / 2 pi, the probe window sums' weight
    edge: np.ndarray  # the edge samples' indices
    edge_pinv: np.ndarray  # 3 x 2k: edge samples -> Laurent tail c1, c2, c3
    probe_phase: np.ndarray  # N: e^{-i t_1 lambda}, whose powers weight the probe window sums
    probe_tails: np.ndarray  # PROBES x 3: their closure and tails, per c1, c2, c3
    probe_pinv: np.ndarray  # 4 x (PROBES - 1): densities at t > 0 -> cubic in t
    plus_pole: np.ndarray  # N: 1 / (lambda + i MODEL_W), whose powers are the plus basis
    minus_pole: np.ndarray  # N: 1 / (lambda - i MODEL_W)


def _grid_model(grid: np.ndarray) -> _GridModel:
    """The split's grid-only model of exactly this grid (keyed on its bytes)."""
    return _model_of_grid(np.ascontiguousarray(grid, dtype=float).tobytes())


@lru_cache(maxsize=GRID_MODELS)
def _model_of_grid(key: bytes) -> _GridModel:
    """Build the grid-only model; ValidationError where the tail fit is undefined.

    The probe densities phi(t) = (1/2pi) integral f e^{-i lambda t} d lambda
    at t_p = 2p / lam_max, p = 0 .. PROBES - 1, read the plus part's leading
    Laurent coefficients: for t > 0 only the plus part contributes, so
    phi(0+), phi'(0+) and phi''(0+) give them exactly.  The window
    [-lam_max, lam_max) of spacing step is summed by the trapezoid rule,
    whose phantom +lam_max node comes from the fitted Laurent tail (the raw
    rectangle sum leaves an O(step f(L)) oscillatory error that wrecks the
    slope estimate), and closed with that tail's analytic integral beyond
    the window; t_0 = 0 takes its t -> 0+ limit.  Each density is thus a
    window sum weighted by a power of probe_phase plus probe_tails @ c for
    the tail coefficients c.  Only N-vectors are kept, not the PROBES x N
    weights or the N x 3 bases, so a cached model of a long grid does not
    raise a run's peak memory.
    """
    grid = np.frombuffer(key)
    n = len(grid)
    if n < MIN_SPLIT_POINTS:
        raise ValidationError(
            "lambda grid", f"{n} points, fewer than the {MIN_SPLIT_POINTS} the split's tail fit needs"
        )
    edge = edge_indices(n)
    if not np.all(grid[edge]):
        raise ValidationError("lambda grid", "an edge sample of the split's tail fit sits at lambda = 0")
    basis = pole_basis(grid[edge], 0.0)
    scale = np.abs(basis).max(axis=0)
    edge_pinv = _pinv(basis / scale) / scale[:, None]

    lam_max = float(max(abs(grid[0]), abs(grid[-1])))
    step = float(grid[1] - grid[0])
    t = (2.0 / lam_max) * np.arange(PROBES)
    lt = lam_max * t
    rest = 0.5 * np.pi - sine_integral(lt)
    tails = np.stack(
        [
            -2j * rest,
            2.0 * (np.cos(lt) / lam_max - t * rest),
            -2j * (np.sin(lt) / (2.0 * lam_max ** 2) + 0.5 * t * (np.cos(lt) / lam_max - t * rest)),
        ],
        axis=1,
    )
    closure = 0.5 * step * np.outer(np.exp(-1j * lt), lam_max ** -np.arange(1.0, 4.0))
    vand = np.vander(t[1:], 4, increasing=True)  # [1, t, t^2, t^3]
    scale_t = np.abs(vand).max(axis=0)
    arrays = (
        edge,
        edge_pinv,
        np.exp(-1j * t[1] * grid),
        (tails + closure) / (2.0 * np.pi),
        _pinv(vand / scale_t) / scale_t[:, None],
        1.0 / (grid + 1j * MODEL_W),
        1.0 / (grid - 1j * MODEL_W),
    )
    for part in arrays:
        part.flags.writeable = False
    return _GridModel(step / (2.0 * np.pi), *arrays)


def _probe_sums(model: _GridModel, flat: np.ndarray) -> np.ndarray:
    """Trapezoid window sums (1/2pi) sum f e^{-i lambda t_p} d lambda of the
    columns, t_p = p t_1, p = 0 .. PROBES - 1 (the phantom +lam_max node is
    in probe_tails), shape (PROBES, columns)."""
    weights = np.empty((PROBES, len(model.probe_phase)), dtype=complex)
    weights[0] = model.window
    weights[0, 0] *= 0.5
    for p in range(1, PROBES):
        np.multiply(weights[p - 1], model.probe_phase, out=weights[p])
    return weights @ flat


def _pole_sum(pole: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_p coef_p pole^p, p = 1, 2, 3, by Horner: the model part with the
    pole basis pole_basis(grid, .) @ coef."""
    return ((coef[2] * pole[:, None] + coef[1]) * pole[:, None] + coef[0]) * pole[:, None]


def _coefficients(model: _GridModel, flat: np.ndarray):
    """Plus and minus pole coefficients of the columns' split model (`_split_model`)."""
    c = model.edge_pinv @ flat[model.edge]
    c1, c2, c3 = c[0], c[1], c[2]
    w = MODEL_W

    # short probe window: the moment values carry ~1e-8 noise while the
    # cubic-truncation bias grows like (rate * t)^4, so small t wins for any
    # density varying on O(1) scales
    phi = _probe_sums(model, flat) + model.probe_tails @ c
    fit = model.probe_pinv @ phi[1:]
    slope, curv = fit[1], 2.0 * fit[2]

    l1p = 1j * phi[0]  # = i phi(0+)
    l2p = -slope  # = -phi'(0+)
    l3p = -1j * curv  # = -i phi''(0+)
    a1 = l1p
    g1 = c1 - a1
    a2 = l2p + 1j * w * a1
    g2 = (c2 - l2p) - 1j * w * g1
    a3 = l3p + 2j * w * a2 + w * w * a1
    g3 = (c3 - l3p) - 2j * w * g2 + w * w * g1

    return np.stack([a1, a2, a3]), np.stack([g1, g2, g3])


def _split_model(grid: np.ndarray, flat: np.ndarray):
    """Rational model of each column with the correct plus/minus tail split.

    Returns the coefficients (plus, minus), each of shape (3, columns), of
    the plus part sum_p a_p / (lambda + i w)^p and the minus part
    sum_p g_p / (lambda - i w)^p, w = MODEL_W.  The split parts of f carry 1/lambda
    tails that f itself need not show; their leading coefficients are fixed
    exactly by the moments of f (i phi(0+) and -phi'(0+) from the
    half-line density at small t), while order three only matches f's own
    tail and is assigned symmetrically, wrapping at the negligible
    1/lambda^3 periodization level.  Every grid-only piece comes from the
    cached `_grid_model`, so a call costs a few thin products.
    """
    return _coefficients(_grid_model(grid), flat)


def _remainder_spectrum(grid: np.ndarray, flat: np.ndarray):
    """Spectrum of the columns minus their split model, the model's plus samples, and its coefficients."""
    model = _grid_model(grid)
    coef = _coefficients(model, flat)
    mplus = _pole_sum(model.plus_pole, coef[0])
    return np.fft.fft(flat - (mplus + _pole_sum(model.minus_pole, coef[1])), axis=0), mplus, coef


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
