"""The explicitly solvable class: middle rows driven by the two edge components.

The first and last components are free exponentials, every middle row k
couples only to them through c_{k,first} and c_{k,last}, so the scattering
entries are single quadratures, the inverse problem reduces to scalar
additive splits plus per-point linear systems, and non-uniqueness of the
one-boundary problem is visible as plain rank deficiency.

Sign convention: this module implements the closed-form solution with the
coupling integrals entering as -i (and the matching scattering quadratures);
the generic solver's convention differs by negating the coupling profiles,
which the consistency tests account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Dispersion, SINGULARITY_TOL, TriangularPotential
from .errors import RankDeficient, ValidationError
from .linefunc import Analyticity, LineMatrixFunction
from .profiles import ScalarProfile, as_profile
from .projection import MODEL_W, edge_indices, pole_basis
from .rh import plemelj_split

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class EdgeCoupledSystem:
    """Middle-row coupling profiles c_{k,first}, c_{k,last}, k = 2..2n-1."""

    disp: Dispersion
    c_first: tuple = ()
    c_last: tuple = ()
    envelope: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        n = self.disp.n
        if n < 2:
            raise ValidationError("EdgeCoupledSystem", "needs n >= 2 (no middle rows otherwise)")
        for name in ("c_first", "c_last"):
            raw = list(getattr(self, name) or ())
            if len(raw) > 2 * n - 2:
                raise ValidationError(name, f"at most {2 * n - 2} middle rows for n = {n}")
            raw += [None] * (2 * n - 2 - len(raw))
            object.__setattr__(self, name, tuple(as_profile(p) for p in raw))
        c, eps = self.envelope
        if not (c > 0 and eps > 0):
            raise ValidationError("EdgeCoupledSystem.envelope", "C and eps must be positive")

    @property
    def n(self) -> int:
        return self.disp.n

    def profile_first(self, k: int) -> ScalarProfile:
        """Coupling of row k (1-based, 2 <= k <= 2n-1) to the first component."""
        return self.c_first[k - 2]

    def profile_last(self, k: int) -> ScalarProfile:
        return self.c_last[k - 2]

    def as_potential(self) -> TriangularPotential:
        """Embedding: first-column entries below the diagonal blocks, last column above."""
        n = self.n
        q11 = [[None] * n for _ in range(n)]
        q12 = [[None] * n for _ in range(n)]
        q21 = [[None] * n for _ in range(n)]
        q22 = [[None] * n for _ in range(n)]
        for k in range(2, 2 * n):
            first, last = self.profile_first(k), self.profile_last(k)
            if k <= n:
                q11[k - 1][0] = first
                q12[k - 1][n - 1] = last
            else:
                q21[k - n - 1][0] = first
                q22[k - n - 1][n - 1] = last
        return TriangularPotential(n, q11=q11, q12=q12, q21=q21, q22=q22, envelope=self.envelope)

    def negated(self) -> "EdgeCoupledSystem":
        return EdgeCoupledSystem(
            self.disp,
            tuple(p.scaled(-1.0) for p in self.c_first),
            tuple(p.scaled(-1.0) for p in self.c_last),
            self.envelope,
        )


@dataclass(frozen=True)
class EdgeBoundary:
    """Boundary matrix of the class: row n is (1, 0, ..., 0), rows k < n are
    (0, h_{k2}, ..., h_{kn}) with the block [h_{kj}] invertible."""

    n: int
    h_block: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h_block, dtype=complex))
        if h.shape != (self.n - 1, self.n - 1):
            raise ValidationError("EdgeBoundary.h_block", f"need shape {(self.n - 1, self.n - 1)}")
        object.__setattr__(self, "h_block", h)
        if abs(np.linalg.det(h)) <= SINGULARITY_TOL:
            raise ValidationError("EdgeBoundary.h_block", "block determinant below tolerance")

    def entry(self, k: int, j: int) -> complex:
        """h_{kj}, 1-based with k = 1..n-1, j = 2..n."""
        return complex(self.h_block[k - 1, j - 2])

    def as_matrix(self) -> np.ndarray:
        h = np.zeros((self.n, self.n), dtype=complex)
        h[: self.n - 1, 1:] = self.h_block
        h[self.n - 1, 0] = 1.0
        return h


@dataclass(frozen=True)
class EdgeProfiles:
    """The split data c_{k-}(s), c_{k+}(s) on a uniform s-grid, k = 1..n-1."""

    s_grid: np.ndarray = field(repr=False)
    c_minus: np.ndarray = field(repr=False)
    c_plus: np.ndarray = field(repr=False)
    decay_rate: float
    amplitude: float  # fitted M with |c| <= M e^{-rate s}

    def __post_init__(self):
        if self.c_minus.shape != self.c_plus.shape or self.c_minus.shape[1] != len(self.s_grid):
            raise ValidationError("EdgeProfiles", "shape mismatch between parts and s grid")


def _edge_rates(disp: Dispersion) -> tuple[np.ndarray, np.ndarray]:
    """Per-row rates (beta_first, beta_last) at index r - 2, rows r = 2..2n-1.

    beta_first = xi_r - xi_1 and beta_last = xi_2n - xi_r: the coupling
    c_{r,first}(x) reaches the scattering data at s = beta_first x, and
    c_{r,last}(x) at s = beta_last x.
    """
    xi = disp.xi_arr
    return xi[1:-1] - xi[0], xi[-1] - xi[1:-1]


def fit_profile_amplitude(s_grid: np.ndarray, rows: np.ndarray, rate: float) -> float:
    mags = np.abs(rows) * np.exp(rate * s_grid)[None, :]
    return float(mags.max()) if rows.size else 0.0


def _column_entries(sys: EdgeCoupledSystem, bnd: EdgeBoundary, lam: np.ndarray) -> np.ndarray:
    """S_{k,n}(lambda) for k = 1..n-1, shape (n-1, len(lam))."""
    n = sys.n
    beta_first, beta_last = _edge_rates(sys.disp)
    out = np.zeros((n - 1, len(lam)), dtype=complex)
    for k in range(1, n):
        acc = np.zeros(len(lam), dtype=complex)
        pf = sys.profile_first(n + k)
        if not pf.is_zero:
            acc += pf.halfline_transform(-lam * beta_first[n + k - 2])
        pl = sys.profile_last(n + k)
        if not pl.is_zero:
            acc += pl.halfline_transform(lam * beta_last[n + k - 2])
        for j in range(2, n + 1):
            h = bnd.entry(k, j)
            if h == 0:
                continue
            pf = sys.profile_first(j)
            if not pf.is_zero:
                acc -= h * pf.halfline_transform(-lam * beta_first[j - 2])
            pl = sys.profile_last(j)
            if not pl.is_zero:
                acc -= h * pl.halfline_transform(lam * beta_last[j - 2])
        out[k - 1] = 1j * acc
    return out


def edge_scattering(sys: EdgeCoupledSystem, bnd: EdgeBoundary, grid: np.ndarray) -> LineMatrixFunction:
    """Scattering matrix of the class: identity plus a single nonzero column.

    Column n holds one closed-form quadrature per row; the minus-type piece
    collects the first-component couplings, the plus-type piece the
    last-component ones.
    """
    n = sys.n
    xi = sys.disp.xi_arr
    vals = np.tile(np.eye(n, dtype=complex), (len(grid), 1, 1))
    col = _column_entries(sys, bnd, np.asarray(grid, dtype=float))
    for k in range(1, n):
        vals[:, k - 1, n - 1] += col[k - 1]
    _, eps = sys.envelope
    delta = eps / (xi[2 * n - 1] - xi[0])
    return LineMatrixFunction(grid, vals, Analyticity("strip", delta))


def edge_explicit_solution(
    sys: EdgeCoupledSystem, lam: float, a, b, x_grid: np.ndarray
) -> np.ndarray:
    """Closed-form solution samples, shape (2n, len(x_grid)).

    a carries the first-block amplitudes, b the second block; the two edge
    components are free exponentials and each middle row picks up incomplete
    transforms of its two coupling profiles.
    """
    n = sys.n
    xi = sys.disp.xi_arr
    a = np.asarray(a, dtype=complex).reshape(n)
    b = np.asarray(b, dtype=complex).reshape(n)
    x = np.asarray(x_grid, dtype=float)
    amps = np.concatenate([a, b])
    z = amps[:, None] * np.exp(1j * lam * xi[:, None] * x[None, :])
    for k in range(2, 2 * n):
        pf = sys.profile_first(k)
        phase = np.exp(1j * lam * xi[k - 1] * x)
        if not pf.is_zero:
            tr = pf.halfline_transform_from(x, lam * (xi[0] - xi[k - 1]))
            z[k - 1] -= 1j * a[0] * tr * phase
        pl = sys.profile_last(k)
        if not pl.is_zero:
            tr = pl.halfline_transform_from(x, lam * (xi[2 * n - 1] - xi[k - 1]))
            z[k - 1] -= 1j * b[n - 1] * tr * phase
    return z


def edge_split(s_matrix: LineMatrixFunction, *, edge_tol: float = 1e-2):
    """Entrywise additive split of the nonzero column, rows 1..n-1.

    Returns a list of (plus, minus) scalar LineMatrixFunctions; by the
    entire-function argument the parts coincide with the forward transforms
    of the underlying half-line data.
    """
    n = s_matrix.m
    out = []
    for k in range(1, n):
        entry = s_matrix.entry(k - 1, n - 1)
        out.append(plemelj_split(entry, edge_tol=edge_tol))
    return out


def _one_sided_inverse(grid: np.ndarray, values: np.ndarray, s_points: np.ndarray, kind: str):
    """Invert a one-sided transform back to its half-line density.

    kind 'minus': C(l) = int c(s) e^{-i l s} ds, density (1/2pi) int C e^{+i l s} dl.
    kind 'plus':  C(l) = int c(s) e^{+i l s} ds, density (1/2pi) int C e^{-i l s} dl.
    A one-sided rational tail model, fitted at the split's edge samples,
    makes the window truncation analytic.
    """
    step = float(grid[1] - grid[0])
    idx = edge_indices(len(grid))
    sgn = 1.0 if kind == "minus" else -1.0
    w = MODEL_W
    basis = pole_basis(grid, sgn * 1j * w)  # minus-type poles sit in the upper half-plane
    scale = np.abs(basis[idx]).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis[idx] / scale, values[idx], rcond=None)
    coef = coef / scale
    rem = values - basis @ coef

    phases = np.exp(sgn * 1j * np.outer(s_points, grid))
    dens = (step / (2.0 * np.pi)) * (phases @ rem)
    es = np.exp(-w * s_points)
    if kind == "minus":
        dens += coef[0] * 1j * es + coef[1] * (-s_points * es) + coef[2] * (-0.5j * s_points ** 2 * es)
    else:
        dens += coef[0] * (-1j) * es + coef[1] * (-s_points * es) + coef[2] * (0.5j * s_points ** 2 * es)
    return dens


def edge_invert_transforms(
    splits,
    disp: Dispersion,
    *,
    s_max: float,
    envelope_eps: float = 1.0,
) -> EdgeProfiles:
    """Half-line densities c_{k+-}(s) from the split scattering entries.

    The s-grid runs from 0 to s_max in steps of pi / lambda_max, the step
    conjugate to the lambda grid (2 pi / (N d lambda)).
    """
    n = disp.n
    xi = disp.xi_arr
    grid0 = splits[0][0].grid
    ds = math.pi / float(max(abs(grid0[0]), abs(grid0[-1])))
    s = np.arange(0.0, s_max + 0.5 * ds, ds)
    c_minus = np.zeros((n - 1, len(s)), dtype=complex)
    c_plus = np.zeros((n - 1, len(s)), dtype=complex)
    for k, (part_plus, part_minus) in enumerate(splits):
        grid = part_plus.grid
        c_minus[k] = _one_sided_inverse(grid, part_minus.values[:, 0, 0], s, "minus")
        c_plus[k] = _one_sided_inverse(grid, part_plus.values[:, 0, 0], s, "plus")
    rate = envelope_eps / (xi[2 * n - 1] - xi[0])
    amp = max(
        fit_profile_amplitude(s, c_minus, rate),
        fit_profile_amplitude(s, c_plus, rate),
    )
    return EdgeProfiles(s, c_minus, c_plus, rate, amp)


def exact_edge_profiles(
    sys: EdgeCoupledSystem, bnd: EdgeBoundary, s_grid: np.ndarray
) -> EdgeProfiles:
    """Closed-form c_{k+-}(s) for oracle comparisons."""
    n = sys.n
    xi = sys.disp.xi_arr
    s = np.asarray(s_grid, dtype=float)
    c_minus = np.zeros((n - 1, len(s)), dtype=complex)
    c_plus = np.zeros((n - 1, len(s)), dtype=complex)
    beta_first, beta_last = _edge_rates(sys.disp)
    for out, profiles, rates in ((c_minus, sys.c_first, beta_first), (c_plus, sys.c_last, beta_last)):
        density = [p(s / beta) / beta for p, beta in zip(profiles, rates)]
        for k in range(1, n):
            acc = density[n + k - 2]
            for j in range(2, n + 1):
                acc = acc - bnd.entry(k, j) * density[j - 2]
            out[k - 1] = 1j * acc
    _, eps = sys.envelope
    rate = eps / (xi[2 * n - 1] - xi[0])
    amp = max(fit_profile_amplitude(s, c_minus, rate), fit_profile_amplitude(s, c_plus, rate))
    return EdgeProfiles(s, c_minus, c_plus, rate, amp)


def _family_matrix(disp: Dispersion, boundaries, which: str) -> np.ndarray:
    """Stacked per-point system matrix; identical at every s by construction.

    Column r - 2 multiplies c_{r,first}(s / beta_first) for which='minus'
    and c_{r,last}(s / beta_last) for which='plus', rows r = 2..2n-1; each
    boundary contributes the n-1 equations of its rows k = 1..n-1.
    """
    n = disp.n
    beta_first, beta_last = _edge_rates(disp)
    rates = beta_first if which == "minus" else beta_last
    return np.vstack(
        [np.hstack([-bnd.h_block / rates[: n - 1], np.diag(1.0 / rates[n - 1 :])]) for bnd in boundaries]
    )


@dataclass(frozen=True)
class RecoveredCoefficients:
    """Recovered couplings on the s-grid of the inverted data.

    Row r - 2 of `first` holds c_{r,first}(s / (xi_r - xi_1)) and row r - 2
    of `last` holds c_{r,last}(s / (xi_2n - xi_r)), rows r = 2..2n-1.
    """

    s_grid: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    last: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict)


def edge_solve_coefficients(datasets, disp: Dispersion) -> RecoveredCoefficients:
    """Solve the stacked per-point systems for the coupling coefficients.

    datasets: sequence of (EdgeProfiles, EdgeBoundary) sharing one s-grid.
    Rank deficiency is a first-class outcome: one dataset, or boundary blocks
    with a singular difference, leave the 2(n-1) unknowns underdetermined at
    every s, and that is reported rather than silently least-squared away.
    The rank counts singular values above DEFAULT_RANK_TOL times
    max(1, the largest).
    """
    if not datasets:
        raise ValidationError("edge_solve_coefficients", "need at least one dataset")
    n = disp.n
    profiles = [d[0] for d in datasets]
    boundaries = [d[1] for d in datasets]
    s = profiles[0].s_grid
    for p in profiles[1:]:
        if len(p.s_grid) != len(s) or not np.allclose(p.s_grid, s):
            raise ValidationError("edge_solve_coefficients", "datasets live on different s grids")

    solutions = []
    diagnostics = {"s_points": len(s)}
    for which in ("minus", "plus"):
        mat = _family_matrix(disp, boundaries, which)
        rhs = np.concatenate(
            [(-1j) * (p.c_minus if which == "minus" else p.c_plus) for p in profiles], axis=0
        )
        svals = np.linalg.svd(mat, compute_uv=False)
        smax = svals[0] if len(svals) else 0.0
        rank = int(np.sum(svals > DEFAULT_RANK_TOL * max(smax, 1.0)))
        unknowns = 2 * (n - 1)
        diagnostics[f"{which}_singular_values"] = svals.tolist()
        diagnostics[f"{which}_rank"] = rank
        diagnostics[f"{which}_min_singular_value"] = float(svals.min()) if len(svals) else 0.0
        if rank < unknowns:
            deficiency = unknowns - rank
            diagnostics[f"{which}_deficiency"] = deficiency
            diagnostics["per_s_deficient_fraction"] = 1.0
            raise RankDeficient(deficiency, 1.0, diagnostics)
        solutions.append(np.linalg.pinv(mat) @ rhs)
    return RecoveredCoefficients(s, *solutions, diagnostics)


def edge_roundtrip(
    sys: EdgeCoupledSystem,
    bnd: EdgeBoundary,
    bnd_tilde: EdgeBoundary,
    grid: np.ndarray,
    *,
    compare_to: float = 10.0,
    split_edge_tol: float = 1e-2,
) -> dict:
    """Forward both boundaries, split, invert, solve, and score the recovery.

    Each coupling c_{r,family} is scored at the recovered s-grid points with
    s / beta <= compare_to against the profile at s / beta (beta the row's
    rate); per_family holds the sup error relative to the sup of the truth
    there.  Also returns the solver diagnostics.
    """
    xi = sys.disp.xi_arr
    datasets = []
    for boundary in (bnd, bnd_tilde):
        s_mat = edge_scattering(sys, boundary, grid)
        splits = edge_split(s_mat, edge_tol=split_edge_tol)
        prof = edge_invert_transforms(
            splits, sys.disp, s_max=(xi[-1] - xi[0]) * compare_to, envelope_eps=sys.envelope[1]
        )
        datasets.append((prof, boundary))
    rec = edge_solve_coefficients(datasets, sys.disp)

    errors = {}
    beta_first, beta_last = _edge_rates(sys.disp)
    for family, recovered, profiles, rates in (
        ("first", rec.first, sys.c_first, beta_first),
        ("last", rec.last, sys.c_last, beta_last),
    ):
        for r, (got, profile, beta) in enumerate(zip(recovered, profiles, rates), start=2):
            x = rec.s_grid / beta
            keep = x <= compare_to
            truth = profile(x[keep])
            scale = float(np.abs(truth).max())
            err = float(np.abs(got[keep] - truth).max())
            errors[f"c_{r}_{family}"] = err / scale if scale > 0 else err
    return {
        "max_rel_error": max(errors.values()),
        "per_family": errors,
        "diagnostics": rec.diagnostics,
        "compare_to": compare_to,
    }
