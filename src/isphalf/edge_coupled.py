"""The explicitly solvable class: middle rows driven by the two edge components.

The first and last components are free exponentials, every middle row k
couples only to them through c_{k,first} and c_{k,last}, so the scattering
entries are single quadratures, the inverse problem reduces to scalar
additive splits plus per-point linear systems, and non-uniqueness of the
one-boundary problem is visible as plain rank deficiency.

Row data is held as arrays indexed r - 2 for rows r = 2..2n-1, and a
boundary acts on such an array as one linear combination of its rows
(`_boundary_rows`), whatever the rows hold: transforms, densities or the
unknowns of the per-point system.

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
from .errors import EdgeDecayViolation, RankDeficient, ValidationError
from .linefunc import Analyticity, LineMatrixFunction
from .profiles import as_profile
from .projection import split_densities, split_samples
# the benchmark's tracer (perfbench/trace_child.py) wraps edge_coupled.plemelj_split
from .rh import plemelj_split  # noqa: F401

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

    def as_potential(self) -> TriangularPotential:
        """Embedding: first-column entries below the diagonal blocks, last column above."""
        n = self.n
        q11 = [[None] * n for _ in range(n)]
        q12 = [[None] * n for _ in range(n)]
        q21 = [[None] * n for _ in range(n)]
        q22 = [[None] * n for _ in range(n)]
        for r, (first, last) in enumerate(zip(self.c_first, self.c_last), start=2):
            if r <= n:
                q11[r - 1][0] = first
                q12[r - 1][n - 1] = last
            else:
                q21[r - n - 1][0] = first
                q22[r - n - 1][n - 1] = last
        return TriangularPotential(n, q11=q11, q12=q12, q21=q21, q22=q22, envelope=self.envelope)


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


def _decay_rate(disp: Dispersion, eps: float) -> float:
    """eps / (xi_2n - xi_1): couplings that decay like e^{-eps x} reach the
    scattering data at s = beta x with beta <= xi_2n - xi_1, so the split
    data decay at least at this rate in s, and the column is analytic in the
    strip of this half-width."""
    xi = disp.xi_arr
    return eps / (xi[-1] - xi[0])


def s_period_wrap(sys: EdgeCoupledSystem, grid: np.ndarray) -> float:
    """exp(-delta 2 pi / dlambda), delta = _decay_rate: what the split data
    read on the s-lattice keep of their next period.  An N-point FFT of the
    lambda grid makes the densities periodic in s with period 2 pi / dlambda,
    and they decay at least like e^{-delta s}, so a grid too coarse for the
    system's speed spread shows here; it is reported, not refused."""
    return float(np.exp(-_decay_rate(sys.disp, sys.envelope[1]) * 2.0 * np.pi / (grid[1] - grid[0])))


def _boundary_rows(h_block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row n+k minus sum_j h_{kj} row j for k = 1..n-1 (result index k - 1).

    rows holds rows r = 2..2n-1 at index r - 2 along axis 0; this is the one
    combination through which a boundary enters every formula of the class.
    """
    n = len(h_block) + 1
    return rows[n - 1 :] - h_block @ rows[: n - 1]


def _column_entries(sys: EdgeCoupledSystem, bnd: EdgeBoundary, lam: np.ndarray) -> np.ndarray:
    """S_{k,n}(lambda) for k = 1..n-1, shape (n-1, len(lam))."""
    beta_first, beta_last = _edge_rates(sys.disp)
    rows = np.array(
        [
            pf.halfline_transform(-lam * bf) + pl.halfline_transform(lam * bl)
            for pf, pl, bf, bl in zip(sys.c_first, sys.c_last, beta_first, beta_last)
        ]
    )
    return 1j * _boundary_rows(bnd.h_block, rows)


def edge_scattering(sys: EdgeCoupledSystem, bnd: EdgeBoundary, grid: np.ndarray) -> LineMatrixFunction:
    """Scattering matrix of the class: identity plus a single nonzero column.

    Column n holds one closed-form quadrature per row; the minus-type piece
    collects the first-component couplings, the plus-type piece the
    last-component ones.
    """
    n = sys.n
    vals = np.tile(np.eye(n, dtype=complex), (len(grid), 1, 1))
    vals[:, : n - 1, n - 1] += _column_entries(sys, bnd, np.asarray(grid, dtype=float)).T
    return LineMatrixFunction(grid, vals, Analyticity("strip", _decay_rate(sys.disp, sys.envelope[1])))


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
    for r, (pf, pl) in enumerate(zip(sys.c_first, sys.c_last), start=2):
        phase = np.exp(1j * lam * xi[r - 1] * x)
        if not pf.is_zero:
            tr = pf.halfline_transform_from(x, lam * (xi[0] - xi[r - 1]))
            z[r - 1] -= 1j * a[0] * tr * phase
        if not pl.is_zero:
            tr = pl.halfline_transform_from(x, lam * (xi[-1] - xi[r - 1]))
            z[r - 1] -= 1j * b[n - 1] * tr * phase
    return z


def _decaying_column(s_matrix: LineMatrixFunction, edge_tol: float) -> np.ndarray:
    """Rows 1..n-1 of the nonzero column, shape (N, n-1), once each entry is
    checked to decay at the grid ends (in row order, as `plemelj_split`
    checks a scalar entry)."""
    n = s_matrix.m
    column = s_matrix.values[:, : n - 1, n - 1]
    for edge in np.maximum(np.abs(column[0]), np.abs(column[-1])):
        if edge > edge_tol:
            raise EdgeDecayViolation(float(edge), edge_tol)
    return column


def edge_split(s_matrix: LineMatrixFunction, *, edge_tol: float = 1e-2):
    """Additive split of the nonzero column, rows 1..n-1, as one split of all n-1 entries.

    The entries must decay at the grid ends (`_decaying_column`).  Returns a
    list of (plus, minus) scalar LineMatrixFunctions; by the entire-function
    argument the parts coincide with the forward transforms of the
    underlying half-line data.
    """
    n = s_matrix.m
    grid = s_matrix.grid
    plus, minus = split_samples(grid, _decaying_column(s_matrix, edge_tol))
    delta = s_matrix.analyticity.finite_delta
    return [
        (
            LineMatrixFunction(grid, plus[:, k], Analyticity("plus", delta)),
            LineMatrixFunction(grid, minus[:, k], Analyticity("minus", delta)),
        )
        for k in range(n - 1)
    ]


def edge_invert_transforms(
    s_matrix: LineMatrixFunction, *, s_max: float, edge_tol: float = 1e-2
) -> EdgeProfiles:
    """Half-line densities c_{k+-}(s) of the column entries' split parts,
    read off the split's own spectrum and tail model (`split_densities`).

    The entries must decay at the grid ends, as for `edge_split`.  The s-grid
    runs from 0 to s_max in steps of 2 pi / (N d lambda), the step conjugate
    to the lambda grid (pi / lambda_max on a `make_grid` grid).  The densities
    read there repeat with the period 2 pi / d lambda of N steps, so an
    s-grid of more than N points is refused with ValidationError; the count
    is judged in floats before anything is allocated.
    """
    grid = s_matrix.grid
    s_step = 2.0 * math.pi / (len(grid) * float(grid[1] - grid[0]))
    points = s_max / s_step + 0.5
    if not points <= len(grid):
        raise ValidationError(
            "s_max",
            f"{s_max:.3g} needs {points:.3g} s-grid points, beyond the {len(grid)} of one period "
            f"2 pi / d lambda = {len(grid) * s_step:.3g} of the lambda grid",
        )
    count = math.ceil(points)
    plus, minus = split_densities(grid, _decaying_column(s_matrix, edge_tol), count)
    return EdgeProfiles(s_step * np.arange(count), minus.T, plus.T)


def exact_edge_profiles(
    sys: EdgeCoupledSystem, bnd: EdgeBoundary, s_grid: np.ndarray
) -> EdgeProfiles:
    """Closed-form c_{k+-}(s) for oracle comparisons."""
    s = np.asarray(s_grid, dtype=float)
    beta_first, beta_last = _edge_rates(sys.disp)

    def part(profiles, rates):
        density = np.array([p(s / beta) / beta for p, beta in zip(profiles, rates)])
        return 1j * _boundary_rows(bnd.h_block, density)

    return EdgeProfiles(s, part(sys.c_first, beta_first), part(sys.c_last, beta_last))


def _family_matrix(disp: Dispersion, boundaries, which: str) -> np.ndarray:
    """Stacked per-point system matrix; identical at every s by construction.

    Column r - 2 multiplies c_{r,first}(s / beta_first) for which='minus'
    and c_{r,last}(s / beta_last) for which='plus', rows r = 2..2n-1; each
    boundary contributes the n-1 equations of its rows k = 1..n-1.
    """
    beta_first, beta_last = _edge_rates(disp)
    to_density = np.diag(1.0 / (beta_first if which == "minus" else beta_last))
    return np.vstack([_boundary_rows(bnd.h_block, to_density) for bnd in boundaries])


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
    s_max = float(xi[-1] - xi[0]) * compare_to  # a Python float overflows to inf without a warning
    datasets = []
    for boundary in (bnd, bnd_tilde):
        prof = edge_invert_transforms(edge_scattering(sys, boundary, grid), s_max=s_max, edge_tol=split_edge_tol)
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
