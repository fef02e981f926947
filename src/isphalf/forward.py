"""Direct scattering on the half-axis.

Pipeline: successive approximation for the bounded solution, the coupled
Volterra systems for the transformation-operator kernels on the slanted
triangle t >= x >= 0, half-line transforms of the kernel traces, and the
assembly of scattering and transmission matrices with their strip
diagnostics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import truncation_length
from .domain import (
    BLOCK_ALLOWED,
    KERNEL_ALLOWED,
    KERNEL_BLOCKS,
    BoundaryMatrix,
    Channel,
    Dispersion,
    SINGULARITY_TOL,
    TriangularPotential,
    channel_table,
    kernel_decay_exponent,
)
from .errors import NonConvergence, SingularFactor, SingularP, ValidationError
from .linefunc import Analyticity, LineMatrixFunction
from .profiles import ExpSumProfile, SampledProfile, ScalarProfile, ZERO_PROFILE
from .quadrature import cumulative_right_linear, filon_simpson_transform

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_STEP = 0.01
DEFAULT_ITER_TOL = 1e-12
MAX_SWEEPS = 50
# kernel march blocks: tau levels, and points per gather (~16 MB of temporaries)
_LEVELS_PER_BLOCK = 64
_LEVEL_BLOCK_POINTS = 1 << 20


def _full_profile(pot: TriangularPotential, row: int, col: int) -> ScalarProfile:
    """Entry (row, col) of the full 2n x 2n potential, 0-based."""
    n = pot.n
    if row < n and col < n:
        return pot.q11[row][col]
    if row < n:
        return pot.q12[row][col - n]
    if col < n:
        return pot.q21[row - n][col]
    return pot.q22[row - n][col - n]


# ---------------------------------------------------------------------------
# bounded solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedSolution:
    """Bounded solution at one real lambda, with its asymptotic amplitudes."""

    lam: float
    x_grid: np.ndarray = field(repr=False)
    y1: np.ndarray = field(repr=False)
    y2: np.ndarray = field(repr=False)
    A: np.ndarray
    B: np.ndarray
    sweeps: int
    tail_residual: float

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([self.y1, self.y2], axis=1)


def solve_bounded_solution(
    pot: TriangularPotential,
    disp: Dispersion,
    lam: float,
    A,
    B,
    *,
    step: float = DEFAULT_STEP,
    x_max: float | None = None,
) -> BoundedSolution:
    """Unique bounded solution with prescribed amplitudes at infinity.

    Works in slow variables w_k = e^{-i lam xi_k x} y_k so the oscillation
    sits inside the exact-per-segment quadrature; the iteration contracts
    factorially because the integration domains are nested.
    """
    n = disp.n
    A = np.asarray(A, dtype=complex).reshape(n)
    B = np.asarray(B, dtype=complex).reshape(n)
    if x_max is None:
        x_max = truncation_length(pot.envelope, DEFAULT_TAIL_TOL)
    nx = int(math.ceil(x_max / step)) + 1
    x = step * np.arange(nx)
    xi = disp.xi_arr
    free = np.concatenate([A, B])

    qvals = np.zeros((2 * n, 2 * n, nx), dtype=complex)
    profs: list[list[ScalarProfile]] = [[ZERO_PROFILE] * (2 * n) for _ in range(2 * n)]
    for r in range(2 * n):
        for c in range(2 * n):
            p = _full_profile(pot, r, c)
            profs[r][c] = p
            if not p.is_zero:
                qvals[r, c] = p(x)

    w = np.tile(free[:, None], (1, nx))
    last_change = np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        w_new = np.tile(free[:, None], (1, nx))
        for k in range(2 * n):
            for m in range(2 * n):
                if profs[k][m].is_zero:
                    continue
                omega = lam * (xi[m] - xi[k])
                g = qvals[k, m] * w[m]
                acc = cumulative_right_linear(0.0, step, g, omega)
                acc = acc + w[m, -1] * profs[k][m].halfline_transform_from(x[-1], omega)
                w_new[k] += 1j * acc
        last_change = float(np.abs(w_new - w).max())
        w = w_new
        if last_change < DEFAULT_ITER_TOL:
            break
    else:
        raise NonConvergence("bounded solution", MAX_SWEEPS, last_change)

    phase = np.exp(1j * lam * xi[:, None] * x[None, :])
    y = phase * w
    tail_res = float(np.abs(w[:, -1] - free).max())
    return BoundedSolution(
        lam=float(lam),
        x_grid=x,
        y1=y[:n].T.copy(),
        y2=y[n:].T.copy(),
        A=A,
        B=B,
        sweeps=sweep,
        tail_residual=tail_res,
    )


def asymptotic_coefficients(sol: BoundedSolution, pot: TriangularPotential, disp: Dispersion):
    """Amplitudes recovered from the solution by the x = 0 quadratures."""
    n = disp.n
    xi = disp.xi_arr
    lam = sol.lam
    x = sol.x_grid
    step = float(x[1] - x[0])
    y = sol.y.T  # (2n, nx)
    w = np.exp(-1j * lam * xi[:, None] * x[None, :]) * y
    out = np.zeros(2 * n, dtype=complex)
    for k in range(2 * n):
        acc = 0.0 + 0.0j
        for m in range(2 * n):
            p = _full_profile(pot, k, m)
            if p.is_zero:
                continue
            omega = lam * (xi[m] - xi[k])
            g = p(x) * w[m]
            acc += cumulative_right_linear(0.0, step, g, omega)[0]
            acc += w[m, -1] * p.halfline_transform_from(x[-1], omega)
        out[k] = w[k, 0] - 1j * acc
    return out[:n], out[n:]


# ---------------------------------------------------------------------------
# transformation-operator kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformationKernels:
    """The four matrix kernels on the slanted triangle, sampled uniformly.

    Storage is (n, n, Nx, Ntau) per block with tau = t - x, so the kernel
    diagonal t = x is the tau = 0 face and the half-line trace x = 0 is the
    first x slice.
    """

    disp: Dispersion
    step: float
    blocks: dict = field(repr=False)
    theta: float
    c_tilde: float
    envelope_eps: float
    sweeps: int
    sweep_changes: tuple[float, ...] = ()  # sup-norm change of each Jacobi sweep

    @property
    def n(self) -> int:
        return self.disp.n

    @property
    def x_grid(self) -> np.ndarray:
        return self.step * np.arange(self.blocks["A11"].shape[2])

    @property
    def tau_grid(self) -> np.ndarray:
        return self.step * np.arange(self.blocks["A11"].shape[3])

    def trace_at_zero(self, name: str) -> np.ndarray:
        """Kernel block on the x = 0 edge, shape (n, n, Ntau)."""
        return self.blocks[name][:, :, 0, :]

    def diagonal(self, name: str) -> np.ndarray:
        """Kernel block on the t = x face, shape (n, n, Nx)."""
        return self.blocks[name][:, :, :, 0]


def _kernel_peak_bytes(n: int, chans, driven: int, nx: int, nt: int) -> int:
    """Upper bound on the memory solve_kernels allocates on an (nx, nt) grid.

    Counts, in channel arrays of nx * nt complex values: the four kernel
    blocks (n * n channels each), the stored drives, the next iterate of
    every admissible channel, and two work arrays (the coupling being
    integrated, and a product summed into it or the diagonal integral).
    Then the temporaries of one level-block gather, at most 160 bytes per
    point on at most _LEVEL_BLOCK_POINTS + 2 * feet points (a block of span
    levels spans span + 1 rows of at most feet points), the accumulator on
    the feet and the per-x potential samples.
    """
    feet = max(nx + int(math.ceil(c.rho * (nt - 1))) + 1 for c in chans if c.rho is not None)
    channel = 16 * nx * nt
    gather = 160 * (_LEVEL_BLOCK_POINTS + 2 * feet)
    return channel * (4 * n * n + len(chans) + driven + 2) + gather + 16 * (feet + 4 * n * n * nx)


def _coupling_terms(chan: Channel, pot: TriangularPotential):
    """(q block, kernel block, m slice) of each product q_{km} A_{mj} in the
    coupling of a channel: the full 2n x 2n product Q A restricted to the
    channel's block, over the m from the first to the last where q_{km} is
    nonzero and A_{mj} admissible.  The products left out are exact zeros,
    so the sum is bit-identical to one over every m.
    """
    n = pot.n
    rb, cb = KERNEL_BLOCKS[chan.block]
    terms = []
    for mb in (0, 1):
        qname, aname = f"q{rb + 1}{mb + 1}", f"A{mb + 1}{cb + 1}"
        ms = [
            m
            for m in range(n)
            if not pot.block(qname)[chan.k][m].is_zero and KERNEL_ALLOWED[aname](m, chan.j, n)
        ]
        if ms:
            terms.append((qname, aname, slice(ms[0], ms[-1] + 1)))
    return terms


def _lerp_rows(rows: np.ndarray, pos: np.ndarray, first: int = 0) -> np.ndarray:
    """Linear interpolation of row r = [left, v_first, v_first+1, ..., 0, 0]
    at pos[r] (grid units): `left` below `first`, zero past the last sample;
    below first - 1 the upper tap reads v_first, exact when left == v_first."""
    width = rows.shape[1]
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    lo = np.clip(i0 + 1 - first, 0, width - 2) + width * np.arange(len(rows))[:, None]
    return (1.0 - frac) * rows.ravel()[lo] + frac * rows.ravel()[lo + 1]


def _drive(prof: ScalarProfile, rho: float, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """D(x, tau) = i rho q(x + rho tau) of an off-diagonal channel driven by q."""
    if isinstance(prof, ExpSumProfile):
        d = np.zeros((len(x), len(tau)), dtype=complex)
        for gamma, a in prof.terms:
            d += gamma * np.outer(np.exp(-a * x), np.exp(-a * rho * tau))
    else:
        d = prof(x[:, None] + rho * tau[None, :])
    return 1j * rho * d


def _next_iterate(chan: Channel, terms, qgrid: dict, kern: dict, drive, step: float) -> np.ndarray:
    """One Jacobi update of a channel: its drive (None: zero) plus i times
    the integral of its coupling, formed from the iterate kern, along the
    channel's characteristics."""
    nx, nt = kern["A11"].shape[2:]
    g = np.zeros((nx, nt), dtype=complex)
    for qname, aname, ms in terms:
        g += np.einsum("mx,mxt->xt", qgrid[qname][chan.k, ms], kern[aname][ms, chan.j])
    out = np.zeros((nx, nt), dtype=complex) if drive is None else drive.copy()
    rho = chan.rho
    if rho is None:
        # integral along x to the truncation boundary, every tau level, in one
        # work array; the x_max row keeps its zero drive
        w = np.add(g[:-1], g[1:])
        w *= 0.5 * step
        np.cumsum(w[::-1], axis=0, out=w[::-1])
        w *= 1j
        out[:-1] += w
        return out
    # the feet over the nodes move right with tau (rho > 0); per block, feet
    # left of f0 are never read again and feet from f1 on have met only zero
    # coupling, so their w is still exactly +0
    nodes = np.arange(nx, dtype=float)
    n_feet = nx + int(math.ceil(rho * (nt - 1))) + 1
    w = np.zeros(n_feet, dtype=complex)
    span = max(1, min(_LEVELS_PER_BLOCK, _LEVEL_BLOCK_POINTS // n_feet))
    for a in range(1, nt, span):
        b = min(a + span, nt)
        shift = rho * np.arange(a - 1, b)
        f0, f1 = int(shift[1]), min(n_feet, int(shift[-1]) + nx + 2)
        # coupling on levels a-1 .. b-1 at the feet, clamped left of x = 0
        rows = np.zeros((b - a + 1, nx + 3), dtype=complex)
        rows[:, 0] = g[0, a - 1 : b]
        rows[:, 1 : nx + 1] = g[:, a - 1 : b].T
        g_feet = _lerp_rows(rows, np.arange(f0, f1, dtype=float) - shift[:, None])
        acc = np.zeros((b - a + 1, f1 - f0 + 3), dtype=complex)
        acc[0, 1:-2] = w[f0:f1]
        acc[1:, 1:-2] = 0.5 * rho * step * (g_feet[1:] + g_feet[:-1])
        acc = np.cumsum(acc, axis=0)
        w[f0:f1] = acc[-1, 1:-2]
        out[:, a:b] += 1j * _lerp_rows(acc[1:], nodes + shift[1:, None], f0).T
    return out


def solve_kernels(
    pot: TriangularPotential,
    disp: Dispersion,
    *,
    step: float = DEFAULT_STEP,
    x_max: float | None = None,
    tau_max: float | None = None,
) -> TransformationKernels:
    """Solve the coupled Volterra systems along characteristics.

    The unknowns are the admissible channels of domain.channel_table, one
    2-D (x, tau) array each.  Jacobi sweeps: each sweep forms, channel by
    channel, the coupling from the previous iterate (the products
    q_{km} A_{mj} whose factors are structurally nonzero) and integrates
    it along the channel's characteristic onto its drive i rho q_{kj}
    (stored only where q_{kj} is nonzero).  An off-diagonal entry is
    accumulated on the characteristic lattice, indexed by the foot
    position at tau = 0, so interpolation error never feeds back into the
    accumulation.  The march runs over blocks of tau levels
    (_LEVELS_PER_BLOCK, fewer where a gather would exceed
    _LEVEL_BLOCK_POINTS points) and, per block, over the band of feet whose
    characteristics cross the nodes: the coupling field is gathered at the
    feet with 2-tap linear weights, the composite trapezoid increments are
    summed by a cumsum along tau whose first row is the accumulation
    carried from the previous block, and the result is gathered back onto
    the nodes.  Every element sees the same floating-point operations in
    the same order as a march one level at a time over full kernel blocks,
    so the kernels are bit-identical to that march and do not depend on the
    block size.  The diagonal entries integrate along x up to the
    truncation boundary, where the envelope bounds the dropped tail.  The
    result holds the four (n, n, Nx, Ntau) blocks, zero off the admissible
    entries.

    x_max defaults to the length where the envelope falls below
    DEFAULT_TAIL_TOL, tau_max to x_max / theta.  The sweeps stop once the
    sup-norm change falls below DEFAULT_ITER_TOL; a solve that has not got
    there after MAX_SWEEPS sweeps raises NonConvergence.  Successive
    approximation contracts factorially on the nested domains, so these
    constants belong to the method and are read at call time.

    A grid whose peak memory bound (from the channel and drive counts)
    exceeds physical memory is refused with ValidationError before anything
    is allocated.
    """
    n = disp.n
    eps = pot.envelope[1]
    theta = kernel_decay_exponent(disp)
    if x_max is None:
        x_max = truncation_length(pot.envelope, DEFAULT_TAIL_TOL)
    if tau_max is None:
        tau_max = x_max / theta
    nx = int(math.ceil(x_max / step)) + 1
    nt = int(math.ceil(tau_max / step)) + 1
    chans = channel_table(disp)
    driven = [c for c in chans if c.rho is not None and not pot.block(c.q_block)[c.k][c.j].is_zero]
    need = _kernel_peak_bytes(n, chans, len(driven), nx, nt)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValidationError(
            "kernel grid",
            f"{nx} x {nt} points at n = {n} need about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory",
        )
    x = step * np.arange(nx)
    tau = step * np.arange(nt)

    qgrid = {name: pot.evaluate_block(name, x) for name in BLOCK_ALLOWED}
    terms = {c: _coupling_terms(c, pot) for c in chans}
    drive = {c: _drive(pot.block(c.q_block)[c.k][c.j], c.rho, x, tau) for c in driven}
    kern = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in KERNEL_BLOCKS}
    for c, d in drive.items():
        kern[c.block][c.k, c.j] = d

    change, changes = np.inf, []
    for sweep in range(1, MAX_SWEEPS + 1):
        new = {c: _next_iterate(c, terms[c], qgrid, kern, drive.get(c), step) for c in chans}
        change = max(float(np.abs(new[c] - kern[c.block][c.k, c.j]).max()) for c in chans)
        for c in chans:
            kern[c.block][c.k, c.j] = new.pop(c)
        changes.append(change)
        if change < DEFAULT_ITER_TOL:
            break
    else:
        raise NonConvergence("kernel system", MAX_SWEEPS, change)

    envelope = np.exp(eps * (x[:, None] + theta * tau[None, :]))
    c_tilde = max(float((np.abs(kern[c.block][c.k, c.j]) * envelope).max()) for c in chans)
    return TransformationKernels(
        disp=disp,
        step=step,
        blocks=kern,
        theta=theta,
        c_tilde=c_tilde,
        envelope_eps=eps,
        sweeps=sweep,
        sweep_changes=tuple(changes),
    )


def potential_from_kernels(kernels: TransformationKernels, disp: Dispersion) -> TriangularPotential:
    """Potential read off the kernel diagonal t = x, channel by channel:
    q_{kj}(x) = -i ((xi_c - xi_r) / xi_c) A_{kj}(x, x) on the off-diagonal
    channels."""
    n = disp.n
    x = kernels.x_grid
    eps = kernels.envelope_eps
    blocks = {name: [[ZERO_PROFILE] * n for _ in range(n)] for name in BLOCK_ALLOWED}
    c_env = 0.0
    for c in channel_table(disp):
        if c.rho is None:
            continue
        ratio = (c.col_speed - c.row_speed) / c.col_speed
        vals = -1j * ratio * kernels.diagonal(c.block)[c.k, c.j]
        if np.abs(vals).max() == 0.0:
            continue
        blocks[c.q_block][c.k][c.j] = SampledProfile(kernels.step, vals, tail_rate=eps)
        c_env = max(c_env, float((np.abs(vals) * np.exp(eps * x)).max()))
    # chords of a convex decay overshoot the node values between nodes
    slack = math.cosh(0.5 * eps * kernels.step)
    envelope = (max(c_env * slack * (1.0 + 1e-9), 1e-300), eps)
    return TriangularPotential(n, envelope=envelope, **blocks)


# ---------------------------------------------------------------------------
# half-line transforms and matrix assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTransforms:
    """Half-line transforms of the x = 0 kernel traces."""

    a11_minus: LineMatrixFunction
    a21_minus: LineMatrixFunction
    a12_plus: LineMatrixFunction
    a22_plus: LineMatrixFunction

    def __iter__(self):
        return iter((self.a11_minus, self.a21_minus, self.a12_plus, self.a22_plus))


def kernel_transforms(
    kernels: TransformationKernels, disp: Dispersion, grid: np.ndarray
) -> BlockTransforms:
    """Transforms of A(0, t) against e^{i lambda xi t}, per column speed.

    The result is the exact transform of the piecewise-quadratic interpolant,
    so each output is genuinely one-sided: minus-type for the first-column
    blocks (negative speeds), plus-type for the second-column blocks.
    """
    n = disp.n
    xi = disp.xi_arr
    theta = kernels.theta
    eps = kernels.envelope_eps
    h = kernels.step
    out = {}
    for name, (rb, cb) in KERNEL_BLOCKS.items():
        trace = kernels.trace_at_zero(name)  # (n, n, nt)
        vals = np.zeros((len(grid), n, n), dtype=complex)
        for j in range(n):
            speed = xi[cb * n + j]
            col = trace[:, j, :]  # (n, nt)
            if np.abs(col).max() > 0.0:
                tr = filon_simpson_transform(col, 0.0, h, speed * grid)
                vals[:, :, j] = tr.T
        kind = "minus" if cb == 0 else "plus"
        delta = theta * eps / abs(xi[0]) if cb == 0 else theta * eps / xi[2 * n - 1]
        out[name] = LineMatrixFunction(grid, vals, Analyticity(kind, delta))
    return BlockTransforms(out["A11"], out["A21"], out["A12"], out["A22"])


def boundary_parts(blocks: BlockTransforms, bnd: BoundaryMatrix):
    """Combine block transforms with a boundary matrix into (plus, minus) parts."""
    h = bnd.H
    hinv = bnd.inv
    plus = blocks.a22_plus - blocks.a12_plus.left_mul(h)
    minus = blocks.a11_minus.left_mul(h).right_mul(hinv) - blocks.a21_minus.right_mul(hinv)
    return plus.with_tag(blocks.a22_plus.analyticity), minus.with_tag(blocks.a11_minus.analyticity)


def scattering_matrix(
    plus_part: LineMatrixFunction,
    minus_part: LineMatrixFunction,
) -> LineMatrixFunction:
    """S(lambda) = [I + plus]^{-1} [I + minus], pointwise on the grid."""
    plus_part._check_same_grid(minus_part)
    lhs = plus_part.plus_identity()
    dets = np.abs(np.linalg.det(lhs))
    if dets.min() <= SINGULARITY_TOL:
        idx = int(np.argmin(dets))
        raise SingularFactor(float(plus_part.grid[idx]), float(dets[idx]))
    s = np.linalg.solve(lhs, minus_part.plus_identity())
    dp = plus_part.analyticity.delta if plus_part.analyticity.kind != "none" else 0.0
    dm = minus_part.analyticity.delta if minus_part.analyticity.kind != "none" else 0.0
    delta = min(d for d in (dp, dm) if d > 0) if (dp > 0 or dm > 0) else 0.0
    return LineMatrixFunction(plus_part.grid, s, Analyticity("strip", delta))


def transmission_matrix(blocks: BlockTransforms):
    """Boundary-value map P and its inverse on the grid.

    P sends the amplitudes (A, B) to the boundary values (y1(0), y2(0)); its
    inverse coincides with the whole-axis scattering matrix of the potential
    extended by zero.
    """
    a11m, a21m, a12p, a22p = blocks
    ngrid = len(a11m.grid)
    n = a11m.m
    p = np.zeros((ngrid, 2 * n, 2 * n), dtype=complex)
    eye = np.eye(n)
    p[:, :n, :n] = a11m.values + eye
    p[:, :n, n:] = a12p.values
    p[:, n:, :n] = a21m.values
    p[:, n:, n:] = a22p.values + eye
    dets = np.abs(np.linalg.det(p))
    if dets.min() <= SINGULARITY_TOL:
        idx = int(np.argmin(dets))
        raise SingularP(float(a11m.grid[idx]), float(dets[idx]))
    pi = np.linalg.inv(p)
    pf = LineMatrixFunction(a11m.grid, p)
    pif = LineMatrixFunction(a11m.grid, pi)
    return pf, pif


def strip_diagnostics(
    plus_part: LineMatrixFunction,
    minus_part: LineMatrixFunction,
    *,
    delta: float | None = None,
) -> dict:
    """Determinant health of I + parts on the axis and on shifted lines.

    delta defaults to half the smaller declared strip width.  Off-axis values
    come from frequency-domain continuation of the grid samples; the grown
    direction is noise-floor limited, which is the honest best available from
    samples alone.
    """
    from .projection import continue_off_axis

    report: dict = {}
    det_p = np.linalg.det(plus_part.plus_identity())
    det_m = np.linalg.det(minus_part.plus_identity())
    report["min_abs_det_plus"] = float(np.abs(det_p).min())
    report["min_abs_det_minus"] = float(np.abs(det_m).min())
    report["edge_residual_plus"] = float(max(abs(det_p[0] - 1.0), abs(det_p[-1] - 1.0)))
    report["edge_residual_minus"] = float(max(abs(det_m[0] - 1.0), abs(det_m[-1] - 1.0)))

    dp = plus_part.analyticity.delta
    dm = minus_part.analyticity.delta
    if delta is None:
        widths = [d for d in (dp, dm) if np.isfinite(d) and d > 0]
        delta = 0.5 * min(widths) if widths else 0.0
    report["delta"] = float(delta)
    if delta > 0:
        shifted = {}
        for sign in (+1.0, -1.0):
            vp = continue_off_axis(plus_part, sign * delta)
            vm = continue_off_axis(minus_part, sign * delta)
            eye = np.eye(plus_part.m)
            shifted[f"min_abs_det_plus_at_{sign * delta:+g}"] = float(
                np.abs(np.linalg.det(vp + eye)).min()
            )
            shifted[f"min_abs_det_minus_at_{sign * delta:+g}"] = float(
                np.abs(np.linalg.det(vm + eye)).min()
            )
        report.update(shifted)
    return report


def reconstruct_from_kernels(
    kernels: TransformationKernels,
    disp: Dispersion,
    lam: float,
    A,
    B,
    x_index: int,
):
    """Solution values at one x-grid node rebuilt from the kernel representation."""
    n = disp.n
    xi = disp.xi_arr
    h = kernels.step
    x = float(kernels.x_grid[x_index])
    A = np.asarray(A, dtype=complex).reshape(n)
    B = np.asarray(B, dtype=complex).reshape(n)
    y = np.zeros(2 * n, dtype=complex)
    y[:n] = np.exp(1j * lam * xi[:n] * x) * A
    y[n:] = np.exp(1j * lam * xi[n:] * x) * B
    for name, (rb, cb) in KERNEL_BLOCKS.items():
        block = kernels.blocks[name][:, :, x_index, :]  # (n, n, nt)
        amps = A if cb == 0 else B
        for j in range(n):
            if np.abs(block[:, j, :]).max() == 0.0:
                continue
            speed = xi[cb * n + j]
            tr = filon_simpson_transform(block[:, j, :], 0.0, h, np.array([lam * speed]))[:, 0]
            y[rb * n : rb * n + n] += np.exp(1j * lam * speed * x) * tr * amps[j]
    return y[:n], y[n:]
