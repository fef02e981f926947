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
# tau levels per block of the kernel sweeps, each marched in one gather
_LEVELS_PER_BLOCK = 64


def truncation_length(envelope: tuple[float, float], tail_tol: float) -> float:
    """x beyond which the envelope C e^{-eps x} is below tail_tol."""
    c, eps = envelope
    return max(1.0, math.log(max(c, tail_tol * math.e) / tail_tol) / eps)


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
    first x slice.  The blocks are the arrays solve_kernels swept in place,
    zero off the admissible entries.
    """

    disp: Dispersion
    step: float
    blocks: dict = field(repr=False)
    theta: float
    c_tilde: float
    envelope_eps: float
    sweeps: int
    sweep_changes: tuple[float, ...] = ()  # sup-norm change of each sweep

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


def _kernel_peak_bytes(n: int, chans, drive_terms: int, nx: float, nt: float) -> float:
    """Upper bound on the memory solve_kernels allocates on an (nx, nt)
    grid, in floats, so a grid of any size gets a finite or infinite bound.

    Counts the four kernel blocks (4 n^2 arrays of nx * nt complex values)
    and, on one block of span = min(_LEVELS_PER_BLOCK, nt) levels, the next
    iterate of one channel plus eight work arrays (the coupling, a product
    summed into it, the drive slice and its factors, the diagonal integral,
    the change and its modulus, the envelope), all of nx complex values per
    level.  Then the temporaries of the gather of one block, at most 160
    bytes per point on span + 1 levels of the band of feet that cross the
    nodes, the carries (the accumulator on the feet and one coupling level
    per off-diagonal channel), the per-x potential samples, the factor
    vectors of the drive_terms exponential terms, and 1 MiB for the grids,
    the level table and small objects.
    """
    span = min(_LEVELS_PER_BLOCK, nt)
    storage = 4 * n * n * nx * nt + 9 * nx * span
    carries = 4 * n * n * nx + drive_terms * (nx + nt)
    gather = 0.0
    for rho in (float(c.rho) for c in chans if c.rho is not None):
        carries += 2 * nx + rho * (nt - 1) + 2
        gather = max(gather, (span + 1) * (nx + rho * span + 7))
    return 16 * (storage + carries) + 160 * gather + (1 << 20)


def _available_memory() -> int:
    """Bytes the system can still give a process: MemAvailable of
    /proc/meminfo, or physical memory where that file is absent."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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


def _drive(prof: ScalarProfile, rho: float, x: np.ndarray, tau: np.ndarray):
    """The drive D(x, tau) = i rho q(x + rho tau) of an off-diagonal channel
    driven by q, as a function of a level range [lo, hi) that returns
    D(x, tau[lo:hi]).  An exponential sum keeps the factor vectors
    e^{-a x} and e^{-a rho tau} of each term, formed once on the whole
    grid."""
    if isinstance(prof, ExpSumProfile):
        factors = [(gamma, np.exp(-a * x), np.exp(-a * rho * tau)) for gamma, a in prof.terms]

        def levels(lo: int, hi: int) -> np.ndarray:
            d = np.zeros((len(x), hi - lo), dtype=complex)
            for gamma, fx, ft in factors:
                d += gamma * np.outer(fx, ft[lo:hi])
            return 1j * rho * d

    else:

        def levels(lo: int, hi: int) -> np.ndarray:
            return 1j * rho * prof(x[:, None] + rho * tau[None, lo:hi])

    return levels


def _march(rho: float, prev: np.ndarray, g: np.ndarray, w: np.ndarray, out: np.ndarray, first: int, step: float):
    """Add i times the integral of the coupling along the characteristics of
    slope rho to out, on the levels first .. first + L - 1 of g (nx, L),
    with prev the coupling at level first - 1.  w is the accumulation per
    foot (indexed by its position at tau = 0), carried from block to block.

    All L levels are marched in one gather.  The feet over the nodes move
    right with tau (rho > 0): feet left of f0 are never read again and
    feet from f1 on have met only zero coupling, so their w is still
    exactly +0.
    """
    nx, levels = g.shape
    if not levels:
        return
    shift = rho * np.arange(first - 1, first + levels)
    f0, f1 = int(shift[1]), min(len(w), int(shift[-1]) + nx + 2)
    # coupling on levels first-1 .. first+L-1 at the feet, clamped left of x = 0
    rows = np.zeros((levels + 1, nx + 3), dtype=complex)
    rows[0, 0], rows[0, 1 : nx + 1] = prev[0], prev
    rows[1:, 0], rows[1:, 1 : nx + 1] = g[0], g.T
    g_feet = _lerp_rows(rows, np.arange(f0, f1, dtype=float) - shift[:, None])
    acc = np.zeros((levels + 1, f1 - f0 + 3), dtype=complex)
    acc[0, 1:-2] = w[f0:f1]
    acc[1:, 1:-2] = 0.5 * rho * step * (g_feet[1:] + g_feet[:-1])
    acc = np.cumsum(acc, axis=0)
    w[f0:f1] = acc[-1, 1:-2]
    out += 1j * _lerp_rows(acc[1:], np.arange(nx, dtype=float) + shift[1:, None], f0).T


def _sweep(chans, terms: dict, qgrid: dict, kern: dict, drives: dict, step: float, blocks) -> float:
    """One Gauss-Seidel sweep over the kernel blocks kern, in place, one
    block of tau levels [a, b) at a time in ascending order and, within a
    block, channel by channel in chans order; returns the sup-norm change.

    A channel's next iterate on [a, b) is formed in one buffer from the
    levels [a, b) in kern, where the channels before it already hold their
    new values, and from two carries taken when it swept the block below:
    the accumulation on the feet and the coupling at level a - 1.  Its
    change is taken against its values still in storage, and the buffer
    replaces them at once, so the channels after it read the new values.
    A coupling at level l reads only level l, so the sweep is the same as
    one that visits the channels level by level, whatever the block size.
    """
    nx, nt = kern["A11"].shape[2:]
    # the tau = 0 positions whose characteristics cross the nodes
    feet = {c: np.zeros(nx + math.ceil(c.rho * (nt - 1)) + 1, dtype=complex) for c in chans if c.rho is not None}
    last = {}
    buf = np.empty((nx, blocks[0][1]), dtype=complex)
    change = np.float64(0.0)
    for a, b in blocks:
        out = buf[:, : b - a]
        for c in chans:
            g = np.zeros((nx, b - a), dtype=complex)
            for qname, aname, ms in terms[c]:
                g += np.einsum("mx,mxt->xt", qgrid[qname][c.k, ms], kern[aname][ms, c.j, :, a:b])
            out[...] = drives[c](a, b) if c in drives else 0.0
            if c.rho is None:
                # integral along x to the truncation boundary, every level,
                # in one work array; the x_max row keeps its zero drive
                w = np.add(g[:-1], g[1:])
                w *= 0.5 * step
                np.cumsum(w[::-1], axis=0, out=w[::-1])
                w *= 1j
                out[:-1] += w
            else:
                if a == 0:  # level 0 keeps its drive
                    _march(c.rho, g[:, 0], g[:, 1:], feet[c], out[:, 1:], 1, step)
                else:
                    _march(c.rho, last[c], g, feet[c], out, a, step)
                last[c] = g[:, -1].copy()
            old = kern[c.block][c.k, c.j, :, a:b]
            change = np.maximum(change, np.abs(out - old).max())
            old[...] = out
    return float(change)


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
    2-D (x, tau) array each.  Gauss-Seidel sweeps: each sweep forms,
    channel by channel in table order, the coupling from the newest
    iterate (the products q_{km} A_{mj} whose factors are structurally
    nonzero) and integrates it along the channel's characteristic onto its
    drive i rho q_{kj}.  An off-diagonal entry is accumulated on the
    characteristic lattice, indexed by the foot position at tau = 0, so
    interpolation error never feeds back into the accumulation.  The
    diagonal entries integrate along x up to the truncation boundary, where
    the envelope bounds the dropped tail.  Gauss-Seidel reaches the fixed
    point of the Jacobi iteration in fewer sweeps (Linz, Analytical and
    Numerical Methods for Volterra Equations, SIAM 1985).

    The operator is of Volterra type in tau: a level depends only on the
    levels at or below it.  So each sweep runs in place over blocks of
    _LEVELS_PER_BLOCK tau levels in ascending order, see _sweep, and an
    off-diagonal channel marches each block in one gather: the coupling is
    gathered at the band of feet whose characteristics cross the nodes with
    2-tap linear weights, the composite trapezoid increments are summed by
    a cumsum along tau whose first row is the accumulation carried from the
    block below, and the result is gathered back onto the nodes.  Each
    block forms its own drive slice, so no drive is stored.  Every element
    sees the same floating-point operations in the same order as a march
    that visits the channels one level at a time, so the kernels are
    bit-identical to that march and do not depend on the block size.  The
    result holds the four (n, n, Nx, Ntau) blocks, zero off the admissible
    entries; they and one block of one channel's next iterate are the bulk
    of the memory the solve needs.

    x_max defaults to the length where the envelope falls below
    DEFAULT_TAIL_TOL, tau_max to x_max / theta.  The sweeps stop once the
    sup-norm change falls below DEFAULT_ITER_TOL; a solve that has not got
    there after MAX_SWEEPS sweeps raises NonConvergence.  Successive
    approximation contracts factorially on the nested domains, so these
    constants belong to the method and are read at call time.

    The point counts and the peak memory bound (_kernel_peak_bytes) are
    computed in floats first, so a grid of any size is judged before
    anything is allocated: an axis with fewer than 3 points, or a bound
    above the available memory (_available_memory), is refused with
    ValidationError.
    """
    n = disp.n
    eps = pot.envelope[1]
    theta = kernel_decay_exponent(disp)
    if x_max is None:
        x_max = truncation_length(pot.envelope, DEFAULT_TAIL_TOL)
    if tau_max is None:
        tau_max = x_max / theta
    for axis, length in (("x", x_max), ("tau", tau_max)):
        if not length / step > 1:
            raise ValidationError("step", f"{step:.3g} leaves fewer than 3 points on the {axis} axis [0, {length:.3g}]")
    nx, nt = float(np.ceil(x_max / step)) + 1, float(np.ceil(tau_max / step)) + 1
    chans = channel_table(disp)
    profile = {c: pot.block(c.q_block)[c.k][c.j] for c in chans if c.rho is not None}
    driven = [c for c, p in profile.items() if not p.is_zero]
    drive_terms = sum(len(profile[c].terms) for c in driven if isinstance(profile[c], ExpSumProfile))
    need = _kernel_peak_bytes(n, chans, drive_terms, nx, nt)
    have = _available_memory()
    if not need <= have:
        raise ValidationError(
            "kernel grid",
            f"{nx:.6g} x {nt:.6g} points at n = {n} need about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of available memory",
        )
    nx, nt = int(nx), int(nt)
    x = step * np.arange(nx)
    tau = step * np.arange(nt)
    blocks = [(a, min(a + _LEVELS_PER_BLOCK, nt)) for a in range(0, nt, _LEVELS_PER_BLOCK)]

    qgrid = {name: pot.evaluate_block(name, x) for name in BLOCK_ALLOWED}
    terms = {c: _coupling_terms(c, pot) for c in chans}
    drives = {c: _drive(profile[c], c.rho, x, tau) for c in driven}
    kern = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in KERNEL_BLOCKS}
    for c, drive in drives.items():
        for a, b in blocks:
            kern[c.block][c.k, c.j, :, a:b] = drive(a, b)

    change, changes = np.inf, []
    for sweep in range(1, MAX_SWEEPS + 1):
        change = _sweep(chans, terms, qgrid, kern, drives, step, blocks)
        changes.append(change)
        if change < DEFAULT_ITER_TOL:
            break
    else:
        raise NonConvergence("kernel system", MAX_SWEEPS, change)

    c_tilde = 0.0
    for a, b in blocks:
        envelope = np.exp(eps * (x[:, None] + theta * tau[None, a:b]))
        for c in chans:
            c_tilde = max(c_tilde, float((np.abs(kern[c.block][c.k, c.j, :, a:b]) * envelope).max()))
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
        if not vals.any():
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

    The two blocks of a column block share its speeds, so column j of both
    is stacked into one transform; an all-zero column is left out and stays
    exact zero.  The result is the exact transform of the piecewise-quadratic
    interpolant, so each output is genuinely one-sided: minus-type for the
    first-column blocks (negative speeds), plus-type for the second-column
    blocks.
    """
    n = disp.n
    xi = disp.xi_arr
    theta = kernels.theta
    eps = kernels.envelope_eps
    h = kernels.step
    vals = {name: np.zeros((len(grid), n, n), dtype=complex) for name in KERNEL_BLOCKS}
    for cb in (0, 1):
        names = [name for name, (_, c) in KERNEL_BLOCKS.items() if c == cb]
        for j in range(n):
            cols = {name: kernels.trace_at_zero(name)[:, j, :] for name in names}  # (n, nt) each
            live = [name for name, col in cols.items() if col.any()]
            if not live:
                continue
            stacked = np.concatenate([cols[name] for name in live])
            tr = filon_simpson_transform(stacked, 0.0, h, xi[cb * n + j] * grid)
            for name, part in zip(live, np.split(tr, len(live))):
                vals[name][:, :, j] = part.T
    out = {}
    for name, (_, cb) in KERNEL_BLOCKS.items():
        kind = "minus" if cb == 0 else "plus"
        delta = theta * eps / abs(xi[0]) if cb == 0 else theta * eps / xi[2 * n - 1]
        out[name] = LineMatrixFunction(grid, vals[name], Analyticity(kind, delta))
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

