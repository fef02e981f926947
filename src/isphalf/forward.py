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
    TriangularPotential,
    channel_table,
    kernel_decay_exponent,
    singular_grid_point,
)
from .errors import NonConvergence, SingularFactor, SingularP, ValidationError
from .linefunc import Analyticity, BlockTransforms, LineMatrixFunction
from .profiles import SampledProfile, ScalarProfile, ZERO_PROFILE
from .quadrature import cumulative_right_linear, filon_simpson_transform

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_STEP = 0.01
DEFAULT_ITER_TOL = 1e-12
MAX_SWEEPS = 50
# largest |xi lambda t| of the kernel transforms: the float spacing there is 2,
# so a larger phase keeps no digit modulo 2 pi
MAX_TRANSFORM_PHASE = 2.0**53
# tau levels per block of the kernel solve, each converged in turn and marched in one gather
_LEVELS_PER_BLOCK = 32


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


def _right_integral(pot: TriangularPotential, disp: Dispersion, lam: float, x: np.ndarray):
    """The map w -> I_k(x) = sum_m integral_x^inf q_km(s) e^{i lam (xi_m - xi_k) s} w_m(s) ds
    on the nodes x, for slow variables w of shape (2n, len(x)): exact per
    linear segment up to x[-1], then w_m(x[-1]) times the tail transform
    of q_km, taken once per nonzero q_km."""
    xi = disp.xi_arr
    step = float(x[1] - x[0])
    terms = []
    for k in range(2 * disp.n):
        for m in range(2 * disp.n):
            p = _full_profile(pot, k, m)
            if not p.is_zero:
                omega = lam * (xi[m] - xi[k])
                terms.append((k, m, p(x), omega, p.halfline_transform_from(x[-1], omega)))

    def integral(w: np.ndarray) -> np.ndarray:
        out = np.zeros_like(w)
        for k, m, q, omega, tail in terms:
            out[k] += cumulative_right_linear(0.0, step, q * w[m], omega) + w[m, -1] * tail
        return out

    return integral


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
    sits inside the exact-per-segment quadrature; each sweep sets
    w = (A, B) + i _right_integral(w), and the iteration contracts
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
    free = np.concatenate([A, B])[:, None]
    integral = _right_integral(pot, disp, lam, x)

    w = np.tile(free, (1, nx))
    last_change = np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        w_new = free + 1j * integral(w)
        last_change = float(np.abs(w_new - w).max())
        w = w_new
        if last_change < DEFAULT_ITER_TOL:
            break
    else:
        raise NonConvergence("bounded solution", MAX_SWEEPS, last_change)

    phase = np.exp(1j * lam * xi[:, None] * x[None, :])
    y = phase * w
    tail_res = float(np.abs(w[:, -1] - free[:, 0]).max())
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
    x = sol.x_grid
    w = np.exp(-1j * sol.lam * disp.xi_arr[:, None] * x[None, :]) * sol.y.T
    out = w[:, 0] - 1j * _right_integral(pot, disp, sol.lam, x)(w)[:, 0]
    return out[:n], out[n:]


# ---------------------------------------------------------------------------
# transformation-operator kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformationKernels:
    """The two faces of the four matrix kernels that the method reads.

    The kernels live on the slanted triangle t >= x >= 0, sampled uniformly
    in x and tau = t - x.  traces holds the half-line trace x = 0 of each
    block, (n, n, Ntau), and diagonals the kernel diagonal t = x, the
    tau = 0 face, (n, n, Nx); both are zero off the admissible entries.
    nonzero holds the (block, k, j) of each channel that is nonzero anywhere
    on the triangle.  sweeps is the largest number of sweeps a tau-block of
    the solve took, and sweep_changes the sup-norm change of each sweep, one
    tuple per tau-block.
    """

    disp: Dispersion
    step: float
    traces: dict = field(repr=False)
    diagonals: dict = field(repr=False)
    nonzero: frozenset
    theta: float
    c_tilde: float
    envelope_eps: float
    sweeps: int
    sweep_changes: tuple[tuple[float, ...], ...] = ()

    @property
    def n(self) -> int:
        return self.disp.n

    @property
    def x_grid(self) -> np.ndarray:
        return self.step * np.arange(self.diagonals["A11"].shape[2])

    @property
    def tau_grid(self) -> np.ndarray:
        return self.step * np.arange(self.traces["A11"].shape[2])


def _kernel_peak_bytes(n: int, chans, nx: float, nt: float) -> float:
    """Upper bound on the memory solve_kernels allocates on an (nx, nt)
    grid, in floats, so a grid of any size gets a finite or infinite bound.

    Counts the two faces of the four blocks (4 n^2 (nx + nt) complex values),
    the potential samples on the x nodes (4 n^2 nx) and, on one tau-block of
    span = min(_LEVELS_PER_BLOCK, nt) levels of nx complex values each, the
    rolling buffer of the admissible channels plus nine work arrays (the
    coupling, a product summed into it, the next iterate and the arguments of
    a drive, the diagonal integral, the change and its modulus, the envelope
    and its product).  Then, per off-diagonal channel, its drive on the block
    (nx span values) and its carries three times over (committed, from the
    sweep's earlier channels, in the making): one coupling level and the
    accumulation on at most nx + rho span + 3 feet.  Then, per distinct
    slope, the block's march geometry: a tap index and a fraction, 16 bytes
    like one complex value, on span + 1 levels of that band of feet and on
    span levels of the nodes.  Then the temporaries of the gather of one
    block, at most 160 bytes per point on span + 1 levels of that band of
    feet, and 1 MiB for the grids, the tables and small objects.
    """
    span = min(_LEVELS_PER_BLOCK, nt)
    values = 4 * n * n * (2 * nx + nt) + (len(chans) + 9) * nx * span
    gather = 0.0
    slopes = [float(c.rho) for c in chans if c.rho is not None]
    for rho in slopes:
        values += nx * span + 3 * (2 * nx + rho * span + 3)
        gather = max(gather, (span + 1) * (nx + rho * span + 7))
    for rho in set(slopes):
        values += (span + 1) * (nx + rho * span + 3) + span * nx
    return 16 * values + 160 * gather + (1 << 20)


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


def kernel_grid(
    pot: TriangularPotential,
    disp: Dispersion,
    *,
    step: float = DEFAULT_STEP,
    x_max: float | None = None,
    tau_max: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The x and tau nodes of the kernel solve, judged before anything is
    allocated.

    x_max defaults to the length where the envelope falls below
    DEFAULT_TAIL_TOL, tau_max to x_max / theta.  The point counts and the
    peak memory bound (_kernel_peak_bytes) are computed in floats first, so
    a grid of any size is judged: an axis with fewer than 3 points, or a
    bound above the available memory (_available_memory), is refused with
    ValidationError.
    """
    if x_max is None:
        x_max = truncation_length(pot.envelope, DEFAULT_TAIL_TOL)
    if tau_max is None:
        tau_max = x_max / kernel_decay_exponent(disp)
    for axis, length in (("x", x_max), ("tau", tau_max)):
        if not length / step > 1:
            raise ValidationError("step", f"{step:.3g} leaves fewer than 3 points on the {axis} axis [0, {length:.3g}]")
    nx, nt = float(np.ceil(x_max / step)) + 1, float(np.ceil(tau_max / step)) + 1
    need = _kernel_peak_bytes(disp.n, channel_table(disp), nx, nt)
    have = _available_memory()
    if not need <= have:
        raise ValidationError(
            "kernel grid",
            f"{nx:.6g} x {nt:.6g} points at n = {disp.n} need about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of available memory",
        )
    return step * np.arange(int(nx)), step * np.arange(int(nt))


def _coupling_terms(chan: Channel, pot: TriangularPotential, qgrid: dict, row: dict):
    """(q samples, buffer rows) of each product q_{km} A_{mj} in the coupling
    of a channel: the full 2n x 2n product Q A restricted to the channel's
    block, over the m from the first to the last where q_{km} is nonzero and
    A_{mj} admissible.  The admissible m of a kernel column form one range,
    so these A_{mj} are adjacent rows of a buffer ordered by block, column
    and row (row maps (block, k, j) to its row).  The products left out are
    exact zeros, so the sum is bit-identical to one over every m.
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
            first = row[aname, ms[0], chan.j]
            terms.append((qgrid[qname][chan.k, ms[0] : ms[-1] + 1], slice(first, first + ms[-1] + 1 - ms[0])))
    return terms


def _taps(pos: np.ndarray, first: int, width: int):
    """The gather of _lerp at pos (grid units) from rows of width samples,
    row r = [left, v_first, v_first+1, ..., 0, 0]: the flat index of each
    lower tap and its fraction.  `left` serves below `first`, zero past the
    last sample; below first - 1 the upper tap reads v_first, exact when
    left == v_first."""
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    return np.clip(i0 + 1 - first, 0, width - 2) + width * np.arange(len(pos))[:, None], frac


def _lerp(rows: np.ndarray, taps) -> np.ndarray:
    """Linear interpolation of rows at the taps (lower index, fraction) of _taps."""
    lo, frac = taps
    flat = rows.ravel()
    return (1.0 - frac) * flat[lo] + frac * flat[1:][lo]


def _march_geometry(rho: float, first: int, levels: int, nx: int):
    """The gathers of _march on the levels first .. first + levels - 1, which
    depend on rho, first, levels and nx alone: the band [f0, f1) of feet,
    the taps of the coupling at those feet and the taps of the accumulation
    at the nodes.  A tau-block forms them once per slope, for every sweep and
    every channel of that slope."""
    shift = rho * np.arange(first - 1, first + levels)
    f0, f1 = int(shift[1]), int(shift[-1]) + nx + 2
    at_feet = _taps(np.arange(f0, f1, dtype=float) - shift[:, None], 0, nx + 3)
    at_nodes = _taps(np.arange(nx, dtype=float) + shift[1:, None], f0, f1 - f0 + 3)
    return f0, f1, at_feet, at_nodes


def _march(rho: float, geometry, prev: np.ndarray, g: np.ndarray, feet, out: np.ndarray, step: float):
    """Add i times the integral of the coupling along the characteristics of
    slope rho to out, on the L levels of g (nx, L) that geometry
    (_march_geometry) was formed for, with prev the coupling at the level
    below them.  feet = (f, w) is the accumulation w on the feet f, f + 1,
    ... (indexed by their position at tau = 0) carried from the block below;
    returns it for the block above.

    All L levels are marched in one gather.  The feet over the nodes move
    right with tau (rho > 0): feet left of f0 are never read again and
    feet past the carried ones have met only zero coupling, so their w is
    still exactly +0.
    """
    nx, levels = g.shape
    if not levels:
        return feet
    f0, f1, at_feet, at_nodes = geometry
    start, w = feet
    # coupling on levels first-1 .. first+L-1 at the feet, clamped left of x = 0
    rows = np.zeros((levels + 1, nx + 3), dtype=complex)
    rows[0, 0], rows[0, 1 : nx + 1] = prev[0], prev
    rows[1:, 0], rows[1:, 1 : nx + 1] = g[0], g.T
    g_feet = _lerp(rows, at_feet)
    acc = np.zeros((levels + 1, f1 - f0 + 3), dtype=complex)
    held = w[f0 - start :]
    acc[0, 1 : 1 + len(held)] = held
    acc[1:, 1:-2] = 0.5 * rho * step * (g_feet[1:] + g_feet[:-1])
    acc = np.cumsum(acc, axis=0)
    out += 1j * _lerp(acc[1:], at_nodes).T
    return f0, acc[-1, 1:-2].copy()


def _sweep(
    chans, terms: dict, row: dict, drives: dict, geometry: dict, block: np.ndarray, a: int, carries: dict, step: float
):
    """One Gauss-Seidel sweep over the tau levels [a, a + L) held in block,
    in place, channel by channel in chans order; returns the sup-norm change
    and the carries each off-diagonal channel leaves for the block above.

    block holds one (nx, L) row per admissible channel, drives the (nx, L)
    drive of each driven one and geometry the march geometry of each slope
    on the block.  A channel's next iterate is formed in one
    buffer, a copy of its drive, from block, where the channels before it
    already hold their new values, and from its carries at the block's foot:
    the coupling at level a - 1 and the accumulation on the feet.  Its
    change is taken against its values still in block, and the buffer
    replaces them at once, so the channels after it read the new values.  A
    coupling at level l reads only level l, so the sweep is the same as one
    that visits the channels level by level, whatever L.
    """
    nx, span = block.shape[1:]
    change = np.float64(0.0)
    above = {}
    for c in chans:
        g = np.zeros((nx, span), dtype=complex)
        for q, rows in terms[c]:
            g += np.einsum("mx,mxt->xt", q, block[rows])
        out = drives[c].copy() if c in drives else np.zeros((nx, span), dtype=complex)
        if c.rho is None:
            # integral along x to the truncation boundary, every level,
            # in one work array; the x_max row keeps its zero drive
            w = np.add(g[:-1], g[1:])
            w *= 0.5 * step
            np.cumsum(w[::-1], axis=0, out=w[::-1])
            w *= 1j
            out[:-1] += w
        else:
            prev, feet = carries[c]
            if a == 0:  # level 0 keeps its drive
                feet = _march(c.rho, geometry[c.rho], g[:, 0], g[:, 1:], feet, out[:, 1:], step)
            else:
                feet = _march(c.rho, geometry[c.rho], prev, g, feet, out, step)
            above[c] = (g[:, -1].copy(), feet)
        old = block[row[c.block, c.k, c.j]]
        change = np.maximum(change, np.abs(out - old).max())
        old[...] = out
    return float(change), above


def converged_tau_blocks(pot: TriangularPotential, disp: Dispersion, x: np.ndarray, tau: np.ndarray):
    """Solve the kernel system on the nodes x, tau (of kernel_grid) one block
    of _LEVELS_PER_BLOCK tau levels at a time, in ascending order.

    Yields (levels, values, changes) per block, levels the slice [a, b) of
    its tau levels: values maps each admissible Channel to its converged
    (nx, b - a) array, a view into one rolling buffer that the next block
    overwrites, and changes lists the sup-norm change of each sweep of the
    block.

    The operator is of Volterra type in tau: a level depends only on the
    levels at or below it.  A block sees the blocks below it only through
    two carries per off-diagonal channel, the accumulation on its feet and
    its coupling at level a - 1, so its fixed point is settled once they have
    converged.  Linz (Analytical and Numerical Methods for Volterra
    Equations, SIAM 1985) marches Volterra systems step by step in the same
    way.  Each block forms its drives once, and the march geometry
    (_march_geometry) once per distinct slope, and releases the previous
    block's first.  It starts from its drives and is swept
    (_sweep) until its change falls below DEFAULT_ITER_TOL; every sweep
    restarts from the carries taken at the block's foot, and those of the
    last sweep are committed for the block above.  A block still moving
    after MAX_SWEEPS sweeps raises NonConvergence.
    """
    span = _LEVELS_PER_BLOCK
    step = float(x[1])  # x = step * arange(nx)
    chans = channel_table(disp)
    qgrid = {name: pot.evaluate_block(name, x) for name in BLOCK_ALLOWED}
    # buffer rows by block, column and row, so each coupling product reads a slice
    row = {(c.block, c.k, c.j): i for i, c in enumerate(sorted(chans, key=lambda c: (c.block, c.j, c.k)))}
    terms = {c: _coupling_terms(c, pot, qgrid, row) for c in chans}
    profile = {c: pot.block(c.q_block)[c.k][c.j] for c in chans if c.rho is not None}
    carries = {c: (None, (0, np.zeros(0, dtype=complex))) for c in profile}
    buf = np.empty((len(chans), len(x), min(span, len(tau))), dtype=complex)
    drives, geometry = {}, {}
    for a in range(0, len(tau), span):
        block = buf[:, :, : min(span, len(tau) - a)]
        block_tau = tau[None, a : a + block.shape[2]]
        # the previous block's drives and geometry go before this block's are formed
        drives.clear()
        geometry.clear()
        # the drive i rho q(x + rho tau) of each channel driven by a nonzero q
        for c, p in profile.items():
            if not p.is_zero:
                drives[c] = 1j * c.rho * p(x[:, None] + c.rho * block_tau)
        # level 0 keeps its drive, so the first block marches from level 1
        first, levels = (1, block.shape[2] - 1) if a == 0 else (a, block.shape[2])
        for rho in {c.rho for c in profile}:
            geometry[rho] = _march_geometry(rho, first, levels, len(x)) if levels else None
        for c in chans:
            block[row[c.block, c.k, c.j]] = drives.get(c, 0.0)
        changes = []
        for _ in range(MAX_SWEEPS):
            change, above = _sweep(chans, terms, row, drives, geometry, block, a, carries, step)
            changes.append(change)
            if change < DEFAULT_ITER_TOL:
                break
        else:
            raise NonConvergence("kernel system", MAX_SWEEPS, change)
        carries.update(above)
        yield slice(a, a + block.shape[2]), {c: block[row[c.block, c.k, c.j]] for c in chans}, changes


def solve_kernels(
    pot: TriangularPotential,
    disp: Dispersion,
    *,
    step: float = DEFAULT_STEP,
    x_max: float | None = None,
    tau_max: float | None = None,
) -> TransformationKernels:
    """Solve the coupled Volterra systems along characteristics and keep the
    two kernel faces the method reads.

    The unknowns are the admissible channels of domain.channel_table, one
    2-D (x, tau) array each, solved by converged_tau_blocks one tau-block at
    a time with Gauss-Seidel sweeps: each sweep forms, channel by channel in
    table order, the coupling from the newest iterate (the products
    q_{km} A_{mj} whose factors are structurally nonzero) and integrates it
    along the channel's characteristic onto its drive i rho q_{kj}.  An
    off-diagonal entry is accumulated on the characteristic lattice, indexed
    by the foot position at tau = 0, so interpolation error never feeds back
    into the accumulation.  It marches a block in one gather: the coupling
    is gathered at the band of feet whose characteristics cross the nodes
    with 2-tap linear weights, the composite trapezoid increments are summed
    by a cumsum along tau whose first row is the accumulation carried from
    the block below, and the result is gathered back onto the nodes.  Each
    block forms the drives of its levels once, and the tap indices and
    fractions of both gathers once per slope, and keeps them for its sweeps.
    The diagonal entries integrate along x up to the truncation boundary,
    where the envelope bounds the dropped tail.  Gauss-Seidel reaches the
    fixed point of the Jacobi iteration in fewer sweeps.  Every element sees the same
    floating-point operations in the same order as a march that visits the
    channels one level at a time.

    Of each converged block only these are kept: its x = 0 row, the tau = 0
    column of the first block, c_tilde (a running max of
    |A| e^{eps (x + theta tau)}), whether each channel is nonzero, and the
    block's sweep history.  So the solve holds the faces, one tau-block of
    the admissible channels, their drives, their march geometry and their
    carries, however many tau levels the grid has.

    The grid is judged before anything is allocated, see kernel_grid.  A
    block stops once its sup-norm change falls below DEFAULT_ITER_TOL; one
    that has not got there after MAX_SWEEPS sweeps raises NonConvergence.
    Successive approximation contracts factorially on the nested domains, so
    these constants belong to the method and are read at call time.
    """
    x, tau = kernel_grid(pot, disp, step=step, x_max=x_max, tau_max=tau_max)
    n = disp.n
    eps = pot.envelope[1]
    theta = kernel_decay_exponent(disp)
    traces = {name: np.zeros((n, n, len(tau)), dtype=complex) for name in KERNEL_BLOCKS}
    diagonals = {name: np.zeros((n, n, len(x)), dtype=complex) for name in KERNEL_BLOCKS}
    nonzero, history, c_tilde = set(), [], 0.0
    for levels, values, changes in converged_tau_blocks(pot, disp, x, tau):
        envelope = np.exp(eps * (x[:, None] + theta * tau[None, levels]))
        for c, v in values.items():
            traces[c.block][c.k, c.j, levels] = v[0]
            if levels.start == 0:
                diagonals[c.block][c.k, c.j] = v[:, 0]
            if v.any():
                nonzero.add((c.block, c.k, c.j))
            c_tilde = max(c_tilde, float((np.abs(v) * envelope).max()))
        history.append(tuple(changes))
    return TransformationKernels(
        disp=disp,
        step=step,
        traces=traces,
        diagonals=diagonals,
        nonzero=frozenset(nonzero),
        theta=theta,
        c_tilde=c_tilde,
        envelope_eps=eps,
        sweeps=max(map(len, history)),
        sweep_changes=tuple(history),
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
        vals = -1j * ratio * kernels.diagonals[c.block][c.k, c.j]
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


def kernel_transforms(
    kernels: TransformationKernels, disp: Dispersion, grid: np.ndarray
) -> BlockTransforms:
    """Transforms of A(0, t) against e^{i lambda xi t}, per column speed.

    The two blocks of a column block share its speeds, so column j of both
    is stacked into one transform; an all-zero column is left out and stays
    exact zero.  The result is the exact transform of the piecewise-quadratic
    interpolant, so each output is genuinely one-sided: minus-type for the
    first-column blocks (negative speeds), plus-type for the second-column
    blocks.  A grid whose phases keep no digit is refused
    (check_transform_phase).
    """
    check_transform_phase(disp, float(np.abs(grid).max()), float(kernels.tau_grid[-1]))
    n = disp.n
    xi = disp.xi_arr
    theta = kernels.theta
    eps = kernels.envelope_eps
    h = kernels.step
    vals = {name: np.zeros((len(grid), n, n), dtype=complex) for name in KERNEL_BLOCKS}
    for cb in (0, 1):
        names = [name for name, (_, c) in KERNEL_BLOCKS.items() if c == cb]
        for j in range(n):
            cols = {name: kernels.traces[name][:, j, :] for name in names}  # (n, nt) each
            live = [name for name, col in cols.items() if col.any()]
            if not live:
                continue
            stacked = np.concatenate([cols[name] for name in live])
            tr = filon_simpson_transform(stacked, 0.0, h, xi[cb * n + j] * grid)
            for name, part in zip(live, np.split(tr, len(live))):
                vals[name][:, :, j] = part.T
    # indexed by block column: minus-type first, plus-type second
    tags = (Analyticity("minus", theta * eps / abs(xi[0])), Analyticity("plus", theta * eps / xi[-1]))
    return BlockTransforms(
        *(LineMatrixFunction(grid, vals[name], tags[cb]) for name, (_, cb) in KERNEL_BLOCKS.items())
    )


def check_transform_phase(disp: Dispersion, lambda_max: float, t_max: float) -> None:
    """Refuse, with ValidationError on lambda_max, a lambda grid whose
    largest transform phase max|xi| lambda_max t_max is not finite or is above
    MAX_TRANSFORM_PHASE.  Below it the Filon moments at omega dt, a smaller
    phase, stay finite too."""
    phase = float(np.abs(disp.xi_arr).max()) * lambda_max * t_max
    if not phase <= MAX_TRANSFORM_PHASE:
        raise ValidationError(
            "lambda_max",
            f"{lambda_max:.6g} with t_max {t_max:.6g} makes the largest transform phase "
            f"max|xi| lambda_max t_max = {phase:.3g}, above 2^53 = {MAX_TRANSFORM_PHASE:.3g}, "
            "where a float phase keeps no digit",
        )


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
    if worst := singular_grid_point(plus_part.grid, lhs):
        raise SingularFactor(*worst)
    s = np.linalg.solve(lhs, minus_part.plus_identity())
    return LineMatrixFunction(plus_part.grid, s, Analyticity("strip", _strip_width(plus_part, minus_part)))


def _strip_width(plus_part: LineMatrixFunction, minus_part: LineMatrixFunction) -> float:
    """The smaller positive finite half-width the two parts declare, else 0."""
    widths = (f.analyticity.finite_delta for f in (plus_part, minus_part))
    return min((d for d in widths if d > 0), default=0.0)


def transmission_matrix(blocks: BlockTransforms):
    """Boundary-value map P and its inverse on the grid.

    P sends the amplitudes (A, B) to the boundary values (y1(0), y2(0)); its
    inverse coincides with the whole-axis scattering matrix of the potential
    extended by zero.
    """
    a11m, a12p, a21m, a22p = blocks
    ngrid = len(a11m.grid)
    n = a11m.m
    p = np.zeros((ngrid, 2 * n, 2 * n), dtype=complex)
    eye = np.eye(n)
    p[:, :n, :n] = a11m.values + eye
    p[:, :n, n:] = a12p.values
    p[:, n:, :n] = a21m.values
    p[:, n:, n:] = a22p.values + eye
    if worst := singular_grid_point(a11m.grid, p):
        raise SingularP(*worst)
    pi = np.linalg.inv(p)
    pf = LineMatrixFunction(a11m.grid, p)
    pif = LineMatrixFunction(a11m.grid, pi)
    return pf, pif


def strip_diagnostics(plus_part: LineMatrixFunction, minus_part: LineMatrixFunction) -> dict:
    """Determinant health of I + parts on the axis and on shifted lines.

    The lines are shifted by delta, half the strip width of the scattering
    matrix the parts assemble (_strip_width).  Off-axis values
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

    delta = 0.5 * _strip_width(plus_part, minus_part)
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

