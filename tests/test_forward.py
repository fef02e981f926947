import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isphalf import forward
from isphalf.domain import (
    BLOCK_ALLOWED,
    BoundaryMatrix,
    Dispersion,
    KERNEL_ALLOWED,
    KERNEL_BLOCKS,
    TriangularPotential,
    channel_table,
    kernel_decay_exponent,
    validate_potential,
)
from isphalf.errors import NonConvergence, ValidationError
from isphalf.forward import (
    DEFAULT_ITER_TOL,
    DEFAULT_STEP,
    DEFAULT_TAIL_TOL,
    MAX_SWEEPS,
    MAX_TRANSFORM_PHASE,
    asymptotic_coefficients,
    boundary_parts,
    check_transform_phase,
    kernel_transforms,
    potential_from_kernels,
    scattering_matrix,
    solve_bounded_solution,
    solve_kernels,
    strip_diagnostics,
    transmission_matrix,
    truncation_length,
)
from isphalf.linefunc import make_grid
from isphalf.profiles import ExpSumProfile, SampledProfile
from isphalf.quadrature import filon_simpson_transform
from isphalf.rh import plemelj_split, split_residual

from conftest import kernel_triangle, random_potential


# -- bounded solutions -------------------------------------------------------


def test_free_solution_zero_potential():
    d = Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    pot = TriangularPotential(2)
    lam = 1.3
    A = np.array([1.0, -0.5j])
    B = np.array([0.25, 1.0 + 1.0j])
    sol = solve_bounded_solution(pot, d, lam, A, B, step=0.05, x_max=4.0)
    x = sol.x_grid
    want1 = np.exp(1j * lam * d.xi_arr[:2][None, :] * x[:, None]) * A[None, :]
    want2 = np.exp(1j * lam * d.xi_arr[2:][None, :] * x[:, None]) * B[None, :]
    np.testing.assert_allclose(sol.y1, want1, atol=1e-14)
    np.testing.assert_allclose(sol.y2, want2, atol=1e-14)
    assert sol.sweeps <= 2


@pytest.mark.parametrize("lam", [0.0, 0.7, -3.2])
def test_single_exponential_boundary_value(n1_pot, n1_disp, lam):
    sol = solve_bounded_solution(n1_pot, n1_disp, lam, [1.0], [1.0], step=0.005)
    want = 1.0 + 1j / (1.0 - 2j * lam)
    assert abs(sol.y1[0, 0] - want) < 1e-5
    assert abs(sol.y2[0, 0] - 1.0) < 1e-12


def test_amplitude_quadrature_cancellation(n1_pot, n1_disp):
    # A = 0, B = 1: the boundary value is exactly the coupling integral
    lam = 1.1
    sol = solve_bounded_solution(n1_pot, n1_disp, lam, [0.0], [1.0], step=0.005)
    a, b = asymptotic_coefficients(sol, n1_pot, n1_disp)
    assert abs(a[0]) < 1e-12
    assert abs(b[0] - 1.0) < 1e-12


def test_amplitude_roundtrip(n2_random_pot, e1_disp):
    rng = np.random.default_rng(3)
    for lam in (0.0, 2.2, -5.0):
        A = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        B = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sol = solve_bounded_solution(n2_random_pot, e1_disp, lam, A, B, step=0.02)
        a, b = asymptotic_coefficients(sol, n2_random_pot, e1_disp)
        assert np.abs(a - A).max() < 1e-8
        assert np.abs(b - B).max() < 1e-8


# -- kernels -----------------------------------------------------------------


def test_zero_potential_kernels_vanish():
    d = Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    triangle = kernel_triangle(TriangularPotential(2), d, step=0.1, x_max=3.0, tau_max=6.0)
    for name in ("A11", "A12", "A21", "A22"):
        assert np.abs(triangle[name]).max() == 0.0
    assert not solve_kernels(TriangularPotential(2), d, step=0.1, x_max=3.0, tau_max=6.0).nonzero


def test_single_exponential_kernel_closed_form(n1_kernels, n1_triangle):
    x = n1_kernels.x_grid
    tau = n1_kernels.tau_grid
    want = 0.5j * np.exp(-x[:, None]) * np.exp(-tau[None, :] / 2)
    np.testing.assert_allclose(n1_triangle["A12"][0, 0], want, atol=1e-13)
    for name in ("A11", "A21", "A22"):
        assert np.abs(n1_triangle[name]).max() == 0.0
    assert n1_kernels.nonzero == {("A12", 0, 0)}


def test_kernel_decay_slope(n1_kernels):
    tau = n1_kernels.tau_grid
    mags = np.abs(n1_kernels.traces["A12"][0, 0])
    window = (mags > 1e-10) & (tau > 0.5)
    slope = np.polyfit(tau[window], np.log(mags[window]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-6)


def test_kernel_structure_preserved(n2_random_kernels, n2_random_triangle):
    n = 2
    for name in ("A11", "A12", "A21", "A22"):
        for i in range(n):
            for j in range(n):
                if not KERNEL_ALLOWED[name](i, j, n):
                    assert np.abs(n2_random_triangle[name][i, j]).max() == 0.0
                    assert (name, i, j) not in n2_random_kernels.nonzero


def test_kernel_envelope_bound(n2_random_kernels, n2_random_triangle):
    ker = n2_random_kernels
    x, tau = ker.x_grid, ker.tau_grid
    env = ker.c_tilde * np.exp(-ker.envelope_eps * (x[:, None] + ker.theta * tau[None, :]))
    for name in ("A11", "A12", "A21", "A22"):
        mags = np.abs(n2_random_triangle[name]).max(axis=(0, 1))
        assert np.all(mags <= env * (1.0 + 1e-9))


def test_coupled_decay_slope_bound(n2_random_kernels):
    # fitted slope of the x = 0 trace must be at least as steep as -eps*theta
    ker = n2_random_kernels
    tau = ker.tau_grid
    bound = -ker.envelope_eps * ker.theta + 0.05
    for name in ("A12", "A21"):
        mags = np.abs(ker.traces[name]).max(axis=(0, 1))
        window = (mags > 1e-9) & (tau > 0.5) & (tau < 20.0)
        slope = np.polyfit(tau[window], np.log(mags[window]), 1)[0]
        assert slope <= bound


def test_potential_recovery_zero():
    d = Dispersion(1, (-1.0, 1.0))
    ker = solve_kernels(TriangularPotential(1), d, step=0.1, x_max=3.0, tau_max=6.0)
    pot = potential_from_kernels(ker, d)
    assert sum(not p.is_zero for name in ("q11", "q12", "q21", "q22") for row in pot.block(name) for p in row) == 0


def test_potential_recovery_closed_form(n1_kernels, n1_disp):
    # A12(x,x) = (i/2) e^{-x} with speeds (-1, 1) maps back to e^{-x}
    pot = potential_from_kernels(n1_kernels, n1_disp)
    x = n1_kernels.x_grid
    got = pot.q12[0][0](x)
    np.testing.assert_allclose(got, np.exp(-x), rtol=1e-12, atol=1e-13)
    assert validate_potential(pot) == []


def test_potential_recovery_roundtrip(n2_random_pot, e1_disp, n2_random_kernels):
    pot2 = potential_from_kernels(n2_random_kernels, e1_disp)
    x = n2_random_kernels.x_grid
    keep = x <= 5.0
    for name in ("q11", "q12", "q21", "q22"):
        for i in range(2):
            for j in range(2):
                truth = n2_random_pot.block(name)[i][j](x[keep])
                got = pot2.block(name)[i][j](x[keep])
                scale = max(np.abs(truth).max(), 1e-30)
                assert np.abs(got - truth).max() / scale < 1e-6


@st.composite
def _speeds(draw, n):
    """n negative and n positive speeds, increasing, at least 0.1 apart."""
    tenths = st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True)
    neg, pos = draw(tenths), draw(tenths)
    return tuple(sorted(-0.1 * v for v in neg)) + tuple(sorted(0.1 * v for v in pos))


@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_potential_from_kernel_diagonal_roundtrip(data, n, seed):
    # the tau = 0 face of each off-diagonal channel is its drive i rho q, so
    # the diagonal gives back every potential entry at the x nodes
    disp = Dispersion(n, data.draw(_speeds(n)))
    pot = random_potential(n, seed)
    ker = solve_kernels(pot, disp, step=0.1, x_max=4.0, tau_max=6.0)
    back = potential_from_kernels(ker, disp)
    x = ker.x_grid
    for name in BLOCK_ALLOWED:
        for i in range(n):
            for j in range(n):
                truth, got = pot.block(name)[i][j], back.block(name)[i][j]
                assert got.is_zero == truth.is_zero
                if not truth.is_zero:
                    want = truth(x)
                    assert np.abs(got(x) - want).max() <= 1e-13 * np.abs(want).max()


def reconstruct_from_kernels(kernels, triangle, disp, lam, A, B, x_index):
    """Solution values at one x-grid node rebuilt from the kernel
    representation; triangle holds the full blocks of kernels."""
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
        block = triangle[name][:, :, x_index, :]  # (n, n, nt)
        amps = A if cb == 0 else B
        for j in range(n):
            if not block[:, j, :].any():
                continue
            speed = xi[cb * n + j]
            tr = filon_simpson_transform(block[:, j, :], 0.0, h, np.array([lam * speed]))[:, 0]
            y[rb * n : rb * n + n] += np.exp(1j * lam * speed * x) * tr * amps[j]
    return y[:n], y[n:]


def test_representation_consistency(n2_random_pot, e1_disp, n2_random_kernels, n2_random_triangle):
    # solution rebuilt from the kernels matches the integral-equation solver
    rng = np.random.default_rng(11)
    lams = rng.uniform(-10, 10, 5)
    A = np.array([1.0, -0.4 + 0.2j])
    B = np.array([0.3j, 0.8])
    for lam in lams:
        sol = solve_bounded_solution(n2_random_pot, e1_disp, lam, A, B, step=0.01, x_max=16.0)
        for ix in (0, 25, 75):
            x = n2_random_kernels.x_grid[ix]
            isol = int(round(x / (sol.x_grid[1] - sol.x_grid[0])))
            y1r, y2r = reconstruct_from_kernels(n2_random_kernels, n2_random_triangle, e1_disp, lam, A, B, ix)
            err = max(np.abs(y1r - sol.y1[isol]).max(), np.abs(y2r - sol.y2[isol]).max())
            assert err < 2e-4


# -- the block-converged march against the per-level march it replaced ------

# The Jacobi solver before the kernel march was vectorised, kept verbatim but
# for its return value (the blocks, c_tilde and the sweep count): one
# sample_level call per channel, tau level and operand, over full
# (n, n, nx, nt) blocks, with the block tables it used beside it.  It is the
# fixed-point oracle of the Gauss-Seidel solve.  Its Gauss-Seidel form on
# the solve's block-converged schedule, reference_gauss_seidel_kernels, is
# the per-level march the blocked, channel-by-channel march must reproduce
# bit for bit.
_BLOCK_SPEEDS = {
    # (row block offset, column block offset) into the 2n speed vector
    "A11": (0, 0),
    "A12": (0, 1),
    "A21": (1, 0),
    "A22": (1, 1),
}
_DRIVE_BLOCK = {"A11": "q11", "A12": "q12", "A21": "q21", "A22": "q22"}
# coupling products per kernel block: G_b = sum_q q_block @ kernel_block
_COUPLING = {
    "A11": (("q11", "A11"), ("q12", "A21")),
    "A12": (("q11", "A12"), ("q12", "A22")),
    "A21": (("q21", "A11"), ("q22", "A21")),
    "A22": (("q21", "A12"), ("q22", "A22")),
}


def _channel_table(disp: Dispersion):
    """Per-entry characteristic data: (block, k, j, rho or None for diagonal)."""
    n = disp.n
    xi = disp.xi_arr
    chans = []
    for name, (rb, cb) in _BLOCK_SPEEDS.items():
        rule = KERNEL_ALLOWED[name]
        for k in range(n):
            for j in range(n):
                if not rule(k, j, n):
                    continue
                row_speed = xi[rb * n + k]
                col_speed = xi[cb * n + j]
                if row_speed == col_speed:
                    chans.append((name, k, j, None))
                else:
                    chans.append((name, k, j, col_speed / (col_speed - row_speed)))
    return chans


def reference_solve_kernels(
    pot: TriangularPotential,
    disp: Dispersion,
    *,
    step: float = DEFAULT_STEP,
    x_max: float | None = None,
    tau_max: float | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    tol: float = DEFAULT_ITER_TOL,
    max_sweeps: int = MAX_SWEEPS,
):
    """Solve the coupled Volterra systems along characteristics.

    Each entry is updated by marching its own characteristic one tau level
    per step (composite trapezoid along the segment, linear interpolation at
    the off-grid foot), with a Jacobi sweep barrier between iterations.  The
    diagonal entries integrate along x up to the truncation boundary, where
    the envelope bounds the dropped tail.
    """
    n = disp.n
    c_env, eps = pot.envelope
    theta = kernel_decay_exponent(disp)
    if x_max is None:
        x_max = truncation_length(pot.envelope, tail_tol)
    if tau_max is None:
        tau_max = x_max / theta
    nx = int(math.ceil(x_max / step)) + 1
    nt = int(math.ceil(tau_max / step)) + 1
    x = step * np.arange(nx)
    tau = step * np.arange(nt)
    xi = disp.xi_arr

    chans = _channel_table(disp)
    qgrid = {name: pot.evaluate_block(name, x) for name in BLOCK_ALLOWED}

    # driving terms: D_{kj}(x, tau) = i rho q_{kj}(x + rho tau); zero on diagonals
    drive = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in _BLOCK_SPEEDS}
    for name, k, j, rho in chans:
        if rho is None:
            continue
        prof = pot.block(_DRIVE_BLOCK[name])[k][j]
        if prof.is_zero:
            continue
        if isinstance(prof, ExpSumProfile):
            d = np.zeros((nx, nt), dtype=complex)
            for gamma, a in prof.terms:
                d += gamma * np.outer(np.exp(-a * x), np.exp(-a * rho * tau))
        else:
            d = prof(x[:, None] + rho * tau[None, :])
        drive[name][k, j] = 1j * rho * d

    kern = {name: drive[name].copy() for name in _BLOCK_SPEEDS}

    def sample_level(level_vals: np.ndarray, pos: np.ndarray, clamp_left: bool = False) -> np.ndarray:
        """Linear interpolation of a 1-d level at positions given in grid units.

        Values vanish beyond the right (truncation) edge; the left edge is
        either zero or clamped to the first sample (used for coupling fields
        along characteristics that exit at x = 0, so the accumulated integral
        stays kink-free where the corner is interpolated).
        """
        m = len(level_vals)
        i0 = np.floor(pos).astype(int)
        frac = pos - i0
        padded = np.concatenate([level_vals, [0.0 + 0.0j, 0.0 + 0.0j]])
        left = level_vals[0] if clamp_left else 0.0 + 0.0j
        lo = np.clip(i0, -1, m)
        hi = np.clip(i0 + 1, -1, m)
        vlo = np.where(i0 < 0, left, padded[lo])
        vhi = np.where(i0 + 1 < 0, left, padded[hi])
        return (1.0 - frac) * vlo + frac * vhi

    last_change = np.inf
    for sweep in range(1, max_sweeps + 1):
        coup = {}
        for name in _BLOCK_SPEEDS:
            g = np.zeros((n, n, nx, nt), dtype=complex)
            for qname, aname in _COUPLING[name]:
                g += np.einsum("kmx,mjxt->kjxt", qgrid[qname], kern[aname])
            coup[name] = g

        change = 0.0
        new = {}
        for name in _BLOCK_SPEEDS:
            new[name] = drive[name].copy()
        for name, k, j, rho in chans:
            g = coup[name][k, j]
            if rho is None:
                # integral along x to the truncation boundary, every tau level
                seg = 0.5 * step * (g[:-1, :] + g[1:, :])
                w = np.zeros((nx, nt), dtype=complex)
                w[:-1, :] = np.cumsum(seg[::-1, :], axis=0)[::-1, :]
                new[name][k, j] = drive[name][k, j] + 1j * w
            else:
                # accumulate the path integral on the characteristic lattice
                # (indexed by the foot position at tau = 0) so interpolation
                # error never feeds back into the accumulation
                n_feet = nx + int(math.ceil(rho * (nt - 1))) + 1
                feet = np.arange(n_feet, dtype=float)
                w = np.zeros(n_feet, dtype=complex)
                out = new[name][k, j]
                g_prev = sample_level(g[:, 0], feet, clamp_left=True)
                node_query = np.arange(nx, dtype=float)
                for ell in range(1, nt):
                    g_cur = sample_level(g[:, ell], feet - rho * ell, clamp_left=True)
                    w += 0.5 * rho * step * (g_cur + g_prev)
                    g_prev = g_cur
                    out[:, ell] += 1j * sample_level(w, node_query + rho * ell)
        for name in _BLOCK_SPEEDS:
            change = max(change, float(np.abs(new[name] - kern[name]).max()))
            kern[name] = new[name]
        last_change = change
        if change < tol:
            break
    else:
        raise NonConvergence("kernel system", max_sweeps, last_change)

    envelope = np.exp(eps * (x[:, None] + theta * tau[None, :]))
    c_tilde = 0.0
    for name in _BLOCK_SPEEDS:
        mags = np.abs(kern[name]).max(axis=(0, 1))
        c_tilde = max(c_tilde, float((mags * envelope).max()))
    return kern, c_tilde, sweep


def _sample_level(level_vals: np.ndarray, pos: np.ndarray, clamp_left: bool = False) -> np.ndarray:
    """sample_level of reference_solve_kernels."""
    m = len(level_vals)
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    padded = np.concatenate([level_vals, [0.0 + 0.0j, 0.0 + 0.0j]])
    left = level_vals[0] if clamp_left else 0.0 + 0.0j
    lo = np.clip(i0, -1, m)
    hi = np.clip(i0 + 1, -1, m)
    vlo = np.where(i0 < 0, left, padded[lo])
    vhi = np.where(i0 + 1 < 0, left, padded[hi])
    return (1.0 - frac) * vlo + frac * vhi


def reference_gauss_seidel_kernels(
    pot: TriangularPotential, disp: Dispersion, *, step: float, x_max: float, tau_max: float, levels: int | None = None
):
    """reference_solve_kernels as a Gauss-Seidel iteration, converged one
    block of `levels` tau levels at a time (by default the library's
    forward._LEVELS_PER_BLOCK, read at call time); returns the blocks,
    c_tilde and the sweep changes of each tau-block.

    Each tau-block starts from its drive and is swept until its change falls
    below DEFAULT_ITER_TOL.  In the channel loop of a sweep each channel's
    coupling is formed from the current kern, and its march runs one tau
    level per step as in the Jacobi reference, from the accumulation on the
    feet and the coupling at the level below the block that the block below
    ended with.  Its new values are stored at once, so the channels after it
    read them.
    """
    if levels is None:
        levels = forward._LEVELS_PER_BLOCK
    n = disp.n
    eps = pot.envelope[1]
    theta = kernel_decay_exponent(disp)
    nx = int(math.ceil(x_max / step)) + 1
    nt = int(math.ceil(tau_max / step)) + 1
    x = step * np.arange(nx)
    tau = step * np.arange(nt)
    chans = _channel_table(disp)
    qgrid = {name: pot.evaluate_block(name, x) for name in BLOCK_ALLOWED}

    drive = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in _BLOCK_SPEEDS}
    for name, k, j, rho in chans:
        prof = pot.block(_DRIVE_BLOCK[name])[k][j]
        if rho is None or prof.is_zero:
            continue
        drive[name][k, j] = 1j * rho * prof(x[:, None] + rho * tau[None, :])
    kern = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in _BLOCK_SPEEDS}

    # per off-diagonal channel: the accumulation per foot and the coupling at
    # the level below the block, as the block below ended with them
    carried = {(name, k, j): (np.zeros(nx + int(math.ceil(rho * (nt - 1))) + 1, dtype=complex), None)
               for name, k, j, rho in chans if rho is not None}
    history = []
    for a in range(0, nt, levels):
        b = min(a + levels, nt)
        for name in kern:
            kern[name][:, :, :, a:b] = drive[name][:, :, :, a:b]
        changes = []
        for sweep in range(1, MAX_SWEEPS + 1):
            change = 0.0
            ended = {}
            for name, k, j, rho in chans:
                g = np.zeros((nx, b - a), dtype=complex)
                for qname, aname in _COUPLING[name]:
                    g += np.einsum("mx,mxt->xt", qgrid[qname][k], kern[aname][:, j, :, a:b])
                out = drive[name][k, j, :, a:b].copy()
                if rho is None:
                    seg = 0.5 * step * (g[:-1, :] + g[1:, :])
                    w = np.zeros((nx, b - a), dtype=complex)
                    w[:-1, :] = np.cumsum(seg[::-1, :], axis=0)[::-1, :]
                    out = out + 1j * w
                else:
                    w, below = carried[name, k, j]
                    w = w.copy()
                    feet = np.arange(len(w), dtype=float)
                    if a == 0:
                        g_prev = _sample_level(g[:, 0], feet, clamp_left=True)
                    else:
                        g_prev = _sample_level(below, feet - rho * (a - 1), clamp_left=True)
                    for ell in range(max(a, 1), b):
                        g_cur = _sample_level(g[:, ell - a], feet - rho * ell, clamp_left=True)
                        w += 0.5 * rho * step * (g_cur + g_prev)
                        g_prev = g_cur
                        out[:, ell - a] += 1j * _sample_level(w, np.arange(nx, dtype=float) + rho * ell)
                    ended[name, k, j] = (w, g[:, -1].copy())
                change = max(change, float(np.abs(out - kern[name][k, j, :, a:b]).max()))
                kern[name][k, j, :, a:b] = out
            changes.append(change)
            if change < DEFAULT_ITER_TOL:
                break
        else:
            raise NonConvergence("kernel system", MAX_SWEEPS, change)
        carried.update(ended)
        history.append(tuple(changes))

    envelope = np.exp(eps * (x[:, None] + theta * tau[None, :]))
    c_tilde = max(float((np.abs(blk).max(axis=(0, 1)) * envelope).max()) for blk in kern.values())
    return kern, c_tilde, tuple(history)


def assert_same_kernels(got, triangle, want):
    """solve_kernels' result and the triangle it streams match the per-level
    reference bit for bit."""
    kern, c_tilde, history = want
    for name in ("A11", "A12", "A21", "A22"):
        assert np.array_equal(triangle[name], kern[name])
        assert np.array_equal(got.traces[name], kern[name][:, :, 0, :])
        assert np.array_equal(got.diagonals[name], kern[name][:, :, :, 0])
    assert got.sweep_changes == history
    assert got.sweeps == max(len(changes) for changes in history)
    assert got.c_tilde == c_tilde


def assert_solve_matches(pot, disp, want, grid):
    assert_same_kernels(solve_kernels(pot, disp, **grid), kernel_triangle(pot, disp, **grid), want)


E1_DISP = Dispersion(2, (-2.0, -1.0, 1.0, 2.0))  # rho includes 1/3 and 2/3
N3_DISP = Dispersion(3, (-3.0, -1.7, -0.4, 0.9, 2.0, 3.1))
SMALL_GRID = {"step": 0.1, "x_max": 3.0, "tau_max": 6.0}


def test_march_matches_reference_n1(n1_pot, n1_disp, n1_kernels, n1_triangle):
    want = reference_gauss_seidel_kernels(n1_pot, n1_disp, step=0.02, x_max=16.0, tau_max=36.0)
    assert_same_kernels(n1_kernels, n1_triangle, want)


@settings(max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_march_matches_reference_random(seed, n):
    disp = E1_DISP if n == 2 else N3_DISP
    pot = random_potential(n, seed)
    assert_solve_matches(pot, disp, reference_gauss_seidel_kernels(pot, disp, **SMALL_GRID), SMALL_GRID)


def test_march_matches_reference_sampled_drive():
    x = 0.05 * np.arange(120)
    prof = SampledProfile(0.05, 0.4 * np.exp(-x) * (1.0 + 0.5j * np.cos(3.0 * x)), tail_rate=1.0)
    pot = TriangularPotential(1, q12=[[prof]], q21=[[prof]], envelope=(1.0, 1.0))
    disp = Dispersion(1, (-1.0, 2.0))
    assert_solve_matches(pot, disp, reference_gauss_seidel_kernels(pot, disp, **SMALL_GRID), SMALL_GRID)


@pytest.mark.parametrize("seed, levels", [(1, 64), (200, 64), (1 << 20, 7)])
def test_march_block_carry_matches_reference(monkeypatch, seed, levels):
    # 64 levels: all 61 levels of SMALL_GRID in one block; 7 levels: the
    # band of feet moves on between blocks
    pot = random_potential(2, seed)
    want = reference_gauss_seidel_kernels(pot, E1_DISP, **SMALL_GRID, levels=levels)
    monkeypatch.setattr(forward, "_LEVELS_PER_BLOCK", levels)
    assert_solve_matches(pot, E1_DISP, want, SMALL_GRID)


@settings(max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]), levels=st.integers(1, 61))
@example(seed=5, n=2, levels=1)  # the first block marches no level
@example(seed=5, n=2, levels=7)  # the band of feet moves on between blocks
def test_march_block_carry_matches_reference_random(seed, n, levels):
    # any number of levels per block, up to all 61 of SMALL_GRID (a prime,
    # so every other count leaves a short last block), gives the per-level
    # march with the same schedule bit for bit
    disp = {1: Dispersion(1, (-1.0, 1.0)), 2: E1_DISP, 3: N3_DISP}[n]
    pot = random_potential(n, seed)
    want = reference_gauss_seidel_kernels(pot, disp, **SMALL_GRID, levels=levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "_LEVELS_PER_BLOCK", levels)
        assert_solve_matches(pot, disp, want, SMALL_GRID)


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]), amplitude=st.floats(0.25, 2.0))
def test_gauss_seidel_reaches_the_jacobi_fixed_point(seed, n, amplitude):
    # the block-converged Gauss-Seidel solve and global Jacobi sweeps share
    # their fixed point, on the faces and in c_tilde; no block takes more
    # sweeps than Jacobi
    disp = {1: Dispersion(1, (-1.0, 1.0)), 2: E1_DISP, 3: N3_DISP}[n]
    pot = random_potential(n, seed, amplitude=amplitude)
    got = solve_kernels(pot, disp, **SMALL_GRID)
    kern, c_tilde, sweeps = reference_solve_kernels(pot, disp, **SMALL_GRID)
    for name in ("A11", "A12", "A21", "A22"):
        assert np.abs(got.traces[name] - kern[name][:, :, 0, :]).max() <= 1e-11
        assert np.abs(got.diagonals[name] - kern[name][:, :, :, 0]).max() <= 1e-11
    assert abs(got.c_tilde - c_tilde) <= 1e-11
    assert got.sweeps <= sweeps


def test_sweep_changes_history(n2_random_kernels):
    # one history per tau-block, each ending below the tolerance and falling
    # from sweep to sweep; sweeps is the longest
    history = n2_random_kernels.sweep_changes
    assert len(history) == math.ceil(len(n2_random_kernels.tau_grid) / forward._LEVELS_PER_BLOCK)
    assert n2_random_kernels.sweeps == max(len(changes) for changes in history)
    for changes in history:
        assert changes[-1] < DEFAULT_ITER_TOL
        assert all(later < earlier for earlier, later in zip(changes, changes[1:]))


def test_each_drive_is_formed_once_per_tau_block(monkeypatch):
    # a drive is the one 2-D evaluation of a profile: formed once per block
    # and driven channel, however many sweeps the block takes
    pot, disp = random_potential(2, 42), Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    dims = []
    call = ExpSumProfile.__call__
    monkeypatch.setattr(ExpSumProfile, "__call__", lambda self, x: dims.append(np.ndim(x)) or call(self, x))
    kernels = solve_kernels(pot, disp, step=0.05, x_max=6.0, tau_max=12.0)
    driven = [c for c in channel_table(disp) if c.rho is not None and not pot.block(c.q_block)[c.k][c.j].is_zero]
    blocks = math.ceil(len(kernels.tau_grid) / forward._LEVELS_PER_BLOCK)
    assert kernels.sweeps > 1
    assert dims.count(2) == len(driven) * blocks


def test_march_geometry_is_formed_once_per_tau_block_and_slope(monkeypatch):
    # the gathers' taps depend on the slope, the block and nx alone: formed
    # once per block and distinct slope, shared by every sweep and by the
    # channels of one slope (8 off-diagonal channels on 3 slopes here)
    pot, disp = random_potential(2, 42), E1_DISP
    made = []
    build = forward._march_geometry
    monkeypatch.setattr(forward, "_march_geometry", lambda rho, *a: made.append(rho) or build(rho, *a))
    kernels = solve_kernels(pot, disp, step=0.05, x_max=6.0, tau_max=12.0)
    slopes = [c.rho for c in channel_table(disp) if c.rho is not None]
    blocks = math.ceil(len(kernels.tau_grid) / forward._LEVELS_PER_BLOCK)
    assert kernels.sweeps > 1 and blocks > 1 and len(slopes) > len(set(slopes))
    assert Counter(made) == {rho: blocks for rho in set(slopes)}


def test_oversized_grid_refused_before_allocating(monkeypatch, n1_pot, n1_disp):
    monkeypatch.setattr(forward, "_available_memory", lambda: 1 << 34)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="GiB"):
            solve_kernels(n1_pot, n1_disp, step=1e-4, x_max=1e3, tau_max=2e3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preflight_estimate_bounds_peak(monkeypatch, n1_pot, n1_disp, n):
    # the preflight estimate is an upper bound on what the solve allocates
    pot, disp = {1: (n1_pot, n1_disp), 2: (random_potential(2, 42), E1_DISP), 3: (random_potential(3, 7), N3_DISP)}[n]
    estimates = []
    estimate = forward._kernel_peak_bytes
    monkeypatch.setattr(forward, "_kernel_peak_bytes", lambda *a: estimates.append(estimate(*a)) or estimates[-1])
    tracemalloc.start()
    try:
        solve_kernels(pot, disp, step=0.05, x_max=12.0, tau_max=24.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]


def test_grid_beyond_available_memory_refused(monkeypatch, n1_pot, n1_disp):
    # the preflight compares its bound with the memory still available
    monkeypatch.setattr(forward, "_available_memory", lambda: 1 << 20)
    with pytest.raises(ValidationError, match="available memory"):
        solve_kernels(n1_pot, n1_disp, **SMALL_GRID)


def test_solve_peak_is_independent_of_tau_levels():
    # the solve holds what it returns (the faces, the nonzero flags and the
    # sweep history), its tau nodes, and one tau-block of the admissible
    # channels with their carries: twice the tau levels grow its peak by no
    # more than the first two grow.  The band of feet a block gathers is one
    # foot wider on some blocks than on others (the rounding of rho a), which
    # the slack of one foot at the bound's 160 bytes per gathered point covers
    pot = random_potential(3, 7)
    solve_kernels(pot, N3_DISP, **SMALL_GRID)  # one-time allocations of numpy
    peaks, held = [], []
    for tau_max in (24.0, 48.0):
        tracemalloc.start()
        try:
            ker = solve_kernels(pot, N3_DISP, step=0.05, x_max=12.0, tau_max=tau_max)
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        held.append(returned + ker.tau_grid.nbytes)
    slack = 160 * (forward._LEVELS_PER_BLOCK + 1)
    assert peaks[1] - peaks[0] <= held[1] - held[0] + slack


# -- transforms and matrices -------------------------------------------------


@pytest.fixture(scope="module")
def n1_blocks(n1_kernels, n1_disp, grid_100_4096):
    return kernel_transforms(n1_kernels, n1_disp, grid_100_4096)


def test_transform_closed_form(n1_blocks, grid_100_4096):
    lam = grid_100_4096
    want = 1j / (1 - 2j * lam)
    assert np.abs(n1_blocks.a12_plus.values[:, 0, 0] - want).max() < 1e-6
    for f in (n1_blocks.a11_minus, n1_blocks.a21_minus, n1_blocks.a22_plus):
        assert f.sup_norm() == 0.0
    assert n1_blocks.a12_plus.analyticity.kind == "plus"
    assert n1_blocks.a11_minus.analyticity.kind == "minus"
    assert n1_blocks.a12_plus.analyticity.delta == pytest.approx(0.5)


def test_transform_phase_is_refused_above_two_to_the_53(n1_kernels, n1_disp):
    # the n = 1 speeds are -1 and 1, so the largest phase is lambda_max t_max,
    # exact in floats at t_max = 16
    edge = MAX_TRANSFORM_PHASE / 16.0
    check_transform_phase(n1_disp, edge, 16.0)
    for lambda_max in (np.nextafter(edge, np.inf), 1e200, 1e308):
        with pytest.raises(ValidationError) as exc:
            check_transform_phase(n1_disp, lambda_max, 16.0)
        assert exc.value.field == "lambda_max"
    with pytest.raises(ValidationError):
        kernel_transforms(n1_kernels, n1_disp, make_grid(1e200, 64))


def test_transform_vanishes_at_infinity(n1_blocks):
    nrm = n1_blocks.a12_plus.norms()
    assert nrm[0] < 5.1e-3 and nrm[-1] < 5.1e-3
    assert nrm[0] < 0.01 * nrm.max()


@settings(max_examples=4, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]))
def test_split_parts_of_transforms_are_one_sided(seed, n):
    # the lambda grid resolves |xi| t up to pi / 0.049 = 64, beyond which the
    # traces have decayed; what remains on the wrong side is the split's
    # tail model, below 1e-3 of the sup here, where a wrong side shows at O(1)
    disp = {1: Dispersion(1, (-1.0, 1.0)), 2: E1_DISP, 3: N3_DISP}[n]
    ker = solve_kernels(random_potential(n, seed), disp, step=0.1, x_max=12.0, tau_max=36.0)
    for f in kernel_transforms(ker, disp, make_grid(50.0, 2048)):
        sup = f.sup_norm()
        if sup == 0.0:
            continue
        plus, minus = plemelj_split(f, edge_tol=1.0)
        assert split_residual(f, f.analyticity.kind) <= 2e-3 * sup
        assert split_residual(plus, "plus") <= 2e-3 * sup
        assert split_residual(minus, "minus") <= 2e-3 * sup


def test_boundary_parts_closed_form(n1_blocks, grid_100_4096):
    h = 1.0
    plus, minus = boundary_parts(n1_blocks, BoundaryMatrix(np.array([[h]])))
    want = -1j * h / (1 - 2j * grid_100_4096)
    assert np.abs(plus.values[:, 0, 0] - want).max() < 1e-6
    assert minus.sup_norm() == 0.0


def test_boundary_parts_identity_matrix(n2_random_kernels, e1_disp, grid_100_4096):
    blocks = kernel_transforms(n2_random_kernels, e1_disp, grid_100_4096)
    plus, minus = boundary_parts(blocks, BoundaryMatrix(np.eye(2)))
    np.testing.assert_allclose(
        plus.values, (blocks.a22_plus - blocks.a12_plus).values, atol=1e-14
    )
    np.testing.assert_allclose(
        minus.values, (blocks.a11_minus - blocks.a21_minus).values, atol=1e-14
    )


def test_scattering_identity_for_zero_parts(grid_100_4096):
    from isphalf.linefunc import LineMatrixFunction

    z = LineMatrixFunction(grid_100_4096, np.zeros((4096, 2, 2)))
    s = scattering_matrix(z, z)
    np.testing.assert_allclose(s.values, np.eye(2)[None, :, :].repeat(4096, 0), atol=0)


def test_scattering_closed_form(n1_blocks, grid_100_4096):
    plus, minus = boundary_parts(n1_blocks, BoundaryMatrix(np.array([[1.0]])))
    s = scattering_matrix(plus, minus)
    lam = grid_100_4096
    want = (1 - 2j * lam) / (1 - 2j * lam - 1j)
    window = np.abs(lam) <= 20.0
    assert np.abs(s.values[window, 0, 0] - want[window]).max() < 1e-6
    assert abs(s.at(0.0)[0, 0] - (0.5 + 0.5j)) < 1e-6
    assert s.analyticity.kind == "strip"


def test_scattering_neumann_edge_bound(n1_blocks, grid_100_4096):
    plus, minus = boundary_parts(n1_blocks, BoundaryMatrix(np.array([[1.0]])))
    s = scattering_matrix(plus, minus)
    for idx in (0, -1):
        lhs = np.abs(s.values[idx] - np.eye(1)).max()
        rhs = 2 * np.abs(plus.values[idx]).max() + np.abs(minus.values[idx]).max()
        assert lhs <= rhs


def test_scattering_asymptotics_monotone(n1_kernels, n1_disp):
    grid = make_grid(128.0, 4096)
    blocks = kernel_transforms(n1_kernels, n1_disp, grid)
    plus, minus = boundary_parts(blocks, BoundaryMatrix(np.array([[1.0]])))
    s = scattering_matrix(plus, minus)
    eye = np.eye(1)
    devs = []
    for mag in (10.0, 20.0, 40.0, 80.0):
        devs.append(max(np.abs(s.at(mag) - eye).max(), np.abs(s.at(-mag) - eye).max()))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 0.05


def test_transmission_unipotent(n1_blocks, grid_100_4096):
    p, pi = transmission_matrix(n1_blocks)
    lam = grid_100_4096
    want01 = 1j / (1 - 2j * lam)
    assert np.abs(p.values[:, 0, 1] - want01).max() < 1e-6
    assert np.abs(pi.values[:, 0, 1] + want01).max() < 1e-6
    np.testing.assert_allclose(np.linalg.det(p.values), 1.0, atol=1e-12)
    prod = p.values @ pi.values
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape), atol=1e-12)


def test_transmission_identity_zero_blocks(grid_100_4096):
    d = Dispersion(1, (-1.0, 1.0))
    ker = solve_kernels(TriangularPotential(1), d, step=0.1, x_max=2.0, tau_max=4.0)
    blocks = kernel_transforms(ker, d, grid_100_4096)
    p, pi = transmission_matrix(blocks)
    np.testing.assert_allclose(p.values, np.broadcast_to(np.eye(2), p.values.shape), atol=0)
    np.testing.assert_allclose(pi.values, np.broadcast_to(np.eye(2), pi.values.shape), atol=0)


def test_boundary_coupling_identity(n2_random_pot, e1_disp, n2_random_kernels, grid_100_4096):
    # choose B = S H A; the bounded solution must then satisfy y2(0) = H y1(0)
    blocks = kernel_transforms(n2_random_kernels, e1_disp, grid_100_4096)
    hmat = np.array([[1.0, 0.4], [-0.2, 2.0]], dtype=complex)
    bnd = BoundaryMatrix(hmat)
    plus, minus = boundary_parts(blocks, bnd)
    s = scattering_matrix(plus, minus)
    rng = np.random.default_rng(4)
    for lam in (0.0, grid_100_4096[2248], grid_100_4096[1300]):
        A = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        B = s.at(lam) @ hmat @ A
        sol = solve_bounded_solution(n2_random_pot, e1_disp, float(lam), A, B, step=0.01)
        resid = np.abs(sol.y2[0] - hmat @ sol.y1[0]).max()
        assert resid < 5e-4


def test_strip_diagnostics_zero_parts(grid_100_4096):
    from isphalf.linefunc import Analyticity, LineMatrixFunction

    z = LineMatrixFunction(grid_100_4096, np.zeros((4096, 1, 1)))
    rep = strip_diagnostics(z.with_tag(Analyticity("plus", 0.4)), z.with_tag(Analyticity("minus", 0.4)))
    assert rep["delta"] == 0.2
    assert rep["min_abs_det_plus"] == pytest.approx(1.0)
    assert rep["min_abs_det_minus"] == pytest.approx(1.0)
    assert rep["edge_residual_plus"] == 0.0


def test_strip_diagnostics_closed_form(n1_blocks, grid_100_4096):
    plus, minus = boundary_parts(n1_blocks, BoundaryMatrix(np.array([[1.0]])))
    rep = strip_diagnostics(plus, minus)
    lam = grid_100_4096
    dets = np.abs(1.0 - 1j / (1 - 2j * lam))
    # det at lambda = 0 is 1 - i with modulus sqrt(2); the grid minimum is lower
    assert abs(dets[np.argmin(np.abs(lam))] - np.sqrt(2.0)) < 1e-12
    assert rep["min_abs_det_plus"] == pytest.approx(dets.min(), abs=2e-6)
    assert rep["min_abs_det_plus"] <= np.sqrt(2.0)
    # |det - 1| = 1/|1 - 2 i lam| which is about 1/200 at the window edge
    assert rep["edge_residual_plus"] <= 0.01
    assert rep["min_abs_det_minus"] == pytest.approx(1.0)
    # shifted lines stay inside the strip and keep the determinant away from 0
    assert rep["delta"] > 0
    for key, val in rep.items():
        if key.startswith("min_abs_det_plus_at_"):
            assert val > 0.3


def test_bounded_solution_against_ode_integrator(n2_random_pot, e1_disp):
    # independent oracle: march the ODE system from the far end with an
    # adaptive high-order integrator and compare boundary values
    from scipy.integrate import solve_ivp

    lam = 0.83
    A = np.array([1.0, -0.3 + 0.4j])
    B = np.array([0.5j, 0.9])
    X = 16.0
    xi = e1_disp.xi_arr
    from isphalf.forward import _full_profile

    def rhs(x, yri):
        y = yri[:4] + 1j * yri[4:]
        q = np.zeros((4, 4), complex)
        for r in range(4):
            for c in range(4):
                p = _full_profile(n2_random_pot, r, c)
                if not p.is_zero:
                    q[r, c] = p(np.array([x]))[0]
        dy = 1j * (lam * np.diag(xi) - q) @ y
        return np.concatenate([dy.real, dy.imag])

    amps = np.concatenate([A, B])
    y_end = amps * np.exp(1j * lam * xi * X)
    ode = solve_ivp(
        rhs, [X, 0.0], np.concatenate([y_end.real, y_end.imag]), rtol=1e-11, atol=1e-12
    )
    y0_ode = ode.y[:4, -1] + 1j * ode.y[4:, -1]
    sol = solve_bounded_solution(n2_random_pot, e1_disp, lam, A, B, step=0.005, x_max=X)
    got = np.concatenate([sol.y1[0], sol.y2[0]])
    assert np.abs(got - y0_ode).max() < 5e-6


def test_bounded_solution_tail_residual(n1_pot, n1_disp):
    sol = solve_bounded_solution(n1_pot, n1_disp, 0.7, [1.0], [1.0], step=0.01)
    assert np.isfinite(np.abs(sol.y).max())
    assert sol.tail_residual < 1e-10
