import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isphalf.domain import BoundaryMatrix, Dispersion
from isphalf.edge_coupled import EdgeCoupledSystem
from isphalf.errors import (
    DegenerateBoundaryPair,
    ValidationError,
    EdgeDecayViolation,
    FredholmSingular,
    InconsistentInputs,
    SingularScattering,
)
from isphalf import rh
from isphalf.forward import boundary_parts, kernel_transforms, scattering_matrix, solve_kernels, transmission_matrix
from isphalf.linefunc import Analyticity, BlockTransforms, LineMatrixFunction, make_grid
from isphalf.profiles import ExpSumProfile
from isphalf import projection
from isphalf.projection import (
    MODEL_W,
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    _si_rule,
    edge_indices,
    plus_mask,
    pole_basis,
    sine_integral,
    split_samples,
)
from isphalf.rh import (
    plemelj_split,
    plus_projector_matrix,
    recover_blocks,
    solvability_report,
    solve_regular_rh,
    split_residual,
)

from conftest import simple_pole


@pytest.fixture(scope="module")
def grid():
    return make_grid(100.0, 2 ** 14)


def _scalar(grid, vals, tag=None):
    return LineMatrixFunction(grid, np.asarray(vals, complex)[:, None, None], tag or Analyticity())


# -- additive split ----------------------------------------------------------


def test_split_zero(grid):
    p, m = plemelj_split(_scalar(grid, np.zeros(len(grid))))
    assert p.sup_norm() == 0.0 and m.sup_norm() == 0.0


def test_split_partial_fraction_fixture(grid):
    f = 1j / (grid + 1j) - 1j / (grid - 1j)
    p, m = plemelj_split(_scalar(grid, f))
    assert np.abs(p.values[:, 0, 0] - 1j / (grid + 1j)).max() < 1e-4
    assert np.abs(m.values[:, 0, 0] + 1j / (grid - 1j)).max() < 1e-4
    assert p.analyticity.kind == "plus" and m.analyticity.kind == "minus"
    np.testing.assert_allclose((p + m).values, _scalar(grid, f).values, atol=1e-12)


def test_split_exact_rational_path(grid):
    # the pole sum's Plemelj parts are known in closed form; the split of its
    # samples must reproduce them, on the fixture grid and on a coarser one
    f = simple_pole(-1j, 1j) + simple_pole(1j, -1j)
    for lam in (grid, make_grid(100.0, 2048)):
        plus, minus = split_samples(lam, f(lam))
        assert np.abs(plus - 1j / (lam + 1j)).max() < 1e-7
        assert np.abs(minus + 1j / (lam - 1j)).max() < 1e-7


def test_split_idempotent_on_plus_function(grid):
    f = _scalar(grid, 1j / (grid + 1j))
    p, m = plemelj_split(f, edge_tol=2e-2)
    assert np.abs(p.values - f.values).max() < 1e-5
    assert m.sup_norm() < 1e-5
    assert split_residual(f, "plus") < 1e-5


def test_split_linearity(grid):
    rng = np.random.default_rng(9)
    f = 0.3 / (grid + 1.4j) + 0.2j / (grid - 2.2j) ** 2
    g = -0.1j / (grid - 0.9j) + 0.25 / (grid + 3j)
    alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fa, fm = plemelj_split(_scalar(grid, f), edge_tol=1e-2)
    ga, gm = plemelj_split(_scalar(grid, g), edge_tol=1e-2)
    ca, cm = plemelj_split(_scalar(grid, alpha * f + beta * g), edge_tol=1e-2)
    np.testing.assert_allclose(
        ca.values, alpha * fa.values + beta * ga.values, atol=1e-11
    )
    np.testing.assert_allclose(
        cm.values, alpha * fm.values + beta * gm.values, atol=1e-11
    )


def _decaying_columns(rng, grid, cols):
    """Columns of three random simple or double poles, off the axis on either side."""
    vals = np.zeros((len(grid), cols), dtype=complex)
    for c in range(cols):
        for _ in range(3):
            pole = complex(rng.uniform(-5.0, 5.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
            vals[:, c] += complex(*rng.standard_normal(2)) / (grid - pole) ** int(rng.integers(1, 3))
    return vals


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([64, 128, 256]), cols=st.integers(1, 3))
def test_split_samples_linear_and_complete(seed, n, cols):
    # the matrix-free RH solver treats the split as a linear operator
    rng = np.random.default_rng(seed)
    grid = make_grid(20.0, n)
    f, g = _decaying_columns(rng, grid, cols), _decaying_columns(rng, grid, cols)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fp, fm = split_samples(grid, f)
    gp, gm = split_samples(grid, g)
    cp, cm = split_samples(grid, a * f + b * g)
    scale = abs(a) * max(np.abs(fp).max(), np.abs(fm).max()) + abs(b) * max(np.abs(gp).max(), np.abs(gm).max())
    assert np.abs(cp - (a * fp + b * gp)).max() <= 1e-12 * scale
    assert np.abs(cm - (a * fm + b * gm)).max() <= 1e-12 * scale
    assert np.abs(fp + fm - f).max() <= 1e-12 * np.abs(f).max()


def reference_split_model(grid, flat):
    """The split model (plus, minus pole coefficients) as one call built it
    before the grid model was cached: the edge fit, the probe densities and
    the probe fit formed anew, the fits by LAPACK least squares."""
    lam_max = float(max(abs(grid[0]), abs(grid[-1])))
    step = float(grid[1] - grid[0])
    idx = edge_indices(len(grid))
    basis = pole_basis(grid[idx], 0.0)
    scale = np.abs(basis).max(axis=0)
    c = np.linalg.lstsq(basis / scale, flat[idx], rcond=None)[0] / scale[:, None]
    c1, c2, c3 = c[0], c[1], c[2]
    w = MODEL_W
    f_right = c1 / lam_max + c2 / lam_max ** 2 + c3 / lam_max ** 3
    window = step * (flat.sum(axis=0) - 0.5 * flat[0] + 0.5 * f_right)
    i0 = (window + 2.0 * c2 / lam_max) / (2.0 * np.pi)

    t = (2.0 / lam_max) * np.arange(1, 8)
    phases = np.exp(-1j * np.outer(grid, t))
    window = step * (
        phases.T @ flat - 0.5 * np.outer(phases[0], flat[0]) + 0.5 * np.outer(np.exp(-1j * lam_max * t), f_right)
    )
    rest = 0.5 * np.pi - sine_integral(lam_max * t)
    tail1 = -2j * rest
    tail2 = 2.0 * (np.cos(lam_max * t) / lam_max - t * rest)
    tail3 = -2j * (np.sin(lam_max * t) / (2.0 * lam_max ** 2) + 0.5 * t * (np.cos(lam_max * t) / lam_max - t * rest))
    tails = tail1[:, None] * c1 + tail2[:, None] * c2 + tail3[:, None] * c3
    phi = (window + tails) / (2.0 * np.pi)
    vand = np.vander(t, 4, increasing=True)
    scale_t = np.abs(vand).max(axis=0)
    fit = np.linalg.lstsq(vand / scale_t, phi, rcond=None)[0] / scale_t[:, None]

    l1p, l2p, l3p = 1j * i0 + 0.5 * c1, -fit[1], -2j * fit[2]
    a1 = l1p
    g1 = c1 - a1
    a2 = l2p + 1j * w * a1
    g2 = (c2 - l2p) - 1j * w * g1
    a3 = l3p + 2j * w * a2 + w * w * a1
    g3 = (c3 - l3p) - 2j * w * g2 + w * w * g1
    return np.stack([a1, a2, a3]), np.stack([g1, g2, g3])


@pytest.mark.parametrize("shift", [0, 2, -1])
@pytest.mark.parametrize("n, lam_max", [(16, 4.0), (64, 10.0), (1024, 50.0), (4096, 100.0)])
def test_cached_split_model_matches_the_per_call_reference(n, lam_max, shift):
    # the split's parts from the cached grid model against those from the
    # reference model, on pole sums and on grids shifted by shift N / 16
    # whole steps (the edge samples stay off lambda = 0)
    grid = make_grid(lam_max, n) + (shift * n // 16) * (2.0 * lam_max / n)
    vals = _decaying_columns(np.random.default_rng(n + shift), grid, 3)
    a, g = reference_split_model(grid, vals)
    mplus = pole_basis(grid, -1j * MODEL_W) @ a
    spec = np.fft.fft(vals - (mplus + pole_basis(grid, 1j * MODEL_W) @ g), axis=0)
    want = np.fft.ifft(spec * plus_mask(n)[:, None], axis=0) + mplus
    plus, minus = split_samples(grid, vals)
    assert np.abs(plus - want).max() <= 1e-13 * np.abs(vals).max()
    assert np.abs(minus - (vals - want)).max() <= 1e-13 * np.abs(vals).max()


def test_grid_model_is_keyed_on_the_grid_bytes():
    # a split reads the model of exactly the grid it was given, however
    # many grids of the same length came before; the model is read-only
    base = make_grid(50.0, 256)
    grids = (base, base + (base[1] - base[0]), np.nextafter(base, np.inf), base.copy())
    for grid in grids:
        model = projection._grid_model(grid)
        assert np.array_equal(model.plus_pole, 1.0 / (grid + 1j * MODEL_W))
        assert not any(part.flags.writeable for part in model[1:])
    assert projection._grid_model(grids[0]) is projection._grid_model(grids[3])


@pytest.mark.parametrize(
    "grid", [make_grid(100.0, 4), make_grid(100.0, 8), (200.0 / 12) * np.arange(-6, 6), make_grid(100.0, 16) + 37.5]
)
def test_split_refuses_a_grid_without_a_tail_fit(grid):
    # fewer than 12 points, or an edge sample at lambda = 0
    with pytest.raises(ValidationError, match="lambda grid"):
        split_samples(grid, 1.0 / (grid - 1j))


def test_si_rule_is_leggauss_40_bit_for_bit():
    # the written-out half of the rule is numpy's own, which is exactly
    # symmetric, and _si_rule maps the mirrored whole to [0, 1]
    u, w = np.polynomial.legendre.leggauss(40)
    half_u, half_w = np.array(_LEGENDRE_NODES), np.array(_LEGENDRE_WEIGHTS)
    assert np.concatenate([-half_u[::-1], half_u]).tobytes() == u.tobytes()
    assert np.concatenate([half_w[::-1], half_w]).tobytes() == w.tobytes()
    nodes, weights = _si_rule()
    assert nodes.tobytes() == (0.5 * (u + 1.0)).tobytes()
    assert weights.tobytes() == (0.5 * w).tobytes()


def test_sine_integral_matches_scipy():
    from scipy.special import sici

    x = np.linspace(0.0, 14.0, 2801)
    assert np.abs(sine_integral(x) - sici(x)[0]).max() <= 1e-13


def test_split_edge_guard(grid):
    f = _scalar(grid, np.full(len(grid), 0.1))
    with pytest.raises(EdgeDecayViolation):
        plemelj_split(f)


# -- regular factorization ---------------------------------------------------


@pytest.fixture(scope="module")
def grid4096():
    return make_grid(100.0, 4096)


def test_rh_identity(grid4096):
    s = _scalar(grid4096, np.ones(len(grid4096)))
    p, m, _ = solve_regular_rh(s)
    assert p.sup_norm() < 1e-12 and m.sup_norm() < 1e-12


def test_rh_scalar_closed_form(grid4096):
    lam = grid4096
    s = _scalar(lam, (1 - 2j * lam) / (1 - 2j * lam - 1j), Analyticity("strip", 0.25))
    p, m, _ = solve_regular_rh(s, edge_tol=2e-2)
    assert np.abs(p.values[:, 0, 0] + 1j / (1 - 2j * lam)).max() < 1e-6
    assert m.sup_norm() < 1e-6
    resid = np.abs(p.plus_identity() * s.values - m.plus_identity()).max()
    assert resid < 1e-12
    assert p.analyticity.kind == "plus" and m.analyticity.kind == "minus"


def _synthetic_pair(grid, m, seed, scale=0.15):
    rng = np.random.default_rng(seed)

    def part(sign):
        vals = np.zeros((len(grid), m, m), complex)
        for i in range(m):
            for j in range(m):
                c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2 * m)
                pole = rng.uniform(-2, 2) + sign * 1j * rng.uniform(0.9, 2.0)
                vals[:, i, j] = c / (grid - pole)
        return vals

    return part(-1.0), part(+1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_rh_recovers_synthetic_factors(grid4096, m):
    ap, am = _synthetic_pair(grid4096, m, seed=100 + m)
    eye = np.eye(m)
    s_vals = np.linalg.solve(eye + ap, eye + am)
    s = LineMatrixFunction(make_grid(100.0, 2048), s_vals[::2], Analyticity("strip", 0.5))
    got_p, got_m, _ = solve_regular_rh(s, edge_tol=2e-2)
    assert np.abs(got_p.values - ap[::2]).max() < 1e-5
    assert np.abs(got_m.values - am[::2]).max() < 1e-5
    resid = np.abs(got_p.plus_identity() @ s.values - got_m.plus_identity()).max()
    assert resid < 1e-12
    # one-sidedness of the returned parts is the analyticity surrogate
    assert split_residual(got_p, "plus") < 1e-5
    assert split_residual(got_m, "minus") < 1e-5


def dense_regular_rh(s: LineMatrixFunction) -> np.ndarray:
    """A_plus from the dense (mN)^2 collocation system, solved directly.

    Block (c, b) is P diag(g[:, b, c]) + delta_bc I with P the N x N
    edge-corrected plus projector; the m rows k of A_plus are the m
    right-hand sides.
    """
    grid, m, n = s.grid, s.m, len(s.grid)
    g = s.values - np.eye(m)
    proj = plus_projector_matrix(grid)
    big = np.zeros((m * n, m * n), dtype=complex)
    for c in range(m):
        for b in range(m):
            big[c * n : (c + 1) * n, b * n : (b + 1) * n] = proj * g[:, b, c][None, :] + (b == c) * np.eye(n)
    rhs = -np.concatenate([proj @ g[:, :, c] for c in range(m)])  # (m n, m): column k is row k of A_plus
    return np.linalg.solve(big, rhs).reshape(m, n, m).transpose(1, 2, 0)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2, 3]), n=st.sampled_from([64, 128, 256]))
def test_rh_gmres_matches_dense_solve(seed, m, n):
    grid = make_grid(20.0, n)
    ap, am = _synthetic_pair(grid, m, seed, scale=0.1)
    eye = np.eye(m)
    s = LineMatrixFunction(grid, np.linalg.solve(eye + ap, eye + am))
    got_p, _, diag = solve_regular_rh(s, edge_tol=5e-2)
    want = dense_regular_rh(s)
    assert np.abs(got_p.values - want).max() <= 1e-10 * np.abs(want).max()
    history = diag["gmres_residuals"]
    assert history[-1] <= 1e-13 and len(history) < 50


def test_rh_m4_large_grid():
    grid = make_grid(100.0, 4096)
    ap, am = _synthetic_pair(grid, 4, seed=44)
    eye = np.eye(4)
    s = LineMatrixFunction(grid, np.linalg.solve(eye + ap, eye + am))
    got_p, got_m, diag = solve_regular_rh(s, edge_tol=2e-2)
    assert np.abs(got_p.values - ap).max() < 1e-5
    assert np.abs(got_m.values - am).max() < 1e-5
    assert diag["plus_wrong_side_content"] < 1e-5 and diag["minus_wrong_side_content"] < 1e-5


def test_rh_singular_scattering_guard(grid4096):
    lam = grid4096
    vals = lam / (lam - 1j)  # vanishes at lambda = 0
    with pytest.raises(SingularScattering):
        solve_regular_rh(_scalar(lam, vals), edge_tol=2e-2)


@pytest.mark.parametrize("winding", [+1, -1])
def test_rh_detects_nonzero_index(winding):
    grid = make_grid(100.0, 1024)
    vals = (grid + winding * 1j) / (grid - winding * 1j)
    with pytest.raises(FredholmSingular) as exc:
        solve_regular_rh(_scalar(grid, vals), edge_tol=5e-2)
    assert np.isfinite(exc.value.residual)


def test_rh_stalled_gmres_stops_early(monkeypatch):
    # winding +1: the residual stays near 0.79 from the first restart cycle
    # on, so the solve ends after a cycle that fails to halve it instead of
    # spending all GMRES_CYCLES (each cycle is GMRES_RESTART + 1 splits)
    calls = []

    def counted(*args):
        calls.append(1)
        return split_samples(*args)

    monkeypatch.setattr(rh, "split_samples", counted)
    grid = make_grid(100.0, 1024)
    vals = (grid + 1j) / (grid - 1j)
    with pytest.raises(FredholmSingular):
        solve_regular_rh(_scalar(grid, vals), edge_tol=5e-2)
    assert len(calls) <= 2 * (rh.GMRES_RESTART + 1) + 1


def test_stalled_gmres_history_ends_at_the_true_residual():
    # winding +1: the second restart cycle starts from a true residual above
    # half the first cycle's start, so the solve stops there; the history's
    # last entry, which FredholmSingular reports, is the residual of the x
    # returned, not the first cycle's rotated estimate
    grid = make_grid(100.0, 1024)
    g = ((grid + 1j) / (grid - 1j) - 1.0)[:, None, None]

    def matvec(x):
        return x + split_samples(grid, x @ g)[0]

    rhs = -split_samples(grid, g)[0]
    x, history = rh._gmres(matvec, rhs)
    true = np.linalg.norm(rhs - matvec(x)) / np.linalg.norm(rhs)
    assert true > 1.0
    assert abs(history[-1] - true) <= 1e-12 * true
    with pytest.raises(FredholmSingular) as exc:
        solve_regular_rh(_scalar(grid, g[:, 0, 0] + 1.0), edge_tol=5e-2)
    assert exc.value.residual == history[-1]


def reference_gmres(matvec, rhs):
    """Restarted GMRES as it was before Givens rotations: each iteration
    solves the Hessenberg least-squares problem anew with LAPACK and takes
    its residual explicitly; a cycle that does not halve its starting
    residual ends the solve."""
    bnorm = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    history = []
    basis = np.empty((rh.GMRES_RESTART + 1,) + rhs.shape, dtype=complex)
    for _ in range(rh.GMRES_CYCLES):
        r = rhs - matvec(x)
        beta = np.linalg.norm(r)
        basis[0] = r / beta
        hess = np.zeros((rh.GMRES_RESTART + 1, rh.GMRES_RESTART), dtype=complex)
        e1 = np.zeros(rh.GMRES_RESTART + 1, dtype=complex)
        e1[0] = beta
        for j in range(rh.GMRES_RESTART):
            w = matvec(basis[j])
            for i in range(j + 1):
                hess[i, j] = np.vdot(basis[i], w)
                w -= hess[i, j] * basis[i]
            hess[j + 1, j] = np.linalg.norm(w)
            h, rhs_j = hess[: j + 2, : j + 1], e1[: j + 2]
            y = np.linalg.lstsq(h, rhs_j, rcond=None)[0]
            history.append(float(np.linalg.norm(h @ y - rhs_j) / bnorm))
            if history[-1] <= rh.GMRES_TOL or hess[j + 1, j] == 0.0:
                break
            basis[j + 1] = w / hess[j + 1, j]
        x = x + np.tensordot(y, basis[: len(y)], axes=1)
        if history[-1] <= rh.GMRES_TOL or history[-1] > 0.5 * beta / bnorm:
            break
    return x, history


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spread", [3.0, 30.0])
def test_givens_gmres_matches_the_lstsq_reference(seed, spread):
    # regular non-normal systems on (40, 3) arrays: eigenvalues spread over
    # [1, spread] converge within one restart cycle (3) or take two (30)
    rng = np.random.default_rng(seed)
    size = 120
    q = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    upper = np.triu(0.3 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))), 1)
    mat = q @ (np.diag(np.linspace(1.0, spread, size)) + upper / np.sqrt(size)) @ q.conj().T
    rhs = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).reshape(40, 3)

    def matvec(x):
        return (mat @ x.ravel()).reshape(x.shape)

    x, history = rh._gmres(matvec, rhs)
    want_x, want_history = reference_gmres(matvec, rhs)
    assert len(history) == len(want_history)
    assert (len(history) > rh.GMRES_RESTART) == (spread > 10.0)
    # entries are relative to |rhs|; below about 1e-10 the reference's own
    # explicit residual norm carries rounding of some 1e-17 |rhs|
    history, want_history = np.array(history), np.array(want_history)
    assert np.abs(history - want_history).max() <= 1e-12
    big = want_history > 1e-8
    assert np.all(np.abs(history - want_history)[big] <= 1e-12 * want_history[big])
    assert np.abs(x - want_x).max() <= 1e-12 * np.abs(want_x).max()


# -- block recovery ----------------------------------------------------------


def _lmf(grid, vals, kind):
    return LineMatrixFunction(grid, vals, Analyticity(kind, 0.25))


def test_recover_blocks_zero(grid4096):
    z = np.zeros((len(grid4096), 2, 2), complex)
    b1 = BoundaryMatrix(np.eye(2))
    b2 = BoundaryMatrix(2.0 * np.eye(2))
    (a11m, a12p, a21m, a22p), _ = recover_blocks(
        _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
        _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
        b1, b2,
    )
    for f in (a11m, a12p, a21m, a22p):
        assert f.sup_norm() == 0.0


def test_recover_blocks_scalar_closed_form(grid4096):
    # forward-built parts for the single-exponential fixture at two boundaries
    lam = grid4096
    a12p_true = 1j / (1 - 2j * lam)
    fac = []
    for h in (1.0, 2.0):
        plus = _lmf(lam, (-h * a12p_true)[:, None, None], "plus")
        minus = _lmf(lam, np.zeros((len(lam), 1, 1), complex), "minus")
        fac.append((plus, minus))
    (a11m, a12p, a21m, a22p), _ = recover_blocks(
        fac[0][0], fac[0][1], fac[1][0], fac[1][1],
        BoundaryMatrix(np.array([[1.0]])), BoundaryMatrix(np.array([[2.0]])),
    )
    assert np.abs(a12p.values[:, 0, 0] - a12p_true).max() < 1e-12
    for f in (a11m, a21m, a22p):
        assert f.sup_norm() < 1e-12


def test_recover_blocks_degenerate_pair(grid4096):
    z = np.zeros((len(grid4096), 1, 1), complex)
    b = BoundaryMatrix(np.array([[1.0]]))
    with pytest.raises(DegenerateBoundaryPair):
        recover_blocks(
            _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
            _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
            b, b,
        )


def test_recover_blocks_inconsistent_inputs(grid4096):
    # a "plus part" carrying lower half-plane analytic content cannot come
    # from the same potential as a genuine one; the recovered A12 block then
    # has content on the wrong side of the axis
    lam = grid4096
    n = len(lam)
    zero = np.zeros((n, 1, 1), complex)
    plus_bump = (0.3 / (lam + 1j))[:, None, None]
    minus_bump = (0.3 / (lam - 1j))[:, None, None]
    with pytest.raises(InconsistentInputs, match="wrong-side content"):
        recover_blocks(
            _lmf(lam, plus_bump, "plus"), _lmf(lam, zero, "minus"),
            _lmf(lam, minus_bump, "plus"), _lmf(lam, zero, "minus"),
            BoundaryMatrix(np.array([[1.0]])), BoundaryMatrix(np.array([[3.0]])),
        )


@pytest.fixture(scope="module")
def edge_blocks():
    """Forward block transforms of the edge-coupled n = 2 potential with
    c = e^{-x} in its last first-row entry, and two boundary matrices."""
    disp = Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    pot = EdgeCoupledSystem(disp, c_first=(None, ExpSumProfile(((1.0, 1.0),)))).as_potential()
    kernels = solve_kernels(pot, disp, step=0.02, x_max=16.0, tau_max=36.0)
    h1 = BoundaryMatrix(np.array([[1.0, 0.3], [0.2, 1.0]]))
    h2 = BoundaryMatrix(np.array([[2.0, -0.4], [0.1, 3.0]]))
    return kernel_transforms(kernels, disp, make_grid(64.0, 2048)), h1, h2


def test_recovered_blocks_give_the_whole_axis_transmission(edge_blocks):
    # the reduction of the half-axis problem to the whole axis: the blocks
    # recovered from two boundary factorizations assemble the same P and Pi
    blocks, h1, h2 = edge_blocks
    factors = []
    for bnd in (h1, h2):
        plus, minus, _ = solve_regular_rh(scattering_matrix(*boundary_parts(blocks, bnd)), edge_tol=2e-2)
        factors += [plus, minus]
    recovered, _ = recover_blocks(*factors, h1, h2)
    assert isinstance(recovered, BlockTransforms)
    for got, want in zip(transmission_matrix(recovered), transmission_matrix(blocks)):
        assert np.abs(got.values - want.values).max() <= 1e-5


# -- solvability diagnostics -------------------------------------------------


def test_solvability_identity(grid4096):
    n = len(grid4096)
    s = LineMatrixFunction(grid4096, np.broadcast_to(np.eye(2), (n, 2, 2)).copy())
    rep = solvability_report(s)
    assert rep["min_abs_det"] == pytest.approx(1.0)
    assert rep["re_part"] == "positive"
    assert rep["nonsingular"] is True
    assert rep["edge_residual"] == 0.0


def test_solvability_scalar_fixture(grid4096):
    lam = grid4096
    vals = (1 - 2j * lam) / (1 - 2j * lam - 1j)
    rep = solvability_report(_scalar(lam, vals))
    assert rep["min_abs_det"] == pytest.approx(np.abs(vals).min(), rel=1e-12)
    # the value at lambda = 0 bounds the minimum from above
    assert rep["min_abs_det"] <= 1 / np.sqrt(2.0) + 1e-12
    assert rep["nonsingular"] is True
    assert rep["definite_condition"] is True


def test_solvability_flags_singular_jump(grid4096):
    lam = grid4096
    vals = lam / (lam - 1j)
    rep = solvability_report(_scalar(lam, vals))
    assert rep["nonsingular"] is False
    assert rep["argmin_lambda"] == pytest.approx(0.0, abs=1e-12)
