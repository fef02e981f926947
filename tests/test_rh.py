import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isphalf.domain import BoundaryMatrix
from isphalf.errors import (
    DegenerateBoundaryPair,
    EdgeDecayViolation,
    FredholmSingular,
    InconsistentInputs,
    SingularScattering,
)
from isphalf import rh
from isphalf.linefunc import Analyticity, LineMatrixFunction, make_grid
from isphalf.rational import RationalFunction, RationalMatrix, simple_pole
from isphalf.projection import sine_integral, split_samples
from isphalf.rh import (
    plemelj_split,
    plus_projector_matrix,
    recover_blocks,
    solvability_report,
    solve_regular_rh,
    solve_regular_rh_rational,
    split_residual,
)


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
    f = simple_pole(-1j, 1j) + simple_pole(1j, -1j)
    assert np.abs(f.plus_part()(grid) - 1j / (grid + 1j)).max() < 1e-15
    assert np.abs(f.minus_part()(grid) + 1j / (grid - 1j)).max() < 1e-15


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


def test_rh_rational_neumann_path(grid4096):
    a_plus = RationalMatrix([[simple_pole(-1.5j, 0.15)]])
    a_minus = RationalMatrix([[simple_pole(1.2j, 0.1 + 0.1j)]])
    inv_plus = RationalFunction(1.0, (((-0.15 - 1.5j), 1, -0.15),))  # (1 + a_plus)^{-1}
    s_rat = RationalMatrix(
        [[(a_minus.entries[0][0] - a_plus.entries[0][0]) * inv_plus + 1.0]]
    )
    got_p, got_m, rat_p, rat_m = solve_regular_rh_rational(s_rat, grid4096)
    np.testing.assert_allclose(got_p.values, a_plus.evaluate(grid4096), atol=1e-12)
    np.testing.assert_allclose(got_m.values, a_minus.evaluate(grid4096), atol=1e-12)
    s_vals = s_rat.evaluate(grid4096)
    resid = np.abs(got_p.plus_identity() @ s_vals - got_m.plus_identity()).max()
    assert resid < 1e-8


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


# -- block recovery ----------------------------------------------------------


def _lmf(grid, vals, kind):
    return LineMatrixFunction(grid, vals, Analyticity(kind, 0.25))


def test_recover_blocks_zero(grid4096):
    z = np.zeros((len(grid4096), 2, 2), complex)
    b1 = BoundaryMatrix(np.eye(2))
    b2 = BoundaryMatrix(2.0 * np.eye(2))
    (a11m, a12p, a21m, a22p), diag = recover_blocks(
        _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
        _lmf(grid4096, z, "plus"), _lmf(grid4096, z, "minus"),
        b1, b2,
    )
    for f in (a11m, a12p, a21m, a22p):
        assert f.sup_norm() == 0.0
    assert diag["mismatch_a22_plus"] == 0.0


def test_recover_blocks_scalar_closed_form(grid4096):
    # forward-built parts for the single-exponential fixture at two boundaries
    lam = grid4096
    a12p_true = 1j / (1 - 2j * lam)
    fac = []
    for h in (1.0, 2.0):
        plus = _lmf(lam, (-h * a12p_true)[:, None, None], "plus")
        minus = _lmf(lam, np.zeros((len(lam), 1, 1), complex), "minus")
        fac.append((plus, minus))
    (a11m, a12p, a21m, a22p), diag = recover_blocks(
        fac[0][0], fac[0][1], fac[1][0], fac[1][1],
        BoundaryMatrix(np.array([[1.0]])), BoundaryMatrix(np.array([[2.0]])),
    )
    assert np.abs(a12p.values[:, 0, 0] - a12p_true).max() < 1e-12
    for f in (a11m, a21m, a22p):
        assert f.sup_norm() < 1e-12
    assert diag["mismatch_a22_plus"] < 1e-14


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
    with pytest.raises(InconsistentInputs):
        recover_blocks(
            _lmf(lam, plus_bump, "plus"), _lmf(lam, zero, "minus"),
            _lmf(lam, minus_bump, "plus"), _lmf(lam, zero, "minus"),
            BoundaryMatrix(np.array([[1.0]])), BoundaryMatrix(np.array([[3.0]])),
        )


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
