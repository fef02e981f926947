import numpy as np
import pytest

from isphalf.domain import (
    KERNEL_ALLOWED,
    KERNEL_BLOCKS,
    BoundaryMatrix,
    Dispersion,
    TriangularPotential,
    block_mask,
    channel_table,
    kernel_decay_exponent,
    validate_potential,
)
from isphalf.errors import NumericalError, SingularFactor, SingularH, SingularP, SingularScattering, ValidationError
from isphalf.forward import BlockTransforms, scattering_matrix, transmission_matrix
from isphalf.linefunc import LineMatrixFunction, make_grid
from isphalf.profiles import ExpSumProfile
from isphalf.rh import solve_regular_rh


def test_dispersion_validation():
    Dispersion(1, (-1.0, 1.0))
    Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    with pytest.raises(ValidationError):
        Dispersion(1, (1.0, -1.0))
    with pytest.raises(ValidationError):
        Dispersion(2, (-2.0, -1.0, 1.0))
    with pytest.raises(ValidationError):
        Dispersion(2, (-2.0, -1.0, -0.5, 2.0))
    with pytest.raises(ValidationError):
        Dispersion(2, (-2.0, -2.0, 1.0, 2.0))


def test_decay_exponent_examples():
    assert kernel_decay_exponent(Dispersion(1, (-1.0, 1.0))) == pytest.approx(0.5)
    assert kernel_decay_exponent(Dispersion(2, (-2.0, -1.0, 1.0, 2.0))) == pytest.approx(0.5)


def test_decay_exponent_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        neg = -np.sort(rng.uniform(0.2, 4.0, n))[::-1]
        pos = np.sort(rng.uniform(0.2, 4.0, n))
        xi = tuple(np.concatenate([np.sort(neg), pos]))
        d = Dispersion(n, xi)
        scale = float(rng.uniform(0.1, 10.0))
        ds = Dispersion(n, tuple(scale * v for v in xi))
        assert kernel_decay_exponent(ds) == pytest.approx(kernel_decay_exponent(d), rel=1e-12)


def _random_dispersion(rng, n):
    neg = -np.sort(rng.uniform(0.2, 4.0, n))[::-1]
    pos = np.sort(rng.uniform(0.2, 4.0, n))
    return Dispersion(n, tuple(np.concatenate([neg, pos])))


def _four_family_exponent(disp):
    """The decay exponent as a loop over four families of speed ratios,
    kept verbatim from before the channel table owned the formula."""
    n = disp.n
    xi = disp.xi_arr
    ratios = []
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if k > j:  # strictly lower family
                ratios.append(xi[j - 1] / (xi[j - 1] - xi[k - 1]))
            if k < j:  # strictly upper family
                ratios.append(xi[n + j - 1] / (xi[n + j - 1] - xi[n + k - 1]))
            if k + j > n:  # lower anti family
                ratios.append(xi[n + j - 1] / (xi[n + j - 1] - xi[k - 1]))
            if k + j < n + 2:  # upper anti family
                ratios.append(xi[j - 1] / (xi[j - 1] - xi[n + k - 1]))
    return min(ratios)


def test_decay_exponent_matches_four_families():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = _random_dispersion(rng, int(rng.integers(1, 5)))
        assert kernel_decay_exponent(d) == _four_family_exponent(d)


def test_channel_table_is_the_admissible_pattern():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        d = _random_dispersion(rng, n)
        chans = channel_table(d)
        assert len(chans) == 2 * n * (n + 1)
        want = {(name, k, j) for name in KERNEL_BLOCKS for k in range(n) for j in range(n) if KERNEL_ALLOWED[name](k, j, n)}
        assert {(c.block, c.k, c.j) for c in chans} == want
        for c in chans:
            rb, cb = KERNEL_BLOCKS[c.block]
            assert (c.row_speed, c.col_speed) == (d.xi[rb * n + c.k], d.xi[cb * n + c.j])
            if rb == cb and c.k == c.j:
                assert c.rho is None
            else:
                assert c.rho == c.col_speed / (c.col_speed - c.row_speed) > 0


def test_decay_exponent_symmetric_pairs_below_one():
    # opposite-sign speed ratios force the anti-family minima to at most 1
    for xi in [(-1.0, 1.0), (-3.0, -1.0, 1.0, 3.0), (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)]:
        d = Dispersion(len(xi) // 2, xi)
        assert kernel_decay_exponent(d) <= 1.0 + 1e-12


def test_zero_potential_valid():
    for n in (1, 2, 3):
        assert validate_potential(TriangularPotential(n)) == []


def test_n1_antidiagonal_entries_allowed():
    e = ExpSumProfile(((1.0, 1.0),))
    pot = TriangularPotential(1, q12=[[e]], q21=[[e]])
    assert validate_potential(pot) == []


def test_strict_triangle_violation_named():
    e = ExpSumProfile(((1.0, 1.0),))
    pot = TriangularPotential(2, q11=[[None, e], [None, None]])
    report = validate_potential(pot)
    assert len(report) == 1
    assert "q11(1,2)" in report[0]


def test_envelope_violation_reported():
    e = ExpSumProfile(((5.0, 0.5),))  # amplitude 5 exceeds C = 1, rate 0.5 < eps
    pot = TriangularPotential(1, q12=[[e]], envelope=(1.0, 1.0))
    report = validate_potential(pot)
    assert len(report) == 1 and "envelope" in report[0]


def test_admissible_entry_count_is_2n_squared():
    for n in range(1, 6):
        assert sum(int(block_mask(name, n).sum()) for name in ("q11", "q12", "q21", "q22")) == 2 * n * n


def test_valid_iff_forced_zeros_are_zero():
    # every admissible singleton passes; every forbidden singleton fails
    e = ExpSumProfile(((0.5, 1.5),))
    n = 3
    for name in ("q11", "q12", "q21", "q22"):
        mask = block_mask(name, n)
        for i in range(n):
            for j in range(n):
                rows = [[None] * n for _ in range(n)]
                rows[i][j] = e
                pot = TriangularPotential(n, **{name: rows})
                report = validate_potential(pot)
                if mask[i, j]:
                    assert report == []
                else:
                    assert len(report) == 1


def test_boundary_matrix_determinant_guard():
    BoundaryMatrix(np.eye(2))
    with pytest.raises(SingularH):
        BoundaryMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))


def _with_det(grid, dets, m):
    """(N, m, m) identities whose (1, 1) entry is dets, so |det| is |dets|."""
    vals = np.tile(np.eye(m, dtype=complex), (len(grid), 1, 1))
    vals[:, 0, 0] = dets
    return LineMatrixFunction(grid, vals)


def _scattering(grid, dets):
    zero = LineMatrixFunction(grid, np.zeros((len(grid), 2, 2)))
    return scattering_matrix(LineMatrixFunction(grid, _with_det(grid, dets, 2).values - np.eye(2)), zero)


def _transmission(grid, dets):
    zero = LineMatrixFunction(grid, np.zeros((len(grid), 1, 1)))
    return transmission_matrix(BlockTransforms(_with_det(grid, dets - 1.0, 1), zero, zero, zero))


# each lambda-grid determinant guard, with matrices of the given determinants
GRID_GUARDS = {
    "scattering_matrix": (SingularFactor, "det(I + A_plus)", _scattering),
    "transmission_matrix": (SingularP, "det P", _transmission),
    "solve_regular_rh": (SingularScattering, "det S", lambda grid, dets: solve_regular_rh(_with_det(grid, dets, 2))),
}


@pytest.mark.parametrize("guard", GRID_GUARDS)
def test_grid_determinant_guards_name_the_worst_point(guard):
    error, determinant, call = GRID_GUARDS[guard]
    grid = make_grid(10.0, 64)
    dets = np.ones(len(grid), dtype=complex)
    dets[5] = 8e-11  # below SINGULARITY_TOL, but not the least
    dets[40] = -3e-12j
    with pytest.raises(error) as exc:
        call(grid, dets)
    assert exc.value.lam == grid[40]
    assert exc.value.value == pytest.approx(3e-12, rel=1e-12)
    assert str(exc.value) == f"|{determinant}| = {exc.value.value:.3e} at lambda = {grid[40]:.6g}"
    dets[5] = dets[40] = 2e-10  # above SINGULARITY_TOL everywhere
    try:
        call(grid, dets)
    except error:
        pytest.fail("the guard refused determinants above SINGULARITY_TOL")
    except NumericalError:
        pass  # a later step of the solve may still refuse these matrices


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("guard", GRID_GUARDS)
def test_grid_determinant_guards_count_a_nan_as_singular(guard):
    error, _, call = GRID_GUARDS[guard]
    grid = make_grid(10.0, 64)
    dets = np.ones(len(grid), dtype=complex)
    dets[40] = np.nan
    with pytest.raises(error) as exc:
        call(grid, dets)
    assert exc.value.lam == grid[40] and np.isnan(exc.value.value)
