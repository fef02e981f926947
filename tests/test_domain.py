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
from isphalf.errors import SingularH, ValidationError
from isphalf.profiles import ExpSumProfile


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
