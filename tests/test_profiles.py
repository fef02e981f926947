import numpy as np
import pytest

from isphalf.errors import ValidationError
from isphalf.profiles import ExpSumProfile, SampledProfile, ZERO_PROFILE, as_profile
from isphalf.quadrature import _m0, _m1


def test_expsum_evaluation_and_transform():
    p = ExpSumProfile(((2.0, 1.0), (0.5j, 3.0)))
    x = np.linspace(0, 5, 11)
    np.testing.assert_allclose(p(x), 2.0 * np.exp(-x) + 0.5j * np.exp(-3 * x))
    z = np.array([0.0, 1.0, -4.0, 2.0 + 0.3j])
    want = 2.0 / (1.0 - 1j * z) + 0.5j / (3.0 - 1j * z)
    np.testing.assert_allclose(p.halfline_transform(z), want, rtol=1e-14)


def test_expsum_incomplete_transform():
    p = ExpSumProfile(((1.0, 1.0),))
    z = np.array([0.7, -2.0])
    x0 = 1.5
    want = np.exp(-(1.0 - 1j * z) * x0) / (1.0 - 1j * z)
    np.testing.assert_allclose(p.halfline_transform_from(x0, z), want, rtol=1e-14)


def test_expsum_requires_positive_rates():
    with pytest.raises(ValidationError):
        ExpSumProfile(((1.0, -0.5),))


def test_zero_profile():
    assert ZERO_PROFILE.is_zero
    assert as_profile(None) is ZERO_PROFILE
    np.testing.assert_array_equal(ZERO_PROFILE(np.arange(3.0)), np.zeros(3))


def test_sampled_matches_expsum():
    x = np.arange(0, 30.0, 0.01)
    samp = SampledProfile(0.01, np.exp(-x), tail_rate=1.0)
    probe = np.linspace(0, 8, 37)
    np.testing.assert_allclose(samp(probe), np.exp(-probe), atol=2e-5)
    z = np.array([0.0, 3.0, -10.0])
    np.testing.assert_allclose(samp.halfline_transform(z), 1.0 / (1.0 - 1j * z), atol=5e-5)


def test_sampled_tail_extension():
    x = np.arange(0, 2.0 + 1e-9, 0.5)
    samp = SampledProfile(0.5, np.exp(-x), tail_rate=2.0)
    val = samp(np.array([4.0]))[0]
    assert val == pytest.approx(np.exp(-2.0) * np.exp(-2.0 * 2.0))


def reference_halfline_transform_from(profile, x0, z):
    """The scalar-start transform as a direct sum over the segments past x0, kept verbatim."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x0 = float(x0)
    grid = profile.x_grid
    vals = profile.values
    if x0 >= profile.x_max:
        amp = profile.values[-1] * np.exp(-profile.tail_rate * (x0 - profile.x_max))
        return amp * np.exp(1j * z * x0) / (profile.tail_rate - 1j * z)
    if x0 > 0:
        i0 = int(np.searchsorted(grid, x0))
        first = np.array([x0, grid[i0]]) if grid[i0] > x0 else np.array([x0])
        head_x = np.concatenate([first, grid[i0 + 1 :]]) if grid[i0] > x0 else grid[i0:]
        grid, vals = head_x, profile(head_x)
    h = np.diff(grid)
    zz = z[:, None]
    arg = 1j * zz * h[None, :]
    seg = h[None, :] * (vals[None, :-1] * _m0(arg) + (vals[None, 1:] - vals[None, :-1]) * _m1(arg))
    out = np.sum(np.exp(1j * zz * grid[None, :-1]) * seg, axis=1)
    return out + vals[-1] * np.exp(1j * z * profile.x_max) / (profile.tail_rate - 1j * z)


def test_sampled_transform_from_array_matches_scalar_calls():
    dx = 0.05
    x = np.arange(0, 7.0 + dx / 2, dx)
    samp = SampledProfile(dx, np.exp(-x) * (1 + 0.3j * np.cos(2 * x)), tail_rate=1.3)
    rng = np.random.default_rng(4)
    # before the samples, on and between samples, at and past the last one
    x0 = np.concatenate([[-1.0, 0.0, dx, 3 * dx + 1e-9, 6.95, 7.0, 9.0], rng.uniform(0, 8, 30)])
    z = np.array([0.0, 2.5, -7.0, 0.3 + 0.2j, 40.0])
    for zi in z:
        got = samp.halfline_transform_from(x0, zi)
        assert got.shape == x0.shape
        want = np.array([samp.halfline_transform_from(float(p), zi) for p in x0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        want = np.array([reference_halfline_transform_from(samp, p, zi)[0] for p in x0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    grid = samp.halfline_transform_from(x0[:, None], z[None, :])
    assert grid.shape == (len(x0), len(z))
    for i, zi in enumerate(z):
        np.testing.assert_allclose(grid[:, i], samp.halfline_transform_from(x0, zi), rtol=1e-13, atol=0)
