import numpy as np
import pytest

from isphalf.quadrature import (
    _m0,
    _m1,
    cumulative_right_linear,
    filon_simpson_transform,
    linear_segment_transform,
)


@pytest.mark.parametrize("z", [0.0 + 0j, 1e-8j, 0.34j, 2.5j, -0.2 + 4j, 0.001 - 0.001j])
def test_segment_moments(z):
    t = np.linspace(0, 1, 4001)
    m0_ref = np.trapezoid(np.exp(z * t), t)
    m1_ref = np.trapezoid(t * np.exp(z * t), t)
    assert abs(_m0(np.array([z]))[0] - m0_ref) < 5e-8
    assert abs(_m1(np.array([z]))[0] - m1_ref) < 5e-8


def test_segment_transform_closed_form():
    x = np.linspace(0, 40, 8001)
    v = np.exp(-x)
    z = np.array([0.0, 1.0, 17.3, -100.0])
    got = linear_segment_transform(x[None, :-1], np.diff(x)[None, :], v[None, :-1], v[None, 1:], z[:, None]).sum(axis=1)
    want = (1.0 - np.exp(-(1 - 1j * z) * 40)) / (1 - 1j * z)
    assert np.abs(got - want).max() < 5e-6


def test_cumulative_right_oscillatory():
    dx, X = 0.01, 30.0
    x = np.arange(0, X + dx / 2, dx)
    g = np.exp(-x)
    for w in (0.0, 3.7, 120.0):
        got = cumulative_right_linear(0.0, dx, g, w)
        want = (np.exp(-(1 - 1j * w) * x) - np.exp(-(1 - 1j * w) * X)) / (1 - 1j * w)
        # exact for the linear interpolant: error is pure interpolation, flat in w
        assert np.abs(got - want).max() < 1e-5


def test_filon_simpson_uniform_in_frequency():
    dt = 0.01
    t = np.arange(0, 36.0 + dt / 2, dt)
    f = np.exp(-0.5 * t)
    om = np.array([0.0, 1.0, -13.0, 200.0, -200.0])
    got = filon_simpson_transform(f, 0.0, dt, om)
    want = (1 - np.exp(-(0.5 - 1j * om) * t[-1])) / (0.5 - 1j * om)
    assert np.abs(got - want).max() < 1e-9


def test_filon_simpson_batched_and_even_padding():
    dt = 0.02
    t = np.arange(0, 10.0, dt)  # even count, needs padding
    assert len(t) % 2 == 0
    f = np.exp(-t)
    om = np.array([3.0])
    got = filon_simpson_transform(np.stack([f, 2 * f]), 0.0, dt, om)
    want = (1 - np.exp(-(1 - 3j) * t[-1])) / (1 - 3j)
    assert abs(got[0, 0] - want) < 1e-5
    assert abs(got[1, 0] - 2 * want) < 1e-5
