import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isphalf import quadrature
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


@settings(max_examples=60, deadline=None, database=None)
@given(
    x_left=st.floats(-20.0, 20.0),
    h=st.floats(1e-3, 2.0),
    v=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=2, max_size=2),
    z_re=st.floats(-300.0, 300.0),
    z_im=st.floats(-1.0, 1.0),
)
@example(x_left=0.0, h=0.1, v=[1.0, 1.0], z_re=0.5, z_im=0.0)
def test_segment_transform_on_scalars_is_the_one_element_array_value(x_left, h, v, z_re, z_im):
    # both moment branches: |z h| < 0.35 takes the series; numpy's scalar
    # and array products may round the last bit differently
    z = complex(z_re, z_im)
    got = linear_segment_transform(x_left, h, v[0], v[1], z)
    want = linear_segment_transform(np.array([x_left]), np.array([h]), np.array([v[0]]), np.array([v[1]]), np.array([z]))
    assert np.ndim(got) == 0 and want.shape == (1,)
    scale = h * (abs(v[0]) + abs(v[1])) * abs(np.exp(1j * z * x_left)) * np.exp(abs(z.imag) * h)
    assert abs(got - want[0]) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 40])
@pytest.mark.parametrize("omega", [0.0, 1.3, -2.0, 250.0])
def test_cumulative_right_is_the_per_segment_suffix_sum(n, omega):
    rng = np.random.default_rng(n)
    x0, dx = 0.7, 0.05
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    segs = [linear_segment_transform(x0 + i * dx, dx, g[i], g[i + 1], omega) for i in range(n - 1)]
    want = np.array([sum(segs[i:], 0j) for i in range(n)])
    got = cumulative_right_linear(x0, dx, g, omega)
    assert got.shape == (n,) and got[-1] == 0
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


def _filon_rows(n, nt, n_omega, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, nt, 2)) @ [1, 1j]
    return rows, rng.uniform(-300.0, 300.0, n_omega)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_omega", [64, 128, 256, 1024, 2048])
def test_filon_chunk_is_bit_identical_on_power_of_two_grids(monkeypatch, n, n_omega):
    # the CLI's lambda grids have a power-of-two length, so every chunk of
    # omegas is full and the phase products round as in one wide product
    rows, omegas = _filon_rows(n, 251, n_omega)
    got = {}
    for chunk in (1024, 128):
        monkeypatch.setattr(quadrature, "_OMEGA_CHUNK", chunk)
        got[chunk] = filon_simpson_transform(rows, 0.0, 0.04, omegas).tobytes()
    assert got[128] == got[1024]


@pytest.mark.parametrize("n_omega", [6, 7, 8, 127, 128, 129, 1023, 1024, 1025])
def test_filon_chunk_boundaries_lose_no_omega(monkeypatch, n_omega):
    # a partial chunk changes only the BLAS kernel that rounds its columns
    rows, omegas = _filon_rows(2, 1001, n_omega)
    got = {}
    for chunk in (1024, 128, 7):
        monkeypatch.setattr(quadrature, "_OMEGA_CHUNK", chunk)
        got[chunk] = filon_simpson_transform(rows, 0.0, 0.04, omegas)
    scale = np.abs(got[1024]).max()
    for chunk in (128, 7):
        assert got[chunk].shape == (2, n_omega)
        assert np.abs(got[chunk] - got[1024]).max() <= 1e-14 * scale
