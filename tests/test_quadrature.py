import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isphalf.linefunc import make_grid
from isphalf.quadrature import (
    _m0,
    _m1,
    _m2,
    cumulative_right_linear,
    filon_simpson_transform,
    linear_segment_transform,
    uniform_phase_sums,
)

EPS = np.finfo(float).eps


@pytest.mark.parametrize("z", [0.0 + 0j, 1e-8j, 0.34j, 2.5j, -0.2 + 4j, 0.001 - 0.001j])
def test_segment_moments(z):
    t = np.linspace(0, 1, 4001)
    m0_ref = np.trapezoid(np.exp(z * t), t)
    m1_ref = np.trapezoid(t * np.exp(z * t), t)
    m2_ref = np.trapezoid(t * t * np.exp(z * t), t)
    assert abs(_m0(np.array([z]))[0] - m0_ref) < 5e-8
    assert abs(_m1(np.array([z]))[0] - m1_ref) < 5e-8
    assert abs(_m2(np.array([z]))[0] - m2_ref) < 5e-8


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
    om = np.arange(-200.0, 201.0)  # a uniform grid through 0, 1, -13 and +-200
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


def test_filon_exact_on_a_quadratic():
    # a quadratic is its own interpolant, so the rule gives its transform up
    # to rounding; omega dt runs up to 0.45, across the |theta| = 0.35 switch
    # of the moments from their series to their closed forms
    a, b, c = 0.3 + 0.1j, -0.2, 0.05j
    dt, t_end = 0.5, 10.0
    t = dt * np.arange(21)
    omegas = np.linspace(0.05, 0.9, 1024)
    got = filon_simpson_transform(a + b * t + c * t * t, 0.0, dt, omegas)
    iw, e = 1j * omegas, np.exp(1j * omegas * t_end)
    i0 = (e - 1.0) / iw
    i1 = (t_end * e - i0) / iw
    i2 = (t_end * t_end * e - 2.0 * i1) / iw
    want = a * i0 + b * i1 + c * i2
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def filon_coefficients(values, dt):
    """(a, b, c) of the quadratic a + b (t - t_k) + c (t - t_k)^2 on each pair
    of cells, centred at t_k, after padding an even sample count with a zero."""
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] % 2 == 0:
        values = np.concatenate([values, np.zeros(values.shape[:-1] + (1,), dtype=complex)], axis=-1)
    f0, f1, f2 = values[..., 0:-1:2], values[..., 1::2], values[..., 2::2]
    return f1, (f2 - f0) / (2.0 * dt), (f2 - 2.0 * f1 + f0) / (2.0 * dt * dt)


def dense_filon_reference(values, t0, dt, omegas, chunk=256):
    """filon_simpson_transform as three dense sums against the (cell, omega)
    phase matrix, formed chunk omegas at a time; any omegas, uniform or not."""
    a, b, c = filon_coefficients(values, dt)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    centers = t0 + dt * (2.0 * np.arange(a.shape[-1]) + 1.0)
    out = np.zeros(a.shape[:-1] + omegas.shape, dtype=complex)
    for lo in range(0, len(omegas), chunk):
        w = omegas[lo : lo + chunk]
        z = 1j * w * dt
        phase = np.exp(1j * np.multiply.outer(centers, w))
        m0, m1, m2 = 2.0 * dt * _m0(z).real, 2j * dt * dt * _m1(z).imag, 2.0 * dt ** 3 * _m2(z).real
        out[..., lo : lo + chunk] = (a @ phase) * m0 + (b @ phase) * m1 + (c @ phase) * m2
    return out


def dense_rounding_bound(values, t0, dt, omegas):
    """What the dense reference can be trusted to on rows that do not decay:
    each of its phases omega t is rounded to about eps |omega t|, so the sums
    carry about eps max|omega t| times the sum of |values|, and the Filon
    weights scale that by about 2 dt."""
    t_max = t0 + dt * values.shape[-1]
    return EPS * max(1.0, np.abs(omegas).max() * t_max) * 2.0 * dt * np.abs(values).sum(axis=-1).max()


def _random_rows(rows, nt, seed):
    return np.random.default_rng(seed).standard_normal((rows, nt, 2)) @ [1, 1j]


@pytest.mark.parametrize("count", [1, 7, 64, 257, 1024])
@pytest.mark.parametrize("rows, nt, shift", [(1, 251, 0.0), (2, 252, 37.3), (3, 1001, -5.5)])
def test_filon_chirp_matches_dense_reference(count, rows, nt, shift):
    # power-of-two and odd omega counts, symmetric and shifted grids, 1-3
    # rows, odd and even sample counts; the rows are random and do not
    # decay, so the bound is the dense reference's own rounding (measured
    # at most 0.009 of it over these cases)
    values = _random_rows(rows, nt, count + nt)
    omegas = shift + 1.7 * make_grid(100.0, 1024)[:count]
    got = filon_simpson_transform(values, 0.3, 0.04, omegas)
    assert got.shape == (rows, count)
    assert np.abs(got - dense_filon_reference(values, 0.3, 0.04, omegas)).max() <= dense_rounding_bound(
        values, 0.3, 0.04, omegas
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_omega", [64, 128, 256, 1024, 2048])
def test_filon_chunk_is_bit_identical_on_power_of_two_grids(n, n_omega):
    # the forward stacks only the live blocks of a column into one
    # transform, so a row's transform must not depend on the rows batched
    # with it: on the CLI's power-of-two lambda grids, a chunk of rows and
    # each row alone give the same bytes as all rows at once
    rows = _random_rows(n, 251, n_omega + n)
    omegas = 2.3 * make_grid(100.0, n_omega)
    whole = filon_simpson_transform(rows, 0.0, 0.04, omegas).tobytes()
    chunked = np.concatenate([filon_simpson_transform(rows[i : i + 2], 0.0, 0.04, omegas) for i in range(0, n, 2)])
    alone = np.stack([filon_simpson_transform(row, 0.0, 0.04, omegas) for row in rows])
    assert chunked.tobytes() == whole
    assert alone.tobytes() == whole


@pytest.mark.parametrize("n_omega", [6, 7, 8, 127, 128, 129, 1023, 1024, 1025])
def test_filon_chunk_boundaries_lose_no_omega(n_omega):
    # a uniform omega grid cut into chunks of 128 or 7 (down to a grid of
    # one) is transformed chunk by chunk; every omega must come back, in
    # place, and agree with the dense reference to within its own rounding
    # on these non-decaying rows (measured at most 0.015 of it); a lost or
    # shifted omega is off by O(1) of the sup
    rows = _random_rows(2, 1001, n_omega)
    omegas = -150.0 + 300.0 / max(n_omega - 1, 1) * np.arange(n_omega)
    want = dense_filon_reference(rows, 0.0, 0.04, omegas)
    bound = dense_rounding_bound(rows, 0.0, 0.04, omegas)
    for chunk in (n_omega, 128, 7):
        got = np.concatenate(
            [filon_simpson_transform(rows, 0.0, 0.04, omegas[lo : lo + chunk]) for lo in range(0, n_omega, chunk)],
            axis=-1,
        )
        assert got.shape == (2, n_omega)
        assert np.abs(got - want).max() <= bound


def test_filon_chirp_on_the_largest_default_grid():
    # the README default grid: 5528 samples at step 0.01 against 4096
    # omegas on make_grid(100, 4096), at a speed 3.1 where the chirp phase
    # domega s m^2 / 2 reaches 2.5e4 rad.  The chirps are reduced modulo
    # 2 pi, so no error grows with that phase: a decaying trace agrees with
    # the dense sums to 1.4e-15 of its sup (against long double, 4.8e-16
    # for the chirp-z sums and 1.4e-15 for the dense ones), and the bound is
    # 1e-14.  A random row stays within the dense rounding (0.004 of it).
    dt, nt = 0.01, 5528
    t = dt * np.arange(nt)
    values = np.stack([np.exp(-t) * (1.0 + 0.5j * np.cos(3.0 * t)), _random_rows(1, nt, 5)[0]])
    omegas = 3.1 * make_grid(100.0, 4096)
    got = filon_simpson_transform(values, 0.0, dt, omegas)
    want = dense_filon_reference(values, 0.0, dt, omegas)
    assert np.abs(got[0] - want[0]).max() <= 1e-14 * np.abs(want[0]).max()
    assert np.abs(got[1] - want[1]).max() <= dense_rounding_bound(values[1:], 0.0, dt, omegas)


@pytest.mark.parametrize("count, nt", [(1, 3), (7, 252), (257, 1001), (1024, 2001)])
def test_filon_sums_match_scipy_czt(count, nt):
    # scipy.signal.czt is an independent chirp-z transform of each of the
    # three Filon sums: X_j = sum_k x_k A^-k W^jk with A = e^{-i omega_0 s}
    # and W = e^{i domega s} on the cell centres t0 + dt + s k, s = 2 dt.
    # czt raises W to the powers k^2 / 2 without reducing them, so it is
    # good only to about eps times the largest chirp phase domega s m^2 / 2
    # (up to 1.3e4 rad here) times the sum of |x|; the bound allows 16 such
    # eps (measured at most 0.85)
    from scipy.signal import czt

    dt, t0 = 0.04, 0.3
    omega0, domega = -100.0, 0.3
    sums = filon_coefficients(_random_rows(2, nt, count), dt)
    omegas = omega0 + domega * np.arange(count)
    got = uniform_phase_sums(np.stack(sums), t0 + dt, 2.0 * dt, omegas)
    for part, x in zip(got, sums):
        want = czt(x, m=count, w=np.exp(2j * dt * domega), a=np.exp(-2j * dt * omega0)) * np.exp(1j * (t0 + dt) * omegas)
        chirp = max(1.0, domega * 2.0 * dt * max(count, x.shape[-1]) ** 2 / 2.0, np.abs(omegas).max() * dt * nt)
        assert np.abs(part - want).max() <= 16 * EPS * chirp * np.abs(x).sum(axis=-1).max()


def test_filon_refuses_a_non_uniform_omega_grid():
    with pytest.raises(ValueError, match="uniform"):
        filon_simpson_transform(_random_rows(1, 11, 0), 0.0, 0.1, [0.0, 1.0, 3.0])
