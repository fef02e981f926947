"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its tolerance and measured runtime.  Grid parameters are explicit here
because the budgets constrain them; every tolerance is the contract value.
"""

import time

import numpy as np
import pytest

from isphalf.domain import BoundaryMatrix, Dispersion, TriangularPotential
from isphalf.edge_coupled import (
    EdgeBoundary,
    EdgeCoupledSystem,
    edge_invert_transforms,
    edge_roundtrip,
    edge_scattering,
    edge_solve_coefficients,
)
from isphalf.errors import RankDeficient
from isphalf.forward import (
    boundary_parts,
    kernel_transforms,
    potential_from_kernels,
    scattering_matrix,
    solve_kernels,
)
from isphalf.linefunc import LineMatrixFunction, make_grid
from isphalf.profiles import ExpSumProfile
from isphalf.rh import plemelj_split, solve_regular_rh, recover_blocks

from conftest import random_potential, simple_pole


class Gate:
    def __init__(self, number: int, budget: float):
        self.number = number
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status} criterion {self.number}: {elapsed:.2f}s (budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


@pytest.fixture(scope="module")
def exp_fixture_kernels():
    pot = TriangularPotential(1, q12=[[ExpSumProfile(((1.0, 1.0),))]], envelope=(1.0, 1.0))
    disp = Dispersion(1, (-1.0, 1.0))
    return pot, disp, solve_kernels(pot, disp, step=0.015, x_max=16.0, tau_max=36.0)


@pytest.fixture(scope="module")
def edge_fixture():
    disp = Dispersion(2, (-2.0, -1.0, 1.0, 2.0))
    sys2 = EdgeCoupledSystem(disp, c_first=(None, ExpSumProfile(((1.0, 1.0),))), envelope=(1.0, 1.0))
    return disp, sys2, EdgeBoundary(2, [[1.0]]), EdgeBoundary(2, [[2.0]])


@pytest.fixture(scope="module")
def edge_potential_kernels(edge_fixture):
    disp, sys2, _, _ = edge_fixture
    pot = sys2.as_potential()
    return pot, disp, solve_kernels(pot, disp, step=0.02, x_max=16.0, tau_max=36.0)


def test_criterion_01_zero_potential_identity():
    rng = np.random.default_rng(1)
    with Gate(1, 5.0):
        grid = make_grid(100.0, 1024)
        for n in (1, 2, 3):
            xi = tuple(float(v) for v in range(-n, 0)) + tuple(float(v) for v in range(1, n + 1))
            disp = Dispersion(n, xi)
            kernels = solve_kernels(
                TriangularPotential(n), disp, step=0.1, x_max=2.0, tau_max=4.0
            )
            blocks = kernel_transforms(kernels, disp, grid)
            for _ in range(5):
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2 * np.eye(n)
                plus, minus = boundary_parts(blocks, BoundaryMatrix(h))
                s = scattering_matrix(plus, minus)
                dev = np.abs(s.values - np.eye(n)).max()
                assert dev <= 1e-12


def test_criterion_02_scalar_closed_form_scattering(exp_fixture_kernels):
    pot, disp, kernels = exp_fixture_kernels
    with Gate(2, 10.0):
        grid = make_grid(128.0, 4096)
        blocks = kernel_transforms(kernels, disp, grid)
        plus, minus = boundary_parts(blocks, BoundaryMatrix(np.array([[1.0]])))
        s = scattering_matrix(plus, minus)
        want = (1 - 2j * grid) / (1 - 2j * grid - 1j)
        window = np.abs(grid) <= 20.0
        assert np.abs(s.values[window, 0, 0] - want[window]).max() <= 1e-6
        assert abs(s.at(0.0)[0, 0] - (0.5 + 0.5j)) <= 1e-6


def test_criterion_03_kernel_identity_roundtrip():
    with Gate(3, 60.0):
        fixtures = [
            (Dispersion(1, (-1.0, 1.0)),
             TriangularPotential(1, q12=[[ExpSumProfile(((1.0, 1.0),))]], envelope=(1.0, 1.0))),
            (Dispersion(2, (-2.0, -1.0, 1.0, 2.0)), random_potential(2, seed=42)),
        ]
        for disp, pot in fixtures:
            kernels = solve_kernels(pot, disp, step=0.02, x_max=6.0, tau_max=6.0)
            recovered = potential_from_kernels(kernels, disp)
            x = kernels.x_grid
            keep = x <= 5.0
            for name in ("q11", "q12", "q21", "q22"):
                for i in range(disp.n):
                    for j in range(disp.n):
                        truth = pot.block(name)[i][j](x[keep])
                        got = recovered.block(name)[i][j](x[keep])
                        scale = np.abs(truth).max()
                        if scale == 0.0:
                            assert np.abs(got).max() <= 1e-12
                        else:
                            assert np.abs(got - truth).max() / scale <= 1e-6


def test_criterion_04_kernel_decay_slope(exp_fixture_kernels):
    _, _, kernels = exp_fixture_kernels
    with Gate(4, 10.0):
        tau = kernels.tau_grid
        mags = np.abs(kernels.traces["A12"][0, 0])
        window = (mags > 1e-10) & (tau > 0.25)
        slope = np.polyfit(tau[window], np.log(mags[window]), 1)[0]
        assert -0.55 <= slope <= -0.45


def test_criterion_05_plemelj_split():
    with Gate(5, 5.0):
        grid = make_grid(100.0, 2 ** 14)
        exact = simple_pole(-1j, 1j) + simple_pole(1j, -1j)
        plus_want = 1j / (grid + 1j)
        minus_want = -1j / (grid - 1j)
        assert np.abs(exact.plus_part()(grid) - plus_want).max() <= 1e-8
        assert np.abs(exact.minus_part()(grid) - minus_want).max() <= 1e-8
        f = LineMatrixFunction(grid, exact(grid)[:, None, None])
        plus, minus = plemelj_split(f)
        assert np.abs(plus.values[:, 0, 0] - plus_want).max() <= 1e-4
        assert np.abs(minus.values[:, 0, 0] - minus_want).max() <= 1e-4


def _synthetic_jump(grid, m, seed, cap=0.2):
    rng = np.random.default_rng(seed)

    def half(sign):
        vals = np.zeros((len(grid), m, m), complex)
        for i in range(m):
            for j in range(m):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2 * m)
                pole = rng.uniform(-2, 2) + sign * 1j * rng.uniform(0.9, 2.0)
                vals[:, i, j] = c / (grid - pole)
        sup = np.abs(vals).reshape(len(grid), -1).max()
        return vals * (0.9 * cap / sup)

    a_plus, a_minus = half(-1.0), half(+1.0)
    eye = np.eye(m)
    s_vals = np.linalg.solve(eye + a_plus, eye + a_minus)
    return a_plus, a_minus, s_vals


def test_criterion_06_regular_factorization():
    with Gate(6, 60.0):
        grid = make_grid(100.0, 2048)
        for m, seed in ((1, 61), (2, 62)):
            a_plus, a_minus, s_vals = _synthetic_jump(grid, m, seed)
            s = LineMatrixFunction(grid, s_vals)
            got_plus, got_minus, _ = solve_regular_rh(s, edge_tol=2e-2)
            residual = np.abs(
                got_plus.plus_identity() @ s_vals - got_minus.plus_identity()
            ).max()
            assert residual <= 1e-5
            assert np.abs(got_plus.values - a_plus).max() <= 1e-5
            assert np.abs(got_minus.values - a_minus).max() <= 1e-5


def test_criterion_07_block_recovery(edge_potential_kernels):
    pot, disp, kernels = edge_potential_kernels
    with Gate(7, 60.0):
        grid = make_grid(64.0, 2048)
        blocks = kernel_transforms(kernels, disp, grid)
        h1 = BoundaryMatrix(np.array([[1.0, 0.3], [0.2, 1.0]], complex))
        h2 = BoundaryMatrix(np.array([[2.0, -0.4], [0.1, 3.0]], complex))
        factorizations = []
        for bnd in (h1, h2):
            plus, minus = boundary_parts(blocks, bnd)
            s = scattering_matrix(plus, minus)
            factorizations.append(solve_regular_rh(s, edge_tol=2e-2))
        (a11m, a12p, a21m, a22p), _ = recover_blocks(
            factorizations[0][0], factorizations[0][1],
            factorizations[1][0], factorizations[1][1],
            h1, h2,
        )
        assert np.abs(a11m.values - blocks.a11_minus.values).max() <= 1e-5
        assert np.abs(a12p.values - blocks.a12_plus.values).max() <= 1e-5
        assert np.abs(a21m.values - blocks.a21_minus.values).max() <= 1e-5
        assert np.abs(a22p.values - blocks.a22_plus.values).max() <= 1e-5


def test_criterion_08_edge_class_roundtrip(edge_fixture):
    disp, sys2, b1, b2 = edge_fixture
    with Gate(8, 60.0):
        grid = make_grid(100.0, 4096)
        s = edge_scattering(sys2, b1, grid)
        want = 1j / (1 + 3j * grid)
        assert np.abs(s.values[:, 0, 1] - want).max() <= 1e-6
        report = edge_roundtrip(sys2, b1, b2, grid, compare_to=10.0, split_edge_tol=1e-2)
        assert report["max_rel_error"] <= 1e-4


def test_criterion_09_non_uniqueness(edge_fixture):
    disp, sys2, b1, _ = edge_fixture
    with Gate(9, 10.0):
        grid = make_grid(100.0, 4096)
        s = edge_scattering(sys2, b1, grid)
        prof = edge_invert_transforms(s, s_max=40.0, edge_tol=1e-2)
        with pytest.raises(RankDeficient) as single:
            edge_solve_coefficients([(prof, b1)], disp)
        assert single.value.deficiency == 1
        assert single.value.fraction == 1.0
        with pytest.raises(RankDeficient) as equal:
            edge_solve_coefficients([(prof, b1), (prof, b1)], disp)
        assert equal.value.fraction == 1.0


def test_criterion_10_asymptotic_decay(exp_fixture_kernels, edge_potential_kernels, edge_fixture):
    pot1, disp1, ker1 = exp_fixture_kernels
    pot2, disp2, ker2 = edge_potential_kernels
    edisp, esys, eb1, eb2 = edge_fixture
    with Gate(10, 5.0):
        grid = make_grid(128.0, 4096)
        fixtures = []
        blocks1 = kernel_transforms(ker1, disp1, grid)
        fixtures.append(scattering_matrix(*boundary_parts(blocks1, BoundaryMatrix(np.array([[1.0]])))))
        blocks2 = kernel_transforms(ker2, disp2, grid)
        for h in (np.array([[1.0, 0.3], [0.2, 1.0]]), np.array([[2.0, -0.4], [0.1, 3.0]])):
            fixtures.append(scattering_matrix(*boundary_parts(blocks2, BoundaryMatrix(h))))
        for bnd in (eb1, eb2):
            fixtures.append(edge_scattering(esys, bnd, grid))
        for s in fixtures:
            eye = np.eye(s.m)
            devs = [
                max(np.abs(s.at(mag) - eye).max(), np.abs(s.at(-mag) - eye).max())
                for mag in (10.0, 20.0, 40.0, 80.0)
            ]
            assert all(a > b for a, b in zip(devs, devs[1:])), devs
            assert devs[-1] <= 0.05
