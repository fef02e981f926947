import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from isphalf.domain import KERNEL_BLOCKS, Dispersion, TriangularPotential, block_mask
from isphalf.edge_coupled import EdgeBoundary, EdgeCoupledSystem
from isphalf.forward import converged_tau_blocks, kernel_grid, solve_kernels
from isphalf.linefunc import make_grid
from isphalf.profiles import ExpSumProfile

_HYPOTHESIS_HOME = pytest.StashKey[str]()
N1_GRID = {"step": 0.02, "x_max": 16.0, "tau_max": 36.0}
N2_GRID = {"step": 0.04, "x_max": 14.0, "tau_max": 30.0}


def pytest_configure(config):
    # hypothesis keeps a cache of source constants under its home directory
    # even with database=None; point it at a temporary directory, not the checkout
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="isphalf-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def n1_disp():
    return Dispersion(1, (-1.0, 1.0))


@pytest.fixture(scope="session")
def n1_pot():
    e = ExpSumProfile(((1.0, 1.0),))
    return TriangularPotential(1, q12=[[e]], envelope=(1.0, 1.0))


@dataclass(frozen=True)
class PoleSum:
    """sum of coeff / (lambda - pole) over simple poles off the real axis.  It
    vanishes at infinity, so its Plemelj parts are exact: the poles below the
    axis make the plus part, those above it the minus part."""

    terms: tuple[tuple[complex, complex], ...] = ()  # (pole, coeff)

    def __add__(self, other):
        return PoleSum(self.terms + other.terms)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return sum((c / (lam - p) for p, c in self.terms), np.zeros(lam.shape, dtype=complex))

    def plus_part(self):
        return PoleSum(tuple(t for t in self.terms if t[0].imag < 0))

    def minus_part(self):
        return PoleSum(tuple(t for t in self.terms if t[0].imag > 0))


def simple_pole(pole: complex, coeff: complex) -> PoleSum:
    return PoleSum(((complex(pole), complex(coeff)),))


def kernel_triangle(pot, disp, **grid) -> dict:
    """The four (n, n, Nx, Ntau) kernel blocks on the grid of
    solve_kernels(pot, disp, **grid), assembled from the tau-blocks that
    solve_kernels streams; zero off the admissible entries."""
    x, tau = kernel_grid(pot, disp, **grid)
    n = disp.n
    blocks = {name: np.zeros((n, n, len(x), len(tau)), dtype=complex) for name in KERNEL_BLOCKS}
    for levels, values, _ in converged_tau_blocks(pot, disp, x, tau):
        for c, v in values.items():
            blocks[c.block][c.k, c.j, :, levels] = v
    return blocks


@pytest.fixture(scope="session")
def n1_kernels(n1_pot, n1_disp):
    return solve_kernels(n1_pot, n1_disp, **N1_GRID)


@pytest.fixture(scope="session")
def n1_triangle(n1_pot, n1_disp):
    return kernel_triangle(n1_pot, n1_disp, **N1_GRID)


@pytest.fixture(scope="session")
def grid_100_4096():
    return make_grid(100.0, 4096)


@pytest.fixture(scope="session")
def e1_disp():
    return Dispersion(2, (-2.0, -1.0, 1.0, 2.0))


@pytest.fixture(scope="session")
def e1_system(e1_disp):
    e = ExpSumProfile(((1.0, 1.0),))
    return EdgeCoupledSystem(e1_disp, c_first=(None, e), c_last=(), envelope=(1.0, 1.0))


@pytest.fixture(scope="session")
def e1_boundaries():
    return EdgeBoundary(2, [[1.0]]), EdgeBoundary(2, [[2.0]])


def random_potential(n: int, seed: int, amplitude: float = 0.25, rate_lo=1.0, rate_hi=2.0):
    """Full admissible-structure random exponential-sum potential."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for name in ("q11", "q12", "q21", "q22"):
        mask = block_mask(name, n)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if mask[i, j]:
                    g = amplitude * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
                    row.append(ExpSumProfile(((g, float(rng.uniform(rate_lo, rate_hi))),)))
                else:
                    row.append(None)
            rows.append(row)
        blocks[name] = rows
    return TriangularPotential(n, envelope=(1.0, rate_lo), **blocks)


@pytest.fixture(scope="session")
def n2_random_pot():
    return random_potential(2, seed=42)


@pytest.fixture(scope="session")
def n2_random_kernels(n2_random_pot, e1_disp):
    return solve_kernels(n2_random_pot, e1_disp, **N2_GRID)


@pytest.fixture(scope="session")
def n2_random_triangle(n2_random_pot, e1_disp):
    return kernel_triangle(n2_random_pot, e1_disp, **N2_GRID)
