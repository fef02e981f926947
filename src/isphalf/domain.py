"""Core value types: dispersion, block-triangular potentials, boundary matrices,
the kernel channel table that the structure fixes, and the determinant
guard of lambda grids of matrices.

The types are frozen dataclasses, but their arrays (BoundaryMatrix.H) are
writable: share them across threads as read-only data.
Index conventions are 0-based internally; reports use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularH, ValidationError
from .profiles import ZERO_PROFILE, as_profile

SINGULARITY_TOL = 1e-10


def singular_grid_point(grid: np.ndarray, matrices: np.ndarray) -> tuple[float, float] | None:
    """(lambda, |det|) at the grid point where |det| of the (N, m, m) stack
    is least, when that is not above SINGULARITY_TOL (a NaN counts), else
    None.  The factorization needs det != 0 along the real axis; this is the
    one place where a lambda grid of matrices is held to that."""
    dets = np.abs(np.linalg.det(matrices))
    if dets.min() > SINGULARITY_TOL:
        return None
    idx = int(np.argmin(dets))
    return float(grid[idx]), float(dets[idx])


@dataclass(frozen=True)
class Dispersion:
    """Ordered diagonal speeds xi_1 < ... < xi_n < 0 < xi_{n+1} < ... < xi_{2n}."""

    n: int
    xi: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("Dispersion.n", "n must be >= 1")
        xi = tuple(float(v) for v in self.xi)
        object.__setattr__(self, "xi", xi)
        if len(xi) != 2 * self.n:
            raise ValidationError("Dispersion.xi", f"need 2n = {2 * self.n} speeds, got {len(xi)}")
        if any(b <= a for a, b in zip(xi, xi[1:])):
            raise ValidationError("Dispersion.xi", "speeds must be strictly increasing")
        if not (xi[self.n - 1] < 0.0 < xi[self.n]):
            raise ValidationError("Dispersion.xi", "first n speeds must be negative, last n positive")

    @property
    def xi_arr(self) -> np.ndarray:
        return np.array(self.xi)


def _strictly_lower(i: int, j: int, n: int) -> bool:
    return i > j


def _lower_anti(i: int, j: int, n: int) -> bool:
    # 1-based: zero for i + j <= n
    return (i + 1) + (j + 1) > n


def _upper_anti(i: int, j: int, n: int) -> bool:
    # 1-based: zero for i + j >= n + 2
    return (i + 1) + (j + 1) < n + 2


def _strictly_upper(i: int, j: int, n: int) -> bool:
    return j > i


BLOCK_ALLOWED = {
    "q11": _strictly_lower,
    "q12": _lower_anti,
    "q21": _upper_anti,
    "q22": _strictly_upper,
}

# Kernel blocks admit the corresponding non-strict patterns (diagonals allowed).
KERNEL_ALLOWED = {
    "A11": lambda i, j, n: i >= j,
    "A12": _lower_anti,
    "A21": _upper_anti,
    "A22": lambda i, j, n: j >= i,
}


# (row block, column block) offsets of each kernel block into the 2n speeds
KERNEL_BLOCKS = {"A11": (0, 0), "A12": (0, 1), "A21": (1, 0), "A22": (1, 1)}


class Channel(NamedTuple):
    """One admissible kernel entry (k, j) of a block and its characteristic."""

    block: str
    k: int
    j: int
    row_speed: float
    col_speed: float
    rho: float | None  # slope col / (col - row); None on the diagonal

    @property
    def q_block(self) -> str:
        """The potential block whose (k, j) entry drives this channel."""
        return "q" + self.block[1:]


def channel_table(disp: Dispersion) -> tuple[Channel, ...]:
    """Every admissible kernel entry, block by block, in row-major order."""
    n = disp.n
    xi = disp.xi_arr
    chans = []
    for name, (rb, cb) in KERNEL_BLOCKS.items():
        for k in range(n):
            for j in range(n):
                if not KERNEL_ALLOWED[name](k, j, n):
                    continue
                row, col = xi[rb * n + k], xi[cb * n + j]
                rho = None if row == col else col / (col - row)
                chans.append(Channel(name, k, j, row, col, rho))
    return tuple(chans)


def kernel_decay_exponent(disp: Dispersion) -> float:
    """Slope constant theta of the kernel decay in the slanted direction.

    The smallest characteristic slope rho over the off-diagonal channels of
    channel_table.  Invariant under uniform positive scaling of all speeds.
    """
    return min(c.rho for c in channel_table(disp) if c.rho is not None)


def block_mask(name: str, n: int, kernel: bool = False) -> np.ndarray:
    rule = (KERNEL_ALLOWED if kernel else BLOCK_ALLOWED)[name]
    return np.array([[rule(i, j, n) for j in range(n)] for i in range(n)], dtype=bool)


def _coerce_block(block, n: int):
    grid = [[ZERO_PROFILE] * n for _ in range(n)]
    if block is None:
        return tuple(tuple(row) for row in grid)
    for i in range(n):
        for j in range(n):
            grid[i][j] = as_profile(block[i][j])
    return tuple(tuple(row) for row in grid)


@dataclass(frozen=True)
class TriangularPotential:
    """Potential with the four-block triangular structure.

    q11 strictly lower triangular, q12 lower anti-triangular, q21 upper
    anti-triangular, q22 strictly upper triangular; every nonzero entry is a
    ScalarProfile bounded by the declared envelope C e^{-eps x}.
    """

    n: int
    q11: tuple = None
    q12: tuple = None
    q21: tuple = None
    q22: tuple = None
    envelope: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("TriangularPotential.n", "n must be >= 1")
        c, eps = self.envelope
        if not (c > 0 and eps > 0):
            raise ValidationError("TriangularPotential.envelope", "C and eps must be positive")
        for name in ("q11", "q12", "q21", "q22"):
            object.__setattr__(self, name, _coerce_block(getattr(self, name), self.n))

    def block(self, name: str):
        return getattr(self, name)

    def evaluate_block(self, name: str, x: np.ndarray) -> np.ndarray:
        """Block values as an (n, n, len(x)) array."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.n, self.n) + x.shape, dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                p = self.block(name)[i][j]
                if not p.is_zero:
                    out[i, j] = p(x)
        return out


def validate_potential(pot: TriangularPotential):
    """Structural and envelope check; returns a list of violation strings.

    The envelope is probed at 201 points on [0, max(1, 10 / eps)] with a
    relative slack of 1e-9.  Empty list means the potential is valid.
    Reports never raise: the point is to name every offending entry at once.
    """
    report: list[str] = []
    n = pot.n
    c_env, eps = pot.envelope
    x_probe = np.linspace(0.0, max(1.0, 10.0 / eps), 201)
    bound = c_env * np.exp(-eps * x_probe) * (1.0 + 1e-9) + 1e-300
    for name, rule in BLOCK_ALLOWED.items():
        for i in range(n):
            for j in range(n):
                p = pot.block(name)[i][j]
                if not rule(i, j, n):
                    if not p.is_zero:
                        report.append(
                            f"{name}({i + 1},{j + 1}) must be zero: violates "
                            f"{'strict lower' if name == 'q11' else 'lower anti' if name == 'q12' else 'upper anti' if name == 'q21' else 'strict upper'}"
                            " triangularity"
                        )
                    continue
                if p.is_zero:
                    continue
                vals = np.abs(p(x_probe))
                bad = vals > bound
                if np.any(bad):
                    k = int(np.argmax(bad))
                    report.append(
                        f"{name}({i + 1},{j + 1}) exceeds envelope at x = {x_probe[k]:.4g}: "
                        f"|value| = {vals[k]:.4g} > {bound[k]:.4g}"
                    )
    return report


@dataclass(frozen=True)
class BoundaryMatrix:
    """Invertible boundary coupling y2(0) = H y1(0)."""

    H: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.asarray(self.H, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError("BoundaryMatrix.H", "H must be square")
        object.__setattr__(self, "H", h)
        if abs(np.linalg.det(h)) <= SINGULARITY_TOL:
            raise SingularH(f"|det H| = {abs(np.linalg.det(h)):.3e} <= tol {SINGULARITY_TOL:.1e}")

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.H)
