"""Core value types: dispersion, block-triangular potentials, boundary matrices,
the one rule on the full 2n x 2n indices that fixes the structure
(admissible), the kernel channel table it gives, and the determinant guard
of lambda grids of matrices.

The types are frozen dataclasses, but their arrays (BoundaryMatrix.H) are
writable: share them across threads as read-only data.
Index conventions are 0-based internally; reports use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularH, ValidationError
from .profiles import ZERO_PROFILE, ScalarProfile, as_profile

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


def admissible(r: int, c: int, n: int) -> bool:
    """Whether kernel entry (r, c) of the full 2n x 2n kernel, 0-based, may
    be nonzero: row r lies no farther than column c from the middle of the
    speed order.  The potential admits the same entries but the diagonal."""
    return abs(2 * r + 1 - 2 * n) <= abs(2 * c + 1 - 2 * n)


# (row block, column block) offsets of each kernel block into the 2n speeds
KERNEL_BLOCKS = {"A11": (0, 0), "A12": (0, 1), "A21": (1, 0), "A22": (1, 1)}


class Channel(NamedTuple):
    """One admissible kernel entry: (k, j) of a block, (row, col) of the full
    2n x 2n kernel, and its characteristic."""

    block: str
    k: int
    j: int
    row: int
    col: int
    row_speed: float
    col_speed: float
    rho: float | None  # slope col_speed / (col_speed - row_speed); None on the diagonal

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
                r, c = rb * n + k, cb * n + j
                if admissible(r, c, n):
                    rho = None if r == c else xi[c] / (xi[c] - xi[r])
                    chans.append(Channel(name, k, j, r, c, xi[r], xi[c], rho))
    return tuple(chans)


def kernel_decay_exponent(disp: Dispersion) -> float:
    """Slope constant theta of the kernel decay in the slanted direction.

    The smallest characteristic slope rho over the off-diagonal channels of
    channel_table.  Invariant under uniform positive scaling of all speeds.
    """
    return min(c.rho for c in channel_table(disp) if c.rho is not None)


def block_mask(name: str, n: int, kernel: bool = False) -> np.ndarray:
    """The (n, n) admissible entries of a potential block (q11 ...) or, with
    kernel, of a kernel block (A11 ...)."""
    rb, cb = KERNEL_BLOCKS["A" + name[1:]]
    rows, cols = range(rb * n, rb * n + n), range(cb * n, cb * n + n)
    return np.array([[admissible(r, c, n) and (kernel or r != c) for c in cols] for r in rows], dtype=bool)


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

    def entry(self, r: int, c: int) -> ScalarProfile:
        """Entry (r, c) of the full 2n x 2n potential, 0-based."""
        n = self.n
        return self.block(f"q{r // n + 1}{c // n + 1}")[r % n][c % n]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """The full potential as a (2n, 2n, len(x)) array."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((2 * self.n, 2 * self.n) + x.shape, dtype=complex)
        for r in range(2 * self.n):
            for c in range(2 * self.n):
                if not (p := self.entry(r, c)).is_zero:
                    out[r, c] = p(x)
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
    patterns = {"q11": "strict lower", "q12": "lower anti", "q21": "upper anti", "q22": "strict upper"}
    for name, pattern in patterns.items():
        allowed = block_mask(name, n)
        for i in range(n):
            for j in range(n):
                p = pot.block(name)[i][j]
                if p.is_zero:
                    continue
                if not allowed[i, j]:
                    report.append(f"{name}({i + 1},{j + 1}) must be zero: violates {pattern} triangularity")
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
