"""Matrix-valued functions sampled on a uniform real-lambda grid.

The grid is the FFT-natural half-open one: lambda_j = -L + j (2L/N),
j = 0..N-1, which contains -L and 0 (for even N) and excludes +L.  N is a
power of two in every configuration so frequency projections stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Analyticity:
    """Half-plane or strip tag: kind in {'plus', 'minus', 'strip', 'none'}."""

    kind: str = "none"
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("plus", "minus", "strip", "none"):
            raise ValidationError("Analyticity.kind", f"unknown kind {self.kind!r}")
        if self.kind != "none" and not self.delta >= 0:
            raise ValidationError("Analyticity.delta", "strip half-width must be >= 0")

    @property
    def finite_delta(self) -> float:
        """The declared half-width, or 0 for an untagged or infinite strip."""
        return self.delta if self.kind != "none" and np.isfinite(self.delta) else 0.0


NONE_TAG = Analyticity()


def make_grid(lambda_max: float, n_lambda: int) -> np.ndarray:
    if not lambda_max > 0:
        raise ValidationError("lambda_max", "must be positive")
    if n_lambda < 4 or (n_lambda & (n_lambda - 1)) != 0:
        raise ValidationError("n_lambda", "must be a power of two >= 4")
    step = 2.0 * lambda_max / n_lambda
    return -lambda_max + step * np.arange(n_lambda)


@dataclass(frozen=True)
class LineMatrixFunction:
    """Samples of an m x m matrix function on a uniform lambda grid."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    analyticity: Analyticity = NONE_TAG

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if g.ndim != 1 or len(g) < 2:
            raise ValidationError("LineMatrixFunction.grid", "need a 1-d grid of >= 2 points")
        d = np.diff(g)
        if np.any(d <= 0):
            raise ValidationError("LineMatrixFunction.grid", "grid must be strictly increasing")
        if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise ValidationError("LineMatrixFunction.grid", "grid must be uniform")
        if v.ndim == 1:
            v = v[:, None, None]
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValidationError("LineMatrixFunction.values", "values must be (N, m, m)")
        if v.shape[0] != len(g):
            raise ValidationError(
                "LineMatrixFunction.values",
                f"{v.shape[0]} samples for {len(g)} grid points",
            )
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def with_tag(self, analyticity: Analyticity):
        return LineMatrixFunction(self.grid, self.values, analyticity)

    def __add__(self, other):
        self._check_same_grid(other)
        return LineMatrixFunction(self.grid, self.values + other.values, _merge_tags(self, other))

    def __sub__(self, other):
        self._check_same_grid(other)
        return LineMatrixFunction(self.grid, self.values - other.values, _merge_tags(self, other))

    def left_mul(self, mat: np.ndarray):
        return LineMatrixFunction(self.grid, np.einsum("ab,nbc->nac", mat, self.values), self.analyticity)

    def right_mul(self, mat: np.ndarray):
        return LineMatrixFunction(self.grid, np.einsum("nab,bc->nac", self.values, mat), self.analyticity)

    def plus_identity(self) -> np.ndarray:
        return self.values + np.eye(self.m)

    def entry(self, i: int, j: int) -> "LineMatrixFunction":
        return LineMatrixFunction(self.grid, self.values[:, i, j][:, None, None], self.analyticity)

    def norms(self) -> np.ndarray:
        """Spectral-equivalent max-abs entry norm per grid point."""
        return np.abs(self.values).reshape(len(self.grid), -1).max(axis=1)

    def sup_norm(self) -> float:
        return float(self.norms().max())

    def edge_norm(self) -> float:
        nrm = self.norms()
        return float(max(nrm[0], nrm[-1]))

    def at(self, lam: float) -> np.ndarray:
        """Value at a grid point (lam must lie on the grid)."""
        idx = int(round((lam - self.grid[0]) / self.step))
        if not (0 <= idx < len(self.grid)) or abs(self.grid[idx] - lam) > 1e-9 * max(1.0, abs(lam)):
            raise ValidationError("lambda", f"{lam} is not a grid point")
        return self.values[idx]

    def _check_same_grid(self, other):
        if len(self.grid) != len(other.grid) or not np.allclose(self.grid, other.grid):
            raise ValidationError("grid", "operands live on different grids")


class BlockTransforms(NamedTuple):
    """The four half-line block transforms, in the block order of
    domain.KERNEL_BLOCKS: minus-type in the first block column, plus-type in
    the second."""

    a11_minus: LineMatrixFunction
    a12_plus: LineMatrixFunction
    a21_minus: LineMatrixFunction
    a22_plus: LineMatrixFunction

    def named(self) -> dict:
        """Artifact name (A11_minus ... A22_plus) -> transform."""
        return {name.capitalize(): f for name, f in zip(self._fields, self)}


def _merge_tags(a: LineMatrixFunction, b: LineMatrixFunction) -> Analyticity:
    ta, tb = a.analyticity, b.analyticity
    if ta.kind == tb.kind:
        if ta.kind == "none":
            return NONE_TAG
        return Analyticity(ta.kind, min(ta.delta, tb.delta))
    return NONE_TAG
