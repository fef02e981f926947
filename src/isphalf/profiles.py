"""Scalar decay profiles for potential entries.

Two representations are supported: finite sums of decaying exponentials
(the primary, semi-analytic one) and uniformly sampled values with a
declared exponential tail beyond the grid.  Both evaluate anywhere on
[0, inf) and expose half-line oscillatory transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


class ScalarProfile:
    """Common interface: complex-valued function of x >= 0 with exponential decay."""

    def __call__(self, x):
        raise NotImplementedError

    def halfline_transform(self, z):
        """Integral of f(x) e^{i z x} over [0, inf), elementwise in z."""
        raise NotImplementedError

    def halfline_transform_from(self, x0, z):
        """Integral of f(x) e^{i z x} over [x0, inf)."""
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class ExpSumProfile(ScalarProfile):
    """x -> sum_k gamma_k * exp(-a_k x), all a_k > 0.

    Satisfies the exponential-envelope condition exactly and keeps every
    half-line transform in closed form, which is why generated fixtures
    and the solvable example class use it throughout.
    """

    terms: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self):
        for gamma, a in self.terms:
            if not a > 0:
                raise ValidationError("ExpSumProfile.a", f"decay rate must be positive, got {a}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for gamma, a in self.terms:
            out += gamma * np.exp(-a * x)
        return out

    def halfline_transform(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for gamma, a in self.terms:
            out = out + gamma / (a - 1j * z)
        return out

    def halfline_transform_from(self, x0, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(np.broadcast(z, np.asarray(x0)).shape, dtype=complex)
        for gamma, a in self.terms:
            out = out + gamma * np.exp(-(a - 1j * z) * x0) / (a - 1j * z)
        return out

    @property
    def is_zero(self) -> bool:
        return all(gamma == 0 for gamma, _ in self.terms)


ZERO_PROFILE = ExpSumProfile(())
_Z_CHUNK = 512  # distinct z values per (z, segment) temporary of SampledProfile


@dataclass(frozen=True)
class SampledProfile(ScalarProfile):
    """Uniform samples on [0, x_max] with linear interpolation in between
    and a declared exponential tail value(x_max) * e^{-tail_rate (x - x_max)}
    beyond the grid."""

    dx: float
    values: np.ndarray = field(repr=False)
    tail_rate: float = 1.0

    def __post_init__(self):
        if not self.dx > 0:
            raise ValidationError("SampledProfile.dx", "step must be positive")
        if not self.tail_rate > 0:
            raise ValidationError("SampledProfile.tail_rate", "tail rate must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValidationError("SampledProfile.values", "need a 1-d array of >= 2 samples")

    @property
    def x_max(self) -> float:
        return self.dx * (len(self.values) - 1)

    @property
    def x_grid(self) -> np.ndarray:
        return self.dx * np.arange(len(self.values))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.clip(x, 0.0, self.x_max)
        out = np.interp(inside, self.x_grid, self.values.real).astype(complex)
        out += 1j * np.interp(inside, self.x_grid, self.values.imag)
        tail = x > self.x_max
        if np.any(tail):
            out = np.where(tail, self.values[-1] * np.exp(-self.tail_rate * (x - self.x_max)), out)
        return out

    def halfline_transform(self, z):
        return self.halfline_transform_from(0.0, z)

    def halfline_transform_from(self, x0, z):
        """Integral of f(x) e^{i z x} over [max(x0, 0), inf), elementwise in the broadcast of x0 and z.

        The piecewise-linear part is transformed exactly per segment, which
        keeps the result one-sided in z: from a start point inside the
        samples the transform is the piece up to the next sample plus the
        suffix sum of the segment transforms beyond it and of the analytic tail.
        """
        from .quadrature import linear_segment_transform

        x0, z = np.broadcast_arrays(np.asarray(x0, dtype=float), np.asarray(z, dtype=complex))
        grid, vals, rate, x_max = self.x_grid, self.values, self.tail_rate, self.x_max
        out = np.empty(x0.shape, dtype=complex)
        beyond = x0 >= x_max
        xb, zb = x0[beyond], z[beyond]
        out[beyond] = vals[-1] * np.exp(-rate * (xb - x_max)) * np.exp(1j * zb * xb) / (rate - 1j * zb)

        start, zi = np.maximum(x0[~beyond], 0.0), z[~beyond]
        nxt = np.searchsorted(grid, start)  # grid[nxt - 1] < start <= grid[nxt]
        inside = linear_segment_transform(start, grid[nxt] - start, self(start), vals[nxt], zi)
        lo = int(nxt.min(initial=len(grid) - 1))
        z_unique, which = np.unique(zi, return_inverse=True)
        for c in range(0, len(z_unique), _Z_CHUNK):
            zz = z_unique[c : c + _Z_CHUNK, None]
            segs = linear_segment_transform(grid[lo:-1], np.diff(grid[lo:]), vals[lo:-1], vals[lo + 1 :], zz)
            tail = vals[-1] * np.exp(1j * zz * x_max) / (rate - 1j * zz)
            # column k: the transform from grid[lo + k] on
            suffix = np.cumsum(np.concatenate([tail, segs[:, ::-1]], axis=1), axis=1)[:, ::-1]
            sel = (which >= c) & (which < c + _Z_CHUNK)
            inside[sel] += suffix[which[sel] - c, nxt[sel] - lo]
        out[~beyond] = inside
        return out

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))


def as_profile(obj) -> ScalarProfile:
    """Coerce None (structural zero) or a profile into a ScalarProfile."""
    if obj is None:
        return ZERO_PROFILE
    if isinstance(obj, ScalarProfile):
        return obj
    raise ValidationError("profile", f"cannot interpret {type(obj).__name__} as a profile")
