"""Rational functions in partial-fraction form.

Used by the exact split path and the exact factorization path: sums of
c/(lambda - p)^k terms plus a constant, closed under the arithmetic the
solvers need, with half-plane projections that simply select poles by the
sign of their imaginary part.  Coefficient arithmetic is floating point;
"exact" refers to the partial-fraction structure, not symbolics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ValidationError

POLE_MERGE_TOL = 1e-9
DROP_TOL = 1e-14


@dataclass(frozen=True)
class RationalFunction:
    """const + sum of coeff / (lambda - pole)^order with all poles off the real axis."""

    const: complex = 0.0
    terms: tuple[tuple[complex, int, complex], ...] = ()  # (pole, order, coeff)

    def __post_init__(self):
        object.__setattr__(self, "const", complex(self.const))
        cleaned = []
        for pole, order, coeff in self.terms:
            if order < 1:
                raise ValidationError("RationalFunction.order", "orders must be >= 1")
            if abs(complex(pole).imag) <= POLE_MERGE_TOL:
                raise ValidationError("RationalFunction.pole", f"pole {pole} too close to the real axis")
            cleaned.append((complex(pole), int(order), complex(coeff)))
        object.__setattr__(self, "terms", _canonical(cleaned))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return RationalFunction(self.const + other.const, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.const, tuple((p, o, -c) for p, o, c in self.terms))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        terms = [(p, o, c * other.const) for p, o, c in self.terms if other.const != 0]
        terms += [(p, o, c * self.const) for p, o, c in other.terms if self.const != 0]
        for p1, o1, c1 in self.terms:
            for p2, o2, c2 in other.terms:
                terms.extend(_expand_product(p1, o1, p2, o2, c1 * c2))
        return RationalFunction(self.const * other.const, tuple(terms))

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def plus_part(self):
        """Poles in the lower half-plane: analytic above, vanishing at infinity."""
        self._require_vanishing()
        return RationalFunction(0.0, tuple(t for t in self.terms if t[0].imag < 0))

    def minus_part(self):
        self._require_vanishing()
        return RationalFunction(0.0, tuple(t for t in self.terms if t[0].imag > 0))

    def _require_vanishing(self):
        if abs(self.const) > 1e-12:
            raise ValidationError(
                "RationalFunction", f"projection of a non-vanishing function (const {self.const})"
            )

    def prune(self):
        scale = max([abs(self.const)] + [abs(c) for _, _, c in self.terms] + [1.0])
        kept = tuple(t for t in self.terms if abs(t[2]) > DROP_TOL * scale)
        return RationalFunction(self.const, kept)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.full(lam.shape, self.const, dtype=complex)
        for p, o, c in self.terms:
            out = out + c / (lam - p) ** o
        return out

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def coeff_norm(self) -> float:
        return abs(self.const) + sum(abs(c) for _, _, c in self.terms)


def _coerce(v) -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, (int, float, complex)):
        return RationalFunction(complex(v), ())
    raise ValidationError("RationalFunction", f"cannot coerce {type(v).__name__}")


def _canonical(terms):
    merged: list[list] = []
    for pole, order, coeff in terms:
        if coeff == 0:
            continue
        for slot in merged:
            if slot[1] == order and abs(slot[0] - pole) <= POLE_MERGE_TOL:
                slot[2] += coeff
                break
        else:
            merged.append([pole, order, coeff])
    merged = [t for t in merged if t[2] != 0]
    merged.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return tuple((p, o, c) for p, o, c in merged)


def _expand_product(p, m, q, k, coeff):
    """Partial fractions of coeff / ((l-p)^m (l-q)^k)."""
    if abs(p - q) <= POLE_MERGE_TOL:
        return [(p, m + k, coeff)]
    out = []
    for r in range(1, m + 1):
        j = m - r
        alpha = (-1) ** j * comb(k + j - 1, j) / (p - q) ** (k + j)
        out.append((p, r, coeff * alpha))
    for s in range(1, k + 1):
        j = k - s
        beta = (-1) ** j * comb(m + j - 1, j) / (q - p) ** (m + j)
        out.append((q, s, coeff * beta))
    return out


def simple_pole(pole: complex, coeff: complex) -> RationalFunction:
    return RationalFunction(0.0, ((pole, 1, coeff),))


class RationalMatrix:
    """m x m matrix with RationalFunction entries."""

    def __init__(self, entries):
        entries = [[_coerce(e) for e in row] for row in entries]
        m = len(entries)
        if any(len(row) != m for row in entries):
            raise ValidationError("RationalMatrix", "must be square")
        self.entries = entries
        self.m = m

    @classmethod
    def identity(cls, m: int):
        return cls([[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)])

    def __add__(self, other):
        return RationalMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.m)] for i in range(self.m)]
        )

    def __sub__(self, other):
        return RationalMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(self.m)] for i in range(self.m)]
        )

    def __matmul__(self, other):
        out = []
        for i in range(self.m):
            row = []
            for j in range(self.m):
                acc = RationalFunction()
                for k in range(self.m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc.prune())
            out.append(row)
        return RationalMatrix(out)

    def plus_part(self):
        return RationalMatrix([[e.plus_part() for e in row] for row in self.entries])

    def prune(self):
        return RationalMatrix([[e.prune() for e in row] for row in self.entries])

    def evaluate(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        out = np.zeros((len(lam), self.m, self.m), dtype=complex)
        for i in range(self.m):
            for j in range(self.m):
                out[:, i, j] = self.entries[i][j](lam)
        return out

    def coeff_norm(self) -> float:
        return max(e.coeff_norm() for row in self.entries for e in row)
