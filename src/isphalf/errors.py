"""Exception types shared across the library.

Numerical failures carry enough context (grid point, offending quantity)
for the CLI to name them in run reports.
"""

from __future__ import annotations


class IspError(Exception):
    """Base class for all library errors."""


class NumericalError(IspError):
    """A well-formed input on which a numerical operation failed.

    The CLI exits 1 for these and 2 for every other IspError (input errors).
    """


class NonConvergence(NumericalError):
    """An iterative solve exceeded its sweep budget."""

    def __init__(self, what: str, sweeps: int, last_change: float):
        super().__init__(
            f"{what}: no convergence after {sweeps} sweeps "
            f"(last sup-norm change {last_change:.3e})"
        )
        self.what = what
        self.sweeps = sweeps
        self.last_change = last_change


class SingularH(IspError):
    """Boundary matrix fails its determinant tolerance."""


class SingularOnGrid(NumericalError):
    """A matrix function is singular at a real grid point: `value` is the
    least |det| on the grid, found at lambda = `lam` (domain.singular_grid_point)."""

    determinant = "det"

    def __init__(self, lam: float, value: float):
        super().__init__(f"|{self.determinant}| = {value:.3e} at lambda = {lam:.6g}")
        self.lam = lam
        self.value = value


class SingularFactor(SingularOnGrid):
    """det(I + A_plus) fell below tolerance at a real grid point."""

    determinant = "det(I + A_plus)"


class SingularP(SingularOnGrid):
    """The boundary-value map P(lambda) is not invertible at a grid point."""

    determinant = "det P"


class EdgeDecayViolation(NumericalError):
    """A function handed to the additive split does not decay at the grid ends."""

    def __init__(self, edge_norm: float, tol: float):
        super().__init__(
            f"edge norm {edge_norm:.3e} exceeds the split tolerance {tol:.3e}; "
            "enlarge the grid or raise the edge tolerance"
        )
        self.edge_norm = edge_norm
        self.tol = tol


class SingularScattering(SingularOnGrid):
    """det S(lambda) vanishes on the grid; the jump matrix is not invertible."""

    determinant = "det S"


class FredholmSingular(NumericalError):
    """The discretized factorization system has no regular solution.

    GMRES stalled (a nontrivial homogeneous solution) or the factors it
    returned are not one-sided: the problem is not regular with zero
    partial indices.  `residual` is the final GMRES relative residual.
    """

    def __init__(self, residual: float, reason: str):
        super().__init__(f"factorization system not regular: {reason}")
        self.residual = residual


class DegenerateBoundaryPair(NumericalError):
    """det(H1 - H2) is below tolerance; block recovery is impossible."""


class InconsistentInputs(NumericalError):
    """A block recovered from two factorizations is not one-sided.

    `mismatch` is its wrong-side content, `tol` the bound it exceeds.
    """

    def __init__(self, which: str, mismatch: float, tol: float):
        super().__init__(f"recovered {which} carries wrong-side content {mismatch:.3e} (tol {tol:.3e})")
        self.which = which
        self.mismatch = mismatch
        self.tol = tol


class RankDeficient(NumericalError):
    """Per-point coefficient recovery systems are rank deficient."""

    def __init__(self, deficiency: int, fraction: float, diagnostics=None):
        super().__init__(
            f"recovery system rank deficient (deficiency {deficiency}, "
            f"at {100.0 * fraction:.1f}% of grid points)"
        )
        self.deficiency = deficiency
        self.fraction = fraction
        self.diagnostics = diagnostics


class ParseError(IspError):
    """Malformed input file."""

    def __init__(self, path, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = str(path)
        self.detail = detail


class ValidationError(IspError):
    """A configuration or input value violates a documented invariant."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field}: {detail}")
        self.field = field
        self.detail = detail
