"""Matrix Riemann-Hilbert machinery on the real line.

Additive Plemelj splitting, the regular multiplicative factorization
[I + A_plus] S = [I + A_minus] with canonical normalization and zero
partial indices, and the two-boundary block recovery that reduces the
half-axis inverse problem to whole-axis data.
"""

from __future__ import annotations

import numpy as np

from .domain import BoundaryMatrix, SINGULARITY_TOL
from .errors import (
    DegenerateBoundaryPair,
    EdgeDecayViolation,
    FredholmSingular,
    InconsistentInputs,
    NonConvergence,
    SingularScattering,
    ValidationError,
)
from .linefunc import Analyticity, LineMatrixFunction
from .projection import plus_projector_matrix, split_samples
from .rational import RationalMatrix

DEFAULT_EDGE_TOL = 1e-3
DEFAULT_RCOND_TOL = 1e-12
CONSISTENCY_TOL = 1e-6
VERIFY_TOL = 1e-3


def _strip_delta(f: LineMatrixFunction) -> float:
    tag = f.analyticity
    return tag.delta if tag.kind != "none" and np.isfinite(tag.delta) else 0.0


def plemelj_split(
    f: LineMatrixFunction,
    *,
    edge_tol: float = DEFAULT_EDGE_TOL,
    edge_correction: bool = True,
):
    """Additive split f = f_plus + f_minus with one-sided frequency content.

    f must decay at the grid ends; the split of a decaying function is unique
    and the DC bin is shared half-half between the parts.
    """
    edge = f.edge_norm()
    if edge > edge_tol:
        raise EdgeDecayViolation(edge, edge_tol)
    plus, minus = split_samples(f.grid, f.values, edge_correction=edge_correction)
    delta = _strip_delta(f)
    return (
        LineMatrixFunction(f.grid, plus, Analyticity("plus", delta)),
        LineMatrixFunction(f.grid, minus, Analyticity("minus", delta)),
    )


def split_residual(f: LineMatrixFunction, kind: str) -> float:
    """Sup norm of the frequency content on the wrong side of the axis.

    The testable surrogate for "analytic in the upper/lower half-plane":
    a plus function has vanishing minus content and vice versa.
    """
    plus, minus = split_samples(f.grid, f.values, edge_correction=True)
    wrong = minus if kind == "plus" else plus
    return float(np.abs(wrong).max())


def solve_regular_rh(
    s_matrix: LineMatrixFunction,
    *,
    edge_tol: float = DEFAULT_EDGE_TOL,
    singularity_tol: float = SINGULARITY_TOL,
    rcond_tol: float = DEFAULT_RCOND_TOL,
    edge_correction: bool = True,
):
    """Factor S as [I + A_plus]^{-1} [I + A_minus] by dense collocation.

    The factorization r S = I + A_minus with r = I + A_plus projects to the
    singular integral equation A_plus + C_plus[A_plus g] = -C_plus[g],
    g = S - I, discretized with the grid as collocation nodes and the
    frequency-projection Cauchy operator.  The unknown decouples by rows, so
    one (N m) dense LU serves all m rows.  A_minus is then r S - I; the
    factorization identity holds pointwise by construction and the quality
    metric is the one-sidedness of the returned parts.
    """
    import scipy.linalg

    grid = s_matrix.grid
    m = s_matrix.m
    n = len(grid)
    eye = np.eye(m)
    g = s_matrix.values - eye

    dets = np.abs(np.linalg.det(s_matrix.values))
    if dets.min() <= singularity_tol:
        idx = int(np.argmin(dets))
        raise SingularScattering(float(grid[idx]), float(dets[idx]))
    edge = max(np.abs(g[0]).max(), np.abs(g[-1]).max())
    if edge > edge_tol:
        raise EdgeDecayViolation(float(edge), edge_tol)

    proj = plus_projector_matrix(grid, edge_correction=edge_correction)
    big = np.zeros((m * n, m * n), dtype=complex)
    for c in range(m):
        for b in range(m):
            block = proj * g[:, b, c][None, :]
            if b == c:
                block = block + np.eye(n)
            big[c * n : (c + 1) * n, b * n : (b + 1) * n] = block

    anorm = np.abs(big).sum(axis=0).max()
    lu, piv = scipy.linalg.lu_factor(big, check_finite=False)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (big,))
    rcond, _ = gecon(lu, anorm, norm="1")
    if rcond < rcond_tol:
        raise FredholmSingular(float(rcond))

    rhs = np.zeros((m * n, m), dtype=complex)
    for k in range(m):
        for c in range(m):
            rhs[c * n : (c + 1) * n, k] = -(proj @ g[:, k, c])
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)

    a_plus = np.zeros((n, m, m), dtype=complex)
    for k in range(m):
        for c in range(m):
            a_plus[:, k, c] = sol[c * n : (c + 1) * n, k]
    a_minus = (a_plus + eye) @ s_matrix.values - eye

    delta = _strip_delta(s_matrix)
    out_plus = LineMatrixFunction(grid, a_plus, Analyticity("plus", delta))
    out_minus = LineMatrixFunction(grid, a_minus, Analyticity("minus", delta))
    # nonzero partial indices can leave the system numerically invertible yet
    # produce factors with content on the wrong side; verify one-sidedness
    scale = max(1.0, out_plus.sup_norm(), out_minus.sup_norm())
    wrong = max(split_residual(out_plus, "plus"), split_residual(out_minus, "minus"))
    if wrong > VERIFY_TOL * scale:
        raise FredholmSingular(float(rcond))
    return out_plus, out_minus


def solve_regular_rh_rational(
    s_matrix: RationalMatrix,
    grid: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
):
    """Exact-structure factorization path for rational S.

    Iterates r <- I - C_plus[r g] in partial-fraction arithmetic; the Cauchy
    projection just selects lower half-plane poles, so every iterate stays
    rational.  Converges when the Neumann series does (small ||g||); the
    dense grid path covers the rest.
    """
    m = s_matrix.m
    ident = RationalMatrix.identity(m)
    g = s_matrix - ident
    r = ident
    change = np.inf
    best = np.inf
    for it in range(max_iter):
        r_new = ident - (r @ g).plus_part().prune()
        change = (r_new - r).coeff_norm()
        r = r_new
        if change < tol:
            break
        best = min(best, change)
        if change > 1e3 * best or not np.isfinite(change):
            raise NonConvergence("rational factorization", it + 1, float(change))
    else:
        raise NonConvergence("rational factorization", max_iter, float(change))
    a_plus_rat = (r - ident).prune()
    a_minus_rat = ((r @ s_matrix) - ident).prune()
    a_plus = LineMatrixFunction(grid, a_plus_rat.evaluate(grid), Analyticity("plus", 0.0))
    a_minus = LineMatrixFunction(grid, a_minus_rat.evaluate(grid), Analyticity("minus", 0.0))
    return a_plus, a_minus, a_plus_rat, a_minus_rat


def recover_blocks(
    plus1: LineMatrixFunction,
    minus1: LineMatrixFunction,
    plus2: LineMatrixFunction,
    minus2: LineMatrixFunction,
    bnd1: BoundaryMatrix,
    bnd2: BoundaryMatrix,
    *,
    singularity_tol: float = SINGULARITY_TOL,
    consistency_tol: float = CONSISTENCY_TOL,
):
    """Block transforms from two boundary factorizations.

    Requires det(H1 - H2) != 0.  The redundant second-row expressions are
    reported (they agree identically once the first-row formulas are
    substituted, so their mismatch only measures floating-point noise); the
    operative check that both factorizations come from one potential is
    one-sidedness of the recovered blocks.  Returns (a11_minus, a12_plus,
    a21_minus, a22_plus) and a diagnostics dict.
    """
    h1, h2 = bnd1.H, bnd2.H
    dh = h1 - h2
    det = abs(np.linalg.det(dh))
    if det <= singularity_tol:
        raise DegenerateBoundaryPair(f"|det(H1 - H2)| = {det:.3e} <= tol {singularity_tol:.1e}")
    dinv = np.linalg.inv(dh)

    a12p = (plus2 - plus1).left_mul(dinv).with_tag(plus1.analyticity)
    a11m = (minus1.right_mul(h1) - minus2.right_mul(h2)).left_mul(dinv).with_tag(minus1.analyticity)

    a22p_1 = plus1 + a12p.left_mul(h1)
    a22p_2 = plus2 + a12p.left_mul(h2)
    mismatch_22 = float(np.abs(a22p_1.values - a22p_2.values).max())
    a21m_1 = a11m.left_mul(h1) - minus1.right_mul(h1)
    a21m_2 = a11m.left_mul(h2) - minus2.right_mul(h2)
    mismatch_21 = float(np.abs(a21m_1.values - a21m_2.values).max())
    if mismatch_22 > consistency_tol:
        raise InconsistentInputs("a22_plus", mismatch_22, consistency_tol)
    if mismatch_21 > consistency_tol:
        raise InconsistentInputs("a21_minus", mismatch_21, consistency_tol)

    # the expression mismatches vanish identically by the A12/A11 formulas, so
    # the operative compatibility check is one-sidedness of the recovered blocks:
    # data from two unrelated potentials produces content on the wrong side
    wrong = {
        "a12_plus": split_residual(a12p, "plus"),
        "a22_plus": split_residual(a22p_1, "plus"),
        "a11_minus": split_residual(a11m, "minus"),
        "a21_minus": split_residual(a21m_1, "minus"),
    }
    scale = max(
        1.0, a12p.sup_norm(), a22p_1.sup_norm(), a11m.sup_norm(), a21m_1.sup_norm()
    )
    worst = max(wrong, key=wrong.get)
    if wrong[worst] > max(consistency_tol * scale, 1e3 * np.finfo(float).eps):
        raise InconsistentInputs(worst, wrong[worst], consistency_tol * scale)

    diagnostics = {
        "mismatch_a22_plus": mismatch_22,
        "mismatch_a21_minus": mismatch_21,
        "wrong_side_content": wrong,
    }
    return (
        a11m,
        a12p.with_tag(plus1.analyticity),
        a21m_1.with_tag(minus1.analyticity),
        a22p_1.with_tag(plus1.analyticity),
    ), diagnostics


def solvability_report(s_matrix: LineMatrixFunction, *, singularity_tol: float = SINGULARITY_TOL) -> dict:
    """Determinant and definiteness diagnostics for a candidate jump matrix.

    Definiteness of the symmetrized real or imaginary part at every grid
    point is a sufficient condition for unique solvability of the associated
    second-kind equation.
    """
    vals = s_matrix.values
    dets = np.linalg.det(vals)
    idx = int(np.argmin(np.abs(dets)))
    herm = 0.5 * (vals + vals.conj().transpose(0, 2, 1))
    skew = (vals - vals.conj().transpose(0, 2, 1)) / 2j
    re_eigs = np.linalg.eigvalsh(herm)
    im_eigs = np.linalg.eigvalsh(skew)

    def definiteness(eigs: np.ndarray) -> str:
        if np.all(eigs > 0):
            return "positive"
        if np.all(eigs < 0):
            return "negative"
        return "indefinite"

    eye = np.eye(s_matrix.m)
    edge = max(np.abs(vals[0] - eye).max(), np.abs(vals[-1] - eye).max())
    return {
        "min_abs_det": float(np.abs(dets).min()),
        "argmin_lambda": float(s_matrix.grid[idx]),
        "nonsingular": bool(np.abs(dets).min() > singularity_tol),
        "re_part": definiteness(re_eigs),
        "im_part": definiteness(im_eigs),
        "definite_condition": definiteness(re_eigs) != "indefinite"
        or definiteness(im_eigs) != "indefinite",
        "edge_residual": float(edge),
    }
