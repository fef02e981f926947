"""Matrix Riemann-Hilbert machinery on the real line.

Additive Plemelj splitting, the regular multiplicative factorization
[I + A_plus] S = [I + A_minus] with canonical normalization and zero
partial indices, and the two-boundary block recovery that reduces the
half-axis inverse problem to whole-axis data.
"""

from __future__ import annotations

import numpy as np

from .domain import BoundaryMatrix, SINGULARITY_TOL, singular_grid_point
from .errors import (
    DegenerateBoundaryPair,
    EdgeDecayViolation,
    FredholmSingular,
    InconsistentInputs,
    SingularScattering,
)
from .linefunc import Analyticity, BlockTransforms, LineMatrixFunction, array_edge_norm
from .projection import split_samples
# the benchmark's tracer (perfbench/trace_child.py) wraps rh.plus_projector_matrix
from .projection import plus_projector_matrix  # noqa: F401

DEFAULT_EDGE_TOL = 1e-3
CONSISTENCY_TOL = 1e-6
VERIFY_TOL = 1e-3
# restarted GMRES for the collocation system: stop at GMRES_TOL relative
# residual, after a restart cycle that fails to halve its starting residual
# or after GMRES_CYCLES restarts; fail above GMRES_FAIL
GMRES_TOL = 1e-13
GMRES_FAIL = 1e-10
GMRES_RESTART = 50
GMRES_CYCLES = 4


def plemelj_split(
    f: LineMatrixFunction,
    *,
    edge_tol: float = DEFAULT_EDGE_TOL,
):
    """Additive split f = f_plus + f_minus with one-sided frequency content.

    f must decay at the grid ends; the split of a decaying function is unique
    and the DC bin is shared half-half between the parts.
    """
    edge = f.edge_norm()
    if edge > edge_tol:
        raise EdgeDecayViolation(edge, edge_tol)
    plus, minus = split_samples(f.grid, f.values)
    delta = f.analyticity.finite_delta
    return (
        LineMatrixFunction(f.grid, plus, Analyticity("plus", delta)),
        LineMatrixFunction(f.grid, minus, Analyticity("minus", delta)),
    )


def split_residual(f: LineMatrixFunction, kind: str) -> float:
    """Sup norm of the frequency content on the wrong side of the axis.

    The testable surrogate for "analytic in the upper/lower half-plane":
    a plus function has vanishing minus content and vice versa.
    """
    plus, minus = split_samples(f.grid, f.values)
    wrong = minus if kind == "plus" else plus
    return float(np.abs(wrong).max())


def _gmres(matvec, rhs: np.ndarray):
    """Restarted GMRES for matvec(x) = rhs, x shaped like rhs.

    Arnoldi with modified Gram-Schmidt; each iterate minimizes the residual
    over the Krylov space by a small least-squares solve on the Hessenberg
    matrix.  A restart cycle that does not halve the residual it started
    from has stalled (the system is singular), and ends the solve.  Returns
    (x, relative residual after each iteration).
    """
    bnorm = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    history: list[float] = []
    if bnorm == 0.0:
        return x, history
    basis = np.empty((GMRES_RESTART + 1,) + rhs.shape, dtype=complex)
    for _ in range(GMRES_CYCLES):
        r = rhs - matvec(x)
        beta = np.linalg.norm(r)
        basis[0] = r / beta
        hess = np.zeros((GMRES_RESTART + 1, GMRES_RESTART), dtype=complex)
        e1 = np.zeros(GMRES_RESTART + 1, dtype=complex)
        e1[0] = beta
        for j in range(GMRES_RESTART):
            w = matvec(basis[j])
            for i in range(j + 1):
                hess[i, j] = np.vdot(basis[i], w)
                w -= hess[i, j] * basis[i]
            hess[j + 1, j] = np.linalg.norm(w)
            h, rhs_j = hess[: j + 2, : j + 1], e1[: j + 2]
            y = np.linalg.lstsq(h, rhs_j, rcond=None)[0]
            history.append(float(np.linalg.norm(h @ y - rhs_j) / bnorm))
            if history[-1] <= GMRES_TOL or hess[j + 1, j] == 0.0:
                break
            basis[j + 1] = w / hess[j + 1, j]
        x = x + np.tensordot(y, basis[: len(y)], axes=1)
        if history[-1] <= GMRES_TOL or history[-1] > 0.5 * beta / bnorm:
            break
    return x, history


def solve_regular_rh(
    s_matrix: LineMatrixFunction,
    *,
    edge_tol: float = DEFAULT_EDGE_TOL,
):
    """Factor S as [I + A_plus]^{-1} [I + A_minus] by matrix-free collocation.

    The factorization r S = I + A_minus with r = I + A_plus projects to the
    singular integral equation X + P[X g] = -P[g] for X = A_plus, g = S - I,
    with the grid as collocation nodes and P the plus part of
    `split_samples` (tail-model corrected, linear in the samples).  Canonical
    normalization with zero partial indices makes I + P[. g] Fredholm of
    index 0, so a restarted GMRES solves it from its action alone: one
    batched (N, m, m) product and one split per iteration, O(m^2 N) memory.
    A_minus is then r S - I; the factorization identity holds pointwise by
    construction and the quality metric is the one-sidedness of the parts.

    Raises SingularScattering when |det S| falls to domain.SINGULARITY_TOL
    on the grid, EdgeDecayViolation when g does not decay at the grid ends
    (edge_tol), and FredholmSingular when GMRES stalls above GMRES_FAIL (the
    system is singular) or the factors carry content on the wrong side of
    the axis (nonzero partial indices can leave the discrete system
    invertible).
    Returns (A_plus, A_minus, diagnostics) with the GMRES residual history
    and the wrong-side content of each factor.
    """
    grid = s_matrix.grid
    eye = np.eye(s_matrix.m)
    g = s_matrix.values - eye

    if worst := singular_grid_point(grid, s_matrix.values):
        raise SingularScattering(*worst)
    edge = array_edge_norm(g)
    if edge > edge_tol:
        raise EdgeDecayViolation(edge, edge_tol)

    def plus_part(values):
        return split_samples(grid, values)[0]

    a_plus, history = _gmres(lambda x: x + plus_part(x @ g), -plus_part(g))
    residual = history[-1] if history else 0.0
    if not residual <= GMRES_FAIL:
        raise FredholmSingular(residual, f"GMRES relative residual {residual:.3e} > {GMRES_FAIL:.0e}")
    a_minus = (a_plus + eye) @ s_matrix.values - eye

    delta = s_matrix.analyticity.finite_delta
    out_plus = LineMatrixFunction(grid, a_plus, Analyticity("plus", delta))
    out_minus = LineMatrixFunction(grid, a_minus, Analyticity("minus", delta))
    diagnostics = {
        "gmres_residuals": history,
        "plus_wrong_side_content": split_residual(out_plus, "plus"),
        "minus_wrong_side_content": split_residual(out_minus, "minus"),
    }
    scale = max(1.0, out_plus.sup_norm(), out_minus.sup_norm())
    wrong = max(diagnostics["plus_wrong_side_content"], diagnostics["minus_wrong_side_content"])
    if wrong > VERIFY_TOL * scale:
        raise FredholmSingular(residual, f"factors carry wrong-side content {wrong:.3e}")
    return out_plus, out_minus, diagnostics


def recover_blocks(
    plus1: LineMatrixFunction,
    minus1: LineMatrixFunction,
    plus2: LineMatrixFunction,
    minus2: LineMatrixFunction,
    bnd1: BoundaryMatrix,
    bnd2: BoundaryMatrix,
):
    """Block transforms from two boundary factorizations.

    Requires |det(H1 - H2)| > domain.SINGULARITY_TOL.  A12+ and A11- come
    from the difference of the two factorizations, A22+ and A21- from the
    first one.  A combination of one-sided factors is one-sided, so the
    check is one-sidedness of the recovered blocks, to CONSISTENCY_TOL
    relative to their size: it catches input factors that are not
    themselves one-sided, not factorizations of two unrelated potentials.
    Returns the BlockTransforms, which transmission_matrix turns into the
    whole-axis P and Pi, and a diagnostics dict.
    """
    h1, h2 = bnd1.H, bnd2.H
    dh = h1 - h2
    det = abs(np.linalg.det(dh))
    if det <= SINGULARITY_TOL:
        raise DegenerateBoundaryPair(f"|det(H1 - H2)| = {det:.3e} <= tol {SINGULARITY_TOL:.1e}")
    dinv = np.linalg.inv(dh)

    a12p = (plus2 - plus1).left_mul(dinv).with_tag(plus1.analyticity)
    a11m = (minus1.right_mul(h1) - minus2.right_mul(h2)).left_mul(dinv).with_tag(minus1.analyticity)
    a21m = a11m.left_mul(h1) - minus1.right_mul(h1)
    a22p = plus1 + a12p.left_mul(h1)
    blocks = BlockTransforms(a11m, a12p, a21m, a22p)

    wrong = {name: split_residual(f, name.split("_")[1]) for name, f in zip(blocks._fields, blocks)}
    tol = CONSISTENCY_TOL * max(1.0, *(f.sup_norm() for f in blocks))
    worst = max(wrong, key=wrong.get)
    if wrong[worst] > tol:
        raise InconsistentInputs(worst, wrong[worst], tol)
    return blocks, {"wrong_side_content": wrong}


def solvability_report(s_matrix: LineMatrixFunction) -> dict:
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

    return {
        "min_abs_det": float(np.abs(dets).min()),
        "argmin_lambda": float(s_matrix.grid[idx]),
        "nonsingular": singular_grid_point(s_matrix.grid, vals) is None,
        "re_part": definiteness(re_eigs),
        "im_part": definiteness(im_eigs),
        "definite_condition": definiteness(re_eigs) != "indefinite"
        or definiteness(im_eigs) != "indefinite",
        "edge_residual": array_edge_norm(vals - np.eye(s_matrix.m)),
    }
