import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isphalf.domain import Dispersion, validate_potential
from isphalf.edge_coupled import (
    EdgeBoundary,
    EdgeCoupledSystem,
    EdgeProfiles,
    _boundary_rows,
    _column_entries,
    _edge_rates,
    _family_matrix,
    edge_explicit_solution,
    edge_invert_transforms,
    edge_roundtrip,
    edge_scattering,
    edge_solve_coefficients,
    edge_split,
)
from isphalf.errors import EdgeDecayViolation, RankDeficient, ValidationError
from isphalf.forward import (
    boundary_parts,
    kernel_transforms,
    scattering_matrix,
    solve_bounded_solution,
    solve_kernels,
)
from isphalf.domain import BoundaryMatrix
from isphalf.linefunc import make_grid
from isphalf.profiles import ExpSumProfile, SampledProfile
from isphalf.projection import MODEL_W, _split_model, pole_basis, split_densities, split_samples
from isphalf.rh import plemelj_split
from isphalf.serialize import random_edge_system


@pytest.fixture(scope="module")
def grid():
    return make_grid(100.0, 4096)


def exact_edge_profiles(sys_: EdgeCoupledSystem, bnd: EdgeBoundary, s_grid: np.ndarray) -> EdgeProfiles:
    """Closed-form c_{k+-}(s), the oracle of the inversion tests."""
    s = np.asarray(s_grid, dtype=float)
    beta_first, beta_last = _edge_rates(sys_.disp)

    def part(profiles, rates):
        density = np.array([p(s / beta) / beta for p, beta in zip(profiles, rates)])
        return 1j * _boundary_rows(bnd.h_block, density)

    return EdgeProfiles(s, part(sys_.c_first, beta_first), part(sys_.c_last, beta_last))


def nonzero_count(pot):
    return sum(not p.is_zero for name in ("q11", "q12", "q21", "q22") for row in pot.block(name) for p in row)


def negated(sys_):
    """The system with every (exponential-sum) coupling profile negated."""
    def neg(profiles):
        return tuple(ExpSumProfile(tuple((-g, a) for g, a in p.terms)) for p in profiles)

    return EdgeCoupledSystem(sys_.disp, neg(sys_.c_first), neg(sys_.c_last), sys_.envelope)


def test_needs_middle_rows():
    with pytest.raises(ValidationError):
        EdgeCoupledSystem(Dispersion(1, (-1.0, 1.0)))


def test_embedding_is_valid_potential(e1_system):
    pot = e1_system.as_potential()
    assert validate_potential(pot) == []
    # the single coupling lands in the lower-left block, first column
    assert not pot.q21[0][0].is_zero
    assert nonzero_count(pot) == 1


def test_embedding_structure_general_n():
    d = Dispersion(3, (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0))
    e = ExpSumProfile(((0.5, 1.0),))
    sys3 = EdgeCoupledSystem(d, c_first=(e,) * 4, c_last=(e,) * 4)
    pot = sys3.as_potential()
    assert validate_potential(pot) == []
    # rows 2..n fill column 1 below the diagonal, rows n+1..2n-1 fill the
    # anti block; the last column mirrors this above
    assert nonzero_count(pot) == 8


def test_scattering_zero_profiles(grid, e1_disp):
    sys0 = EdgeCoupledSystem(e1_disp)
    s = edge_scattering(sys0, EdgeBoundary(2, [[1.0]]), grid)
    np.testing.assert_allclose(
        s.values, np.broadcast_to(np.eye(2), s.values.shape), atol=0
    )


def test_scattering_closed_form(grid, e1_system, e1_boundaries):
    s = edge_scattering(e1_system, e1_boundaries[0], grid)
    want = 1j / (1 + 3j * grid)
    assert np.abs(s.values[:, 0, 1] - want).max() < 1e-14
    assert s.analyticity.kind == "strip"
    assert s.analyticity.delta == pytest.approx(0.25)


def test_scattering_support_structure(grid):
    d = Dispersion(3, (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0))
    e = ExpSumProfile(((0.4, 1.2),))
    sys3 = EdgeCoupledSystem(d, c_first=(e, None, e, None), c_last=(None, e, None, e))
    rng = np.random.default_rng(0)
    bnd = EdgeBoundary(3, rng.standard_normal((2, 2)) + np.eye(2) * 2)
    s = edge_scattering(sys3, bnd, grid)
    dev = s.values - np.eye(3)
    # support only in column n, rows 1..n-1
    mask = np.zeros((3, 3), bool)
    mask[:2, 2] = True
    assert np.abs(dev[:, ~mask]).max() == 0.0
    assert np.abs(dev[:, mask]).max() > 0.0


def test_explicit_solution_free_case(e1_disp):
    sys0 = EdgeCoupledSystem(e1_disp)
    x = np.linspace(0, 3, 7)
    lam = 1.7
    z = edge_explicit_solution(sys0, lam, [1.0, 2.0], [3.0, 4.0], x)
    xi = e1_disp.xi_arr
    amps = np.array([1.0, 2.0, 3.0, 4.0])
    want = amps[:, None] * np.exp(1j * lam * xi[:, None] * x[None, :])
    np.testing.assert_allclose(z, want, atol=1e-14)


def test_explicit_solution_boundary_value(e1_system):
    z = edge_explicit_solution(e1_system, 0.0, [1.0, 0.5], [0.7, 0.3], np.array([0.0]))
    assert z[2, 0] == pytest.approx(0.7 - 1j)


def test_explicit_solution_matches_generic_solver(e1_system, e1_disp):
    # the class's printed formulas differ from the generic convention by the
    # sign of the couplings; embedding the negated system reconciles them
    pot = negated(e1_system).as_potential()
    rng = np.random.default_rng(2)
    for lam in (0.9, -2.4, 5.1):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sol = solve_bounded_solution(pot, e1_disp, lam, a, b, step=0.005)
        z = edge_explicit_solution(e1_system, lam, a, b, sol.x_grid)
        got = np.concatenate([sol.y1.T, sol.y2.T])
        assert np.abs(got - z).max() < 1e-5


def test_scattering_matches_generic_chain(e1_system, e1_disp, e1_boundaries):
    # same reconciliation at the scattering level: S_edge - I = -(S_generic - I)
    pot = negated(e1_system).as_potential()
    ker = solve_kernels(pot, e1_disp, step=0.02, x_max=16.0, tau_max=36.0)
    grid = make_grid(100.0, 2048)
    blocks = kernel_transforms(ker, e1_disp, grid)
    bnd = BoundaryMatrix(e1_boundaries[0].as_matrix())
    plus, minus = boundary_parts(blocks, bnd)
    s_generic = scattering_matrix(plus, minus)
    s_edge = edge_scattering(e1_system, e1_boundaries[0], grid)
    assert np.abs(s_edge.values - s_generic.values).max() < 1e-6


def test_split_of_column_entries(grid, e1_system, e1_boundaries):
    s = edge_scattering(e1_system, e1_boundaries[0], grid)
    ((plus, minus),) = edge_split(s)
    want = 1j / (1 + 3j * grid)
    assert plus.sup_norm() < 1e-6  # pole in the upper half-plane: minus-type
    assert np.abs(minus.values[:, 0, 0] - want).max() < 1e-6


def test_invert_transform_closed_form(grid, e1_system, e1_boundaries, e1_disp):
    s = edge_scattering(e1_system, e1_boundaries[0], grid)
    prof = edge_invert_transforms(s, s_max=40.0)
    # the s-step is conjugate to the lambda grid: pi / lambda_max
    np.testing.assert_allclose(np.diff(prof.s_grid), np.pi / 100.0, rtol=1e-12)
    want = (1j / 3) * np.exp(-prof.s_grid / 3)
    assert np.abs(prof.c_minus[0] - want).max() < 1e-5
    assert np.abs(prof.c_plus[0]).max() < 1e-5


def test_profile_decay_bound(e1_system, e1_boundaries, e1_disp):
    s_grid = np.linspace(0, 40, 401)
    exact = exact_edge_profiles(e1_system, e1_boundaries[0], s_grid)
    np.testing.assert_allclose(exact.c_minus[0], (1j / 3) * np.exp(-s_grid / 3), atol=1e-14)


def test_exact_profiles_match_split_parts(grid, e1_disp):
    # forward-defined half-line data equals the split parts of the scattering
    # entries (the entire-function argument, checked numerically)
    e = ExpSumProfile(((0.6, 1.0),))
    f = ExpSumProfile(((0.3j, 1.5),))
    sys_full = EdgeCoupledSystem(e1_disp, c_first=(e, f), c_last=(f, e))
    bnd = EdgeBoundary(2, [[1.3]])
    s = edge_scattering(sys_full, bnd, grid)
    prof = edge_invert_transforms(s, s_max=30.0, edge_tol=3e-2)
    exact = exact_edge_profiles(sys_full, bnd, prof.s_grid)
    assert np.abs(prof.c_minus - exact.c_minus).max() < 1e-5
    assert np.abs(prof.c_plus - exact.c_plus).max() < 1e-5


def test_inverted_densities_match_exact_profiles_tightly(grid, e1_system, e1_boundaries, e1_disp):
    # on the fixtures of the two tests above, the densities read off the
    # split's own spectrum and tail model lie within 1e-7 of the closed form
    e = ExpSumProfile(((0.6, 1.0),))
    f = ExpSumProfile(((0.3j, 1.5),))
    cases = (
        (e1_system, e1_boundaries[0], 40.0, 1e-2),
        (EdgeCoupledSystem(e1_disp, c_first=(e, f), c_last=(f, e)), EdgeBoundary(2, [[1.3]]), 30.0, 3e-2),
    )
    for sys_, bnd, s_max, edge_tol in cases:
        prof = edge_invert_transforms(edge_scattering(sys_, bnd, grid), s_max=s_max, edge_tol=edge_tol)
        exact = exact_edge_profiles(sys_, bnd, prof.s_grid)
        assert np.abs(prof.c_minus - exact.c_minus).max() < 2e-7
        assert np.abs(prof.c_plus - exact.c_plus).max() < 2e-7


def test_solve_coefficients_recovers(e1_system, e1_boundaries, e1_disp, grid):
    datasets = []
    for bnd in e1_boundaries:
        s = edge_scattering(e1_system, bnd, grid)
        prof = edge_invert_transforms(s, s_max=40.0)
        datasets.append((prof, bnd))
    rec = edge_solve_coefficients(datasets, e1_disp)
    # row r - 2 of first / last holds c_{r,first}(s / (xi_r - xi_1)) / c_{r,last}(s / (xi_4 - xi_r));
    # only c_{3,first}(x) = e^{-x} is nonzero
    xi = e1_disp.xi_arr
    for r in (2, 3):
        for which, rows, beta in (("first", rec.first, xi[r - 1] - xi[0]), ("last", rec.last, xi[3] - xi[r - 1])):
            x = rec.s_grid / beta
            keep = x <= 10.0
            truth = np.exp(-x[keep]) if (r, which) == (3, "first") else 0.0
            assert np.abs(rows[r - 2][keep] - truth).max() < 1e-4
    assert rec.diagnostics["minus_rank"] == 2


def test_single_dataset_rank_deficient(e1_system, e1_boundaries, e1_disp, grid):
    s = edge_scattering(e1_system, e1_boundaries[0], grid)
    prof = edge_invert_transforms(s, s_max=40.0)
    with pytest.raises(RankDeficient) as info:
        edge_solve_coefficients([(prof, e1_boundaries[0])], e1_disp)
    assert info.value.deficiency == 1
    assert info.value.fraction == 1.0


def test_equal_boundaries_rank_deficient(e1_system, e1_boundaries, e1_disp, grid):
    s = edge_scattering(e1_system, e1_boundaries[0], grid)
    prof = edge_invert_transforms(s, s_max=40.0)
    with pytest.raises(RankDeficient) as info:
        edge_solve_coefficients([(prof, e1_boundaries[0]), (prof, e1_boundaries[0])], e1_disp)
    assert info.value.fraction == 1.0


def test_block_difference_rank_condition(e1_disp):
    # invertibility of the per-point system reduces to h12 != h12~ at n = 2
    mat_ok = EdgeBoundary(2, [[1.0]]), EdgeBoundary(2, [[2.0]])
    from isphalf.edge_coupled import _family_matrix

    m = _family_matrix(e1_disp, mat_ok, "minus")
    assert np.linalg.matrix_rank(m) == 2
    m_bad = _family_matrix(e1_disp, (mat_ok[0], mat_ok[0]), "minus")
    assert np.linalg.matrix_rank(m_bad) == 1


def test_roundtrip_single_exponential(e1_system, e1_boundaries, grid):
    rep = edge_roundtrip(e1_system, *e1_boundaries, grid, compare_to=10.0)
    assert rep["max_rel_error"] < 1e-4


def test_roundtrip_n3_random(grid):
    rng = np.random.default_rng(31)
    d = Dispersion(3, (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5))

    def prof():
        terms = tuple(
            (
                0.3 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2,
                float(rng.uniform(1.0, 2.0)),
            )
            for _ in range(2)
        )
        return ExpSumProfile(terms)

    sys3 = EdgeCoupledSystem(d, c_first=tuple(prof() for _ in range(4)),
                             c_last=tuple(prof() for _ in range(4)))
    b1 = EdgeBoundary(3, np.array([[1.0, 0.4], [-0.3, 1.5]]))
    b2 = EdgeBoundary(3, np.array([[2.0, -0.2], [0.5, 0.8]]))
    rep = edge_roundtrip(sys3, b1, b2, grid, compare_to=10.0, split_edge_tol=5e-2)
    assert rep["max_rel_error"] < 1e-3


def test_roundtrip_zero_system(e1_disp, e1_boundaries, grid):
    sys0 = EdgeCoupledSystem(e1_disp)
    rep = edge_roundtrip(sys0, *e1_boundaries, grid)
    assert rep["max_rel_error"] < 1e-12


def test_split_symmetric_rational_sum_tight(grid):
    # one plus-type and one minus-type simple pole, parts recovered sharply
    f = 1j / (grid + 1j) - 1j / (grid - 1j)
    from isphalf.linefunc import LineMatrixFunction

    fp, fm = edge_split(
        LineMatrixFunction(grid, np.stack([np.ones_like(f), f, np.zeros_like(f), np.ones_like(f)], axis=1).reshape(len(grid), 2, 2))
    )[0]
    assert np.abs(fp.values[:, 0, 0] - 1j / (grid + 1j)).max() < 5e-8
    assert np.abs(fm.values[:, 0, 0] + 1j / (grid - 1j)).max() < 5e-8


# -- references: the per-row loop forms of the boundary combination, kept
# verbatim; the shims give them the 1-based accessors they were written for


class _OneBasedSystem:
    def __init__(self, sys):
        self.n, self.disp, self.envelope = sys.n, sys.disp, sys.envelope
        self.c_first, self.c_last = sys.c_first, sys.c_last

    def profile_first(self, k):
        return self.c_first[k - 2]

    def profile_last(self, k):
        return self.c_last[k - 2]


class _OneBasedBoundary:
    def __init__(self, bnd):
        self.h_block = bnd.h_block

    def entry(self, k, j):
        return complex(self.h_block[k - 1, j - 2])


def reference_column_entries(sys, bnd, lam):
    n = sys.n
    beta_first, beta_last = _edge_rates(sys.disp)
    out = np.zeros((n - 1, len(lam)), dtype=complex)
    for k in range(1, n):
        acc = np.zeros(len(lam), dtype=complex)
        pf = sys.profile_first(n + k)
        if not pf.is_zero:
            acc += pf.halfline_transform(-lam * beta_first[n + k - 2])
        pl = sys.profile_last(n + k)
        if not pl.is_zero:
            acc += pl.halfline_transform(lam * beta_last[n + k - 2])
        for j in range(2, n + 1):
            h = bnd.entry(k, j)
            if h == 0:
                continue
            pf = sys.profile_first(j)
            if not pf.is_zero:
                acc -= h * pf.halfline_transform(-lam * beta_first[j - 2])
            pl = sys.profile_last(j)
            if not pl.is_zero:
                acc -= h * pl.halfline_transform(lam * beta_last[j - 2])
        out[k - 1] = 1j * acc
    return out


def reference_exact_edge_profiles(sys, bnd, s_grid):
    """(c_minus, c_plus) of the closed form."""
    n = sys.n
    s = np.asarray(s_grid, dtype=float)
    c_minus = np.zeros((n - 1, len(s)), dtype=complex)
    c_plus = np.zeros((n - 1, len(s)), dtype=complex)
    beta_first, beta_last = _edge_rates(sys.disp)
    for out, profiles, rates in ((c_minus, sys.c_first, beta_first), (c_plus, sys.c_last, beta_last)):
        density = [p(s / beta) / beta for p, beta in zip(profiles, rates)]
        for k in range(1, n):
            acc = density[n + k - 2]
            for j in range(2, n + 1):
                acc = acc - bnd.entry(k, j) * density[j - 2]
            out[k - 1] = 1j * acc
    return c_minus, c_plus


def reference_family_matrix(disp, boundaries, which):
    n = disp.n
    beta_first, beta_last = _edge_rates(disp)
    rates = beta_first if which == "minus" else beta_last
    return np.vstack(
        [np.hstack([-bnd.h_block / rates[: n - 1], np.diag(1.0 / rates[n - 1 :])]) for bnd in boundaries]
    )


def reference_split_densities(grid, values, count):
    """(plus, minus) densities as dense phase sums on the first count points
    s_k = k 2 pi / (N d lambda) of the s-lattice conjugate to grid: the
    window sum of each split part minus the split model's part, plus the
    closed-form density of that model part.

    There s_k lambda_j = s_k lambda_0 + 2 pi (k j mod N) / N, and the phase
    is formed as those two factors: a product s_k lambda_j of hundreds of
    radians would carry a rounding error of its own above the tests' bounds.
    """
    n = len(grid)
    step = float(grid[1] - grid[0])
    k = np.arange(count)
    s_points = (2.0 * np.pi / (n * step)) * k
    w = MODEL_W
    a, g = _split_model(grid, values)
    plus, minus = split_samples(grid, values)
    es = np.exp(-w * s_points)[:, None]
    s = s_points[:, None]
    out = []
    # the plus part is int c e^{+i lambda s} ds, its model poles sit at -i w
    for sgn, part, coef, pole in ((-1.0, plus, a, -1j * w), (1.0, minus, g, 1j * w)):
        rem = part - pole_basis(grid, pole) @ coef
        phases = np.exp(sgn * 1j * s_points * grid[0])[:, None] * np.exp(
            sgn * 2j * np.pi / n * (np.outer(k, np.arange(n)) % n)
        )
        dens = (step / (2.0 * np.pi)) * (phases @ rem)
        if sgn > 0:
            dens += coef[0] * 1j * es + coef[1] * (-s * es) + coef[2] * (-0.5j * s ** 2 * es)
        else:
            dens += coef[0] * (-1j) * es + coef[1] * (-s * es) + coef[2] * (0.5j * s ** 2 * es)
        out.append(dens)
    return tuple(out)


def assert_close(got, want):
    """Sup-norm agreement within 1e-13 relative; a zero reference must come out zero."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)


def check_row_array_formulas(n, seed, gaps, zero):
    """The row-array formulas against the per-row references for one system:
    speeds from the 2n gaps, seeded couplings with those flagged in zero
    (4n - 4 flags, first family then last) left out."""
    xi = [-float(v) for v in np.cumsum(gaps[:n])[::-1]] + [float(v) for v in np.cumsum(gaps[n:])]
    drawn = random_edge_system({"n": n, "xi": xi}, seed)
    sys_ = EdgeCoupledSystem(
        drawn.disp,
        tuple(None if z else p for z, p in zip(zero[: 2 * n - 2], drawn.c_first)),
        tuple(None if z else p for z, p in zip(zero[2 * n - 2 :], drawn.c_last)),
        drawn.envelope,
    )
    rng = np.random.default_rng(seed)
    boundaries = [
        EdgeBoundary(n, 0.5 * (rng.uniform(-1, 1, (n - 1, n - 1)) + 1j * rng.uniform(-1, 1, (n - 1, n - 1)))
                     + n * np.eye(n - 1))
        for _ in range(2)
    ]
    bnd = boundaries[0]
    if n > 2:
        assert not np.allclose(bnd.h_block, bnd.h_block.T)
    ref_sys, ref_bnd = _OneBasedSystem(sys_), _OneBasedBoundary(bnd)

    grid = make_grid(50.0, 256)
    col = _column_entries(sys_, bnd, grid)
    assert_close(col, reference_column_entries(ref_sys, ref_bnd, grid))

    s = np.arange(0.0, 10.0, np.pi / 50.0)
    exact = exact_edge_profiles(sys_, bnd, s)
    c_minus, c_plus = reference_exact_edge_profiles(ref_sys, ref_bnd, s)
    assert_close(exact.c_minus, c_minus)
    assert_close(exact.c_plus, c_plus)

    for which in ("minus", "plus"):
        assert_close(_family_matrix(sys_.disp, boundaries, which),
                     reference_family_matrix(sys_.disp, boundaries, which))

    # the densities of all n - 1 column entries from one call equal those of
    # each entry alone, both parts against the larger density
    got = np.array(split_densities(grid, col.T, len(s)))
    per_entry = [split_densities(grid, c[:, None], len(s)) for c in col]
    assert_close(got, np.array([np.hstack(part) for part in zip(*per_entry)]))


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_row_array_formulas_match_per_row_references(n, seed, data):
    gaps = data.draw(st.lists(st.floats(0.2, 1.5), min_size=2 * n, max_size=2 * n))
    zero = data.draw(st.lists(st.booleans(), min_size=4 * n - 4, max_size=4 * n - 4))
    check_row_array_formulas(n, seed, gaps, zero)


def test_row_array_formulas_on_a_long_phase_example():
    # phases s lambda reach 500 rad on this example's s-range and grid
    check_row_array_formulas(2, 489241, [1.0, 0.203125, 1.0, 1.0], [False] * 4)


@settings(max_examples=40, deadline=None, database=None)
@given(
    log_n=st.sampled_from([6, 8, 10]),
    kind=st.sampled_from(["minus", "plus"]),
    cols=st.integers(1, 3),
    lam_max=st.integers(10, 200),
    offset_quarter=st.floats(-1.0, 1.0),
    short_fraction=st.floats(0.0, 1.0),
    long_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_densities_fft_matches_dense_phase_sum(
    log_n, kind, cols, lam_max, offset_quarter, short_fraction, long_fraction, seed
):
    # the spectrum reads against the dense s x lambda product on the conjugate
    # lattice, with s-grids shorter and longer than N (the k mod N wrap) and
    # a grid shifted by whole steps
    n = 2**log_n
    step = 2.0 * lam_max / n
    grid = make_grid(float(lam_max), n) + round(offset_quarter * n / 4) * step
    rng = np.random.default_rng(seed)
    sgn = 1.0 if kind == "minus" else -1.0
    values = np.zeros((n, cols), dtype=complex)
    for c in range(cols):
        # one-sided transforms of c(s) = sum gamma e^{-a s}: poles on the kind's side
        for _ in range(3):
            gamma = rng.standard_normal() + 1j * rng.standard_normal()
            values[:, c] += gamma / (rng.uniform(0.5, 3.0) + sgn * 1j * grid)
    for count in (1 + round(short_fraction * (n - 1)), n + 1 + round(long_fraction * n)):
        # both parts against the larger density: the part of the other kind is small
        got, want = np.array(split_densities(grid, values, count)), np.array(reference_split_densities(grid, values, count))
        assert got.shape == want.shape == (2, count, cols)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    tol_index=st.integers(0, 4),
)
def test_edge_split_matches_per_entry_plemelj_split(n, seed, tol_index):
    gaps = np.random.default_rng(seed).uniform(0.2, 1.5, 2 * n)
    xi = [-float(v) for v in np.cumsum(gaps[:n])[::-1]] + [float(v) for v in np.cumsum(gaps[n:])]
    sys_ = random_edge_system({"n": n, "xi": xi}, seed)
    rng = np.random.default_rng(seed)
    bnd = EdgeBoundary(n, rng.uniform(-1, 1, (n - 1, n - 1)) + n * np.eye(n - 1))
    s_mat = edge_scattering(sys_, bnd, make_grid(50.0, 256))
    entries = [s_mat.entry(k, n - 1) for k in range(n - 1)]
    # a tolerance just under one entry's edge norm makes the checks raise,
    # and the first entry in row order over it must be the one reported
    edges = sorted(f.edge_norm() for f in entries)
    edge_tol = 1.0 if tol_index >= len(edges) else edges[tol_index] * (1 - 1e-9)
    try:
        want = [plemelj_split(f, edge_tol=edge_tol) for f in entries]
    except EdgeDecayViolation as exc:
        with pytest.raises(EdgeDecayViolation) as info:
            edge_split(s_mat, edge_tol=edge_tol)
        assert str(info.value) == str(exc)
        return
    got = edge_split(s_mat, edge_tol=edge_tol)
    assert len(got) == len(want)
    for got_parts, want_parts in zip(got, want):
        for g, w in zip(got_parts, want_parts):
            assert g.analyticity == w.analyticity
            assert np.array_equal(g.grid, w.grid)
            assert_close(g.values, w.values)


def test_explicit_solution_sampled_coupling_matches_expsum(e1_disp):
    # c_{3,first}(x) = e^{-x} and c_{2,last}(x) = 0.5i e^{-2x}, sampled at dx with
    # the exact tail rate: the sampled transforms differ from the closed form
    # only by the linear-interpolation error, at most dx^2/8 |f''| per unit
    # length, so |transform error| <= (dx^2/8) sum |gamma| a e^{a dx}
    dx, x_max = 0.01, 12.0
    x_samples = np.arange(0.0, x_max + dx / 2, dx)
    terms = {"first": (1.0, 1.0), "last": (0.5j, 2.0)}
    exact = {k: ExpSumProfile(((g, a),)) for k, (g, a) in terms.items()}
    sampled = {k: SampledProfile(dx, g * np.exp(-a * x_samples), tail_rate=a) for k, (g, a) in terms.items()}
    systems = [EdgeCoupledSystem(e1_disp, c_first=(None, p["first"]), c_last=(p["last"], None)) for p in (exact, sampled)]
    a, b = np.array([1.0, 0.5 - 0.2j]), np.array([0.7, 0.3 + 0.4j])
    bound = max(abs(a[0]), abs(b[-1])) * sum(abs(g) * r * np.exp(r * dx) for g, r in terms.values()) * dx**2 / 8
    x = np.linspace(0.0, 15.0, 301)  # past the last sample as well
    for lam in (0.0, 1.3, -4.2):
        want, got = (edge_explicit_solution(sys_, lam, a, b, x) for sys_ in systems)
        err = np.abs(got - want).max()
        assert 0 < err <= bound
