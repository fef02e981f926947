import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isphalf.domain import Dispersion
from isphalf.forward import TransformationKernels
from isphalf.linefunc import LineMatrixFunction, make_grid
from isphalf.serialize import kernels_to_csv, linefuncs_from_csv, linefuncs_to_csv

# -- reference writers: one csv.writer row per cell, format(v, ".17g") per float


def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_kernels_to_csv(kernels) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "t", "block", "k", "j", "re", "im"])
    x = kernels.x_grid
    tau = kernels.tau_grid
    n = kernels.n
    for name in ("A11", "A12", "A21", "A22"):
        block = kernels.blocks[name]
        for k in range(n):
            for j in range(n):
                vals = block[k, j]
                if np.abs(vals).max() == 0.0:
                    continue
                for ix in range(len(x)):
                    row_x = x[ix]
                    v = vals[ix]
                    for it in range(len(tau)):
                        writer.writerow(
                            [_fmt(row_x), _fmt(row_x + tau[it]), name, k + 1, j + 1, _fmt(v[it].real), _fmt(v[it].imag)]
                        )
    return buf.getvalue()


def reference_linefuncs_to_csv(named) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "block", "k", "j", "re", "im"])
    for name, f in named.items():
        grid = f.grid
        vals = f.values
        for k in range(f.m):
            for j in range(f.m):
                col = vals[:, k, j]
                for idx in range(len(grid)):
                    writer.writerow(
                        [_fmt(grid[idx]), name, k + 1, j + 1, _fmt(col[idx].real), _fmt(col[idx].imag)]
                    )
    return buf.getvalue()


# floats whose text form is easy to get wrong
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
     1.0 / 3.0, np.inf, -np.inf, np.nan]
)


def _awkward(rng, shape) -> np.ndarray:
    """Random complex samples salted with special values and exact zeros."""
    re = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    im = rng.standard_normal(shape)
    flat_re, flat_im = re.reshape(-1), im.reshape(-1)
    picks = rng.integers(0, flat_re.size, 3 * len(SPECIAL))
    flat_re[picks[: len(SPECIAL)]] = SPECIAL
    flat_im[picks[len(SPECIAL) : 2 * len(SPECIAL)]] = SPECIAL
    flat_re[picks[2 * len(SPECIAL) :]] = 0.0
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = re, im  # re + 1j * im would turn re into nan wherever im is inf or nan
    return z


def test_kernels_csv_matches_reference_writer():
    rng = np.random.default_rng(11)
    n, nx, nt = 2, 7, 13
    blocks = {name: _awkward(rng, (n, n, nx, nt)) for name in ("A11", "A12", "A21", "A22")}
    blocks["A12"][0, 1] = 0.0  # an all-zero channel is skipped
    blocks["A21"][1, 0] = -0.0
    kernels = TransformationKernels(
        disp=Dispersion(n, (-2.0, -1.0, 1.0, 2.0)),
        step=0.1,  # x + tau sums that are inexact in binary
        blocks=blocks,
        theta=0.5,
        c_tilde=1.0,
        envelope_eps=1.0,
        sweeps=1,
    )
    got = kernels_to_csv(kernels)
    assert got == reference_kernels_to_csv(kernels)
    assert "A12,1,2," not in got and "A21,2,1," not in got


def test_linefuncs_csv_matches_reference_writer():
    rng = np.random.default_rng(12)
    grid = make_grid(1.0 / 3.0, 16)
    named = {
        name: LineMatrixFunction(grid, _awkward(rng, (16, m, m)))
        for name, m in (("S", 2), ("A11_minus", 1), ("comma,name", 1), ('quote"d', 1), ("pct%d%%", 2), ("", 1))
    }
    assert linefuncs_to_csv(named) == reference_linefuncs_to_csv(named)


_finite_or_inf = st.floats(allow_nan=False, width=64)


@settings(max_examples=60, deadline=None, database=None)
@given(
    lambda_max=st.floats(1e-3, 1e3),
    log_n=st.integers(2, 4),
    m=st.integers(1, 3),
    name=st.sampled_from(["S", "plus", "comma,name", 'quote"d', "pct%s"]),
    data=st.data(),
)
def test_linefuncs_csv_roundtrip_is_bit_exact(tmp_path_factory, lambda_max, log_n, m, name, data):
    grid = make_grid(lambda_max, 2**log_n)
    size = len(grid) * m * m
    re = data.draw(st.lists(_finite_or_inf, min_size=size, max_size=size))
    im = data.draw(st.lists(_finite_or_inf, min_size=size, max_size=size))
    vals = np.empty(size, dtype=complex)
    vals.real, vals.imag = re, im  # separate stores keep -0.0 and inf parts exact
    f = LineMatrixFunction(grid, vals.reshape(len(grid), m, m))
    path = tmp_path_factory.mktemp("roundtrip") / "f.csv"
    path.write_text(linefuncs_to_csv({name: f}))
    back = linefuncs_from_csv(path)[name]
    assert np.array_equal(back.grid.view(np.uint64), f.grid.view(np.uint64))
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
