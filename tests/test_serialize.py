import copy
import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isphalf.domain import Dispersion
from isphalf.errors import IspError, ParseError
from isphalf.forward import TransformationKernels
from isphalf.linefunc import LineMatrixFunction, make_grid
from isphalf.serialize import atomic_write_text, kernels_to_csv, linefuncs_from_csv, linefuncs_to_csv, load_problem

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
    got = "".join(kernels_to_csv(kernels))
    header, *rows = reference_kernels_to_csv(kernels).splitlines(keepends=True)
    faces = [row for row in rows if (f := row.split(","))[0] == "0" or f[0] == f[1]]
    assert got == header + "".join(faces)
    assert len(faces) == 14 * (nx + nt - 1)  # 16 channels, two of them all zero
    assert "A12,1,2," not in got and "A21,2,1," not in got


def test_kernels_csv_allocates_no_channel_temporary():
    # the writer reads the two faces of a channel, never a whole channel
    n, nx, nt = 1, 1000, 1500
    blocks = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in ("A11", "A12", "A21", "A22")}
    blocks["A12"][0, 0, :, :] = 1.0 + 2.0j
    kernels = TransformationKernels(
        disp=Dispersion(n, (-1.0, 1.0)),
        step=0.01,
        blocks=blocks,
        theta=0.5,
        c_tilde=1.0,
        envelope_eps=1.0,
        sweeps=1,
    )
    tracemalloc.start()
    try:
        rows = sum(chunk.count("\n") for chunk in kernels_to_csv(kernels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 + nx + nt - 1
    assert peak < nx * nt  # a channel of complex values takes 16 nx nt bytes


def test_kernels_csv_rebuilds_both_faces_bit_exactly(tmp_path):
    rng = np.random.default_rng(13)
    n, nx, nt = 2, 9, 17
    blocks = {name: _awkward(rng, (n, n, nx, nt)) for name in ("A11", "A12", "A21", "A22")}
    blocks["A22"][1, 1] = 0.0
    kernels = TransformationKernels(
        disp=Dispersion(n, (-2.0, -1.0, 1.0, 2.0)),
        step=0.1,
        blocks=blocks,
        theta=0.5,
        c_tilde=1.0,
        envelope_eps=1.0,
        sweeps=1,
    )
    path = tmp_path / "kernels.csv"
    atomic_write_text(path, kernels_to_csv(kernels))
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["x", "t", "block", "k", "j", "re", "im"]
    cells: dict = {}
    for x, t, name, k, j, re, im in rows[1:]:
        z = np.empty((), dtype=complex)
        z.real, z.imag = float(re), float(im)
        cells.setdefault((name, int(k) - 1, int(j) - 1), []).append((float(x), float(t), z[()]))
    assert len(cells) == 4 * n * n - 1
    for (name, k, j), pts in cells.items():
        x, t, z = (np.array(col) for col in zip(*pts))
        trace, diag = x == 0.0, t == x
        assert len(x) == nx + nt - 1
        assert np.array_equal(t[trace], kernels.tau_grid) and np.array_equal(x[diag], kernels.x_grid)
        for got, want in ((z[trace], kernels.trace_at_zero(name)[k, j]), (z[diag], kernels.diagonal(name)[k, j])):
            assert np.array_equal(got.view(np.int64), np.ascontiguousarray(want).view(np.int64))


def test_linefuncs_csv_matches_reference_writer():
    rng = np.random.default_rng(12)
    grid = make_grid(1.0 / 3.0, 16)
    named = {
        name: LineMatrixFunction(grid, _awkward(rng, (16, m, m)))
        for name, m in (("S", 2), ("A11_minus", 1), ("comma,name", 1), ('quote"d', 1), ("pct%d%%", 2), ("", 1))
    }
    assert "".join(linefuncs_to_csv(named)) == reference_linefuncs_to_csv(named)


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
    path.write_text("".join(linefuncs_to_csv({name: f})))
    bad = np.argwhere(~np.isfinite(f.values))
    if len(bad):
        # an infinite sample is written, but refused when read
        i, k, j = bad[0]
        with pytest.raises(ParseError) as exc:
            linefuncs_from_csv(path)
        assert f"entry ({k + 1},{j + 1}) in block {name} has a non-finite sample" in str(exc.value)
        return
    back = linefuncs_from_csv(path)[name]
    assert np.array_equal(back.grid.view(np.uint64), f.grid.view(np.uint64))
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_linefuncs_from_csv_rejects_entry_off_the_block_grid(tmp_path):
    # (1,1) on lambda = 0..3, (1,2) on lambda = 10..13: same length, other grid
    rows = [f"{lam},S,1,1,1,0" for lam in range(4)] + [f"{lam},S,1,2,0.5,0" for lam in range(10, 14)]
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    with pytest.raises(ParseError, match=r"entry \(1,2\) in block S"):
        linefuncs_from_csv(path)


def _write_rows(tmp_path, rows):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    return path


def test_linefuncs_from_csv_rejects_index_below_one(tmp_path):
    # a k of 0 would index the value array at -1 and land in S[2,1]
    path = _write_rows(tmp_path, ["0,S,0,1,1,0", "1,S,0,1,2,0", "0,S,2,2,3,0", "1,S,2,2,4,0"])
    with pytest.raises(ParseError, match=r"entry \(0,1\) in block S has an index below 1"):
        linefuncs_from_csv(path)


def test_linefuncs_from_csv_rejects_incomplete_block(tmp_path):
    path = _write_rows(tmp_path, ["0,S,1,1,1,0", "1,S,1,1,2,0", "0,S,2,2,3,0", "1,S,2,2,4,0"])
    with pytest.raises(ParseError, match="block S has 2 of the 4 entries"):
        linefuncs_from_csv(path)


# tokens that break a field, or spell a value, an index or a lambda
TOKENS = ["", "x", "0", "-1", "1.5", "nan", str(2**63), str(10**400)]


@settings(max_examples=200, deadline=None, database=None)
@given(
    m=st.integers(2, 3),  # a 1x1 block has no second entry to check a moved lambda against
    log_n=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    entry=st.integers(0, 8),
    row=st.integers(0, 7),
    whole_entry=st.booleans(),
    column=st.integers(0, 5),
    token=st.sampled_from(TOKENS),
)
def test_linefuncs_from_csv_mutated_field_loads_exactly_or_raises_parse_error(
    tmp_path_factory, m, log_n, seed, entry, row, whole_entry, column, token
):
    n_points = 2**log_n
    rng = np.random.default_rng(seed)
    f = LineMatrixFunction(make_grid(2.0, n_points), rng.standard_normal((n_points, m, m, 2)) @ [1, 1j])
    lines = "".join(linefuncs_to_csv({"S": f})).splitlines()
    entry %= m * m
    rows = range(entry * n_points, (entry + 1) * n_points) if whole_entry else [entry * n_points + row % n_points]
    expected = f.values.copy()
    for r in rows:
        fields = lines[1 + r].split(",")
        fields[column] = token
        lines[1 + r] = ",".join(fields)
        if column >= 4 and token not in ("", "x"):
            part = expected.real if column == 4 else expected.imag
            part[r % n_points, entry // m, entry % m] = float(token)
    path = tmp_path_factory.mktemp("mutated") / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        back = linefuncs_from_csv(path)
    except ParseError:
        return
    # only a value field, or a token that spells the field's old value, loads
    assert list(back) == ["S"]
    assert np.array_equal(back["S"].grid.view(np.uint64), f.grid.view(np.uint64))
    assert np.array_equal(back["S"].values.view(np.uint64), expected.view(np.uint64))


def _chunks_then_fail():
    yield "lambda,block\n"
    yield "0,S\n"
    raise RuntimeError("formatter failed")


@pytest.mark.parametrize("existed", [True, False])
def test_atomic_write_text_failure_leaves_no_trace(tmp_path, existed):
    target = tmp_path / "f.csv"
    if existed:
        target.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="formatter failed"):
        atomic_write_text(target, _chunks_then_fail())
    assert [p.name for p in tmp_path.iterdir()] == (["f.csv"] if existed else [])
    if existed:
        assert target.read_bytes() == b"old bytes\n"


def test_atomic_write_text_hashes_the_chunks_it_writes(tmp_path):
    chunks = ["x,t\n", "0,\u03bb\n", "", "1,2\n"]
    digest = atomic_write_text(tmp_path / "a.csv", iter(chunks))
    data = (tmp_path / "a.csv").read_bytes()
    assert data == "".join(chunks).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest() == atomic_write_text(tmp_path / "b.csv", "".join(chunks))


def test_linefuncs_dump_streams_in_bounded_memory(tmp_path):
    rng = np.random.default_rng(5)
    shape = (512, 16, 16)  # 131072 rows in 256 slabs
    grid = make_grid(100.0, shape[0])
    named = {"S": LineMatrixFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))}
    path = tmp_path / "scattering.csv"
    tracemalloc.start()
    try:
        atomic_write_text(path, linefuncs_to_csv(named))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 4_000_000
    assert peak < size / 8


# -- problem files: every mutation of one key loads or raises an IspError

_EXPSUM = {"type": "expsum", "terms": [{"gamma": [0.3, 0.1], "a": 1.5}, {"gamma": 0.1, "a": 2.0}]}
_SAMPLED = {"type": "sampled", "dx": 0.5, "tail_rate": 1.0, "values": [[0.2, 0.0], 0.1, [0.05, 0.01]]}
_H_BLOCK = {"h_block": [[1.0, 0.5], [0.0, 2.0]]}
VALID_PROBLEMS = (
    {
        "dispersion": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0]},
        "potential": {
            "envelope": {"C": 1.0, "eps": 1.0},
            "q11": [[None, None], [_EXPSUM, None]],
            "q12": [[None, _SAMPLED], [_EXPSUM, _EXPSUM]],
            "q21": [[_SAMPLED, _EXPSUM], [_EXPSUM, None]],
        },
        "boundary": {"H": [[1.0, 0.0], [0.0, [2.0, 1.0]]]},
        "boundary2": {"H": [[2.0, 0.0], [0.5, 1.0]]},
    },
    {
        "edge_system": {
            "n": 3,
            "xi": [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
            "envelope": {"C": 1.0, "eps": 1.0},
            "c_first": [_EXPSUM, None, _SAMPLED, _EXPSUM],
            "c_last": [None, _EXPSUM],
        },
        "edge_boundary": _H_BLOCK,
        "edge_boundary2": _H_BLOCK,
    },
    {
        "random_edge_system": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0], "terms": 2, "amplitude": 0.3, "rate_min": 1.0, "rate_max": 2.5},
        "edge_boundary": {"h_block": [[1.0]]},
    },
)
_DELETE = object()


def _json_paths(obj, prefix=()):
    """Every key of every object and every index of every array, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.mark.parametrize("problem", VALID_PROBLEMS)
def test_valid_problems_load(tmp_path, problem):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    assert load_problem(path, seed=3)


@settings(max_examples=300, deadline=None, database=None)
@given(
    which=st.integers(0, len(VALID_PROBLEMS) - 1),
    pick=st.integers(0, 10**6),
    value=st.sampled_from([_DELETE, None, "x", [], {}]),
)
def test_load_problem_mutated_key_loads_or_raises_isp_error(tmp_path_factory, which, pick, value):
    problem = copy.deepcopy(VALID_PROBLEMS[which])
    paths = list(_json_paths(problem))
    *parents, key = paths[pick % len(paths)]
    parent = problem
    for step in parents:
        parent = parent[step]
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(value)
    path = tmp_path_factory.mktemp("problem") / "p.json"
    path.write_text(json.dumps(problem))
    try:
        load_problem(path, seed=3)
    except IspError:
        pass
