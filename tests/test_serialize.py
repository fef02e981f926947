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
from isphalf.errors import IspError, ParseError, ValidationError
from isphalf.forward import TransformationKernels
from isphalf.linefunc import LineMatrixFunction, make_grid
from isphalf.serialize import (
    atomic_write_text,
    file_manifest,
    kernels_to_csv,
    linefuncs_from_csv,
    linefuncs_to_csv,
    load_problem,
)

# -- reference writers: one csv.writer row per cell, format(v, ".17g") per float


def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_kernels_to_csv(blocks, x, tau) -> str:
    """Every cell of the full (n, n, Nx, Ntau) blocks, as the kernel dump
    wrote it before it kept only the faces."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "t", "block", "k", "j", "re", "im"])
    n = blocks["A11"].shape[0]
    for name in ("A11", "A12", "A21", "A22"):
        block = blocks[name]
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


def reference_linefuncs_from_csv(text: str) -> dict:
    """The row-by-row reader that the columnar one replaced: csv.reader rows,
    float() and int() per field, each entry sorted by lambda.  Raises
    ValueError (or ValidationError) for every file it refuses."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["lambda", "block", "k", "j", "re", "im"]:
        raise ValueError("header")
    data: dict = {}
    for lam, name, k, j, re, im in reader:
        if not np.isfinite(float(lam)):
            raise ValueError("non-finite lambda")
        data.setdefault(name, {}).setdefault((int(k), int(j)), []).append((float(lam), complex(float(re), float(im))))
    out = {}
    for name, entries in data.items():
        lams = None
        for (k, j), pts in entries.items():
            pts.sort(key=lambda p: p[0])
            entry_lams = [p[0] for p in pts]
            if min(k, j) < 1 or len(set(entry_lams)) < len(entry_lams) or entry_lams != (lams or entry_lams):
                raise ValueError(f"entry ({k},{j})")
            lams = lams or entry_lams
        m = max(max(k, j) for k, j in entries)
        if len(entries) != m * m:
            raise ValueError("missing entries")
        values = np.array([[[p[1] for p in entries[k, j]] for j in range(1, m + 1)] for k in range(1, m + 1)])
        if not np.isfinite(values).all():
            raise ValueError("non-finite sample")
        out[name] = LineMatrixFunction(np.array(lams), np.ascontiguousarray(values.transpose(2, 0, 1)))
    return out


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


def _kernels_of(disp, step, blocks) -> TransformationKernels:
    """The kernels whose faces and nonzero flags are those of the full
    (n, n, Nx, Ntau) blocks."""
    return TransformationKernels(
        disp=disp,
        step=step,
        traces={name: block[:, :, 0, :] for name, block in blocks.items()},
        diagonals={name: block[:, :, :, 0] for name, block in blocks.items()},
        nonzero=frozenset(
            (name, k, j) for name, block in blocks.items() for k, j in np.ndindex(block.shape[:2]) if block[k, j].any()
        ),
        theta=0.5,
        c_tilde=1.0,
        envelope_eps=1.0,
        sweeps=1,
    )


def test_kernels_csv_matches_reference_writer():
    rng = np.random.default_rng(11)
    n, nx, nt = 2, 7, 13
    blocks = {name: _awkward(rng, (n, n, nx, nt)) for name in ("A11", "A12", "A21", "A22")}
    blocks["A12"][0, 1] = 0.0  # an all-zero channel is skipped
    blocks["A21"][1, 0] = -0.0
    blocks["A11"][1, 0, 0, :] = blocks["A11"][1, 0, :, 0] = 0.0  # nonzero inside only: written
    # step 0.1: x + tau sums that are inexact in binary
    kernels = _kernels_of(Dispersion(n, (-2.0, -1.0, 1.0, 2.0)), 0.1, blocks)
    got = "".join(kernels_to_csv(kernels))
    header, *rows = reference_kernels_to_csv(blocks, kernels.x_grid, kernels.tau_grid).splitlines(keepends=True)
    faces = [row for row in rows if (f := row.split(","))[0] == "0" or f[0] == f[1]]
    assert got == header + "".join(faces)
    assert len(faces) == 14 * (nx + nt - 1)  # 16 channels, two of them all zero
    assert "A12,1,2," not in got and "A21,2,1," not in got


def test_kernels_csv_allocates_no_channel_temporary():
    # the writer reads the two faces of a channel, never a whole channel
    n, nx, nt = 1, 1000, 1500
    blocks = {name: np.zeros((n, n, nx, nt), dtype=complex) for name in ("A11", "A12", "A21", "A22")}
    blocks["A12"][0, 0, :, :] = 1.0 + 2.0j
    kernels = _kernels_of(Dispersion(n, (-1.0, 1.0)), 0.01, blocks)
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
    kernels = _kernels_of(Dispersion(n, (-2.0, -1.0, 1.0, 2.0)), 0.1, blocks)
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
        for got, want in ((z[trace], kernels.traces[name][k, j]), (z[diag], kernels.diagonals[name][k, j])):
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


def test_linefuncs_from_csv_names_the_entry_with_a_non_finite_lambda(tmp_path):
    # a 2x2 S whose (1,1) entry has lambda = nan: the entry and the lambda are
    # named, not the next entry that the lambda grid is compared with
    rows = [f"{lam},S,{k},{j},1,0" for k in (1, 2) for j in (1, 2) for lam in range(4)]
    rows[2] = "nan,S,1,1,1,0"
    path = _write_rows(tmp_path, rows)
    with pytest.raises(ParseError, match=r"entry \(1,1\) in block S has a non-finite lambda nan"):
        linefuncs_from_csv(path)


def test_linefuncs_from_csv_rejects_index_below_one(tmp_path):
    # a k of 0 would index the value array at -1 and land in S[2,1]
    path = _write_rows(tmp_path, ["0,S,0,1,1,0", "1,S,0,1,2,0", "0,S,2,2,3,0", "1,S,2,2,4,0"])
    with pytest.raises(ParseError, match=r"entry \(0,1\) in block S has an index below 1"):
        linefuncs_from_csv(path)


def test_linefuncs_from_csv_rejects_incomplete_block(tmp_path):
    path = _write_rows(tmp_path, ["0,S,1,1,1,0", "1,S,1,1,2,0", "0,S,2,2,3,0", "1,S,2,2,4,0"])
    with pytest.raises(ParseError, match="block S has 2 of the 4 entries"):
        linefuncs_from_csv(path)


@pytest.mark.parametrize(
    "at, bad_line, line",
    [(2, "", 4), (4, "", 6), (2, "#0.5,S,1,1,1,0", 4), (0, "# a comment", 2)],
)
def test_linefuncs_from_csv_refuses_empty_and_comment_lines_by_file_line(tmp_path, at, bad_line, line):
    # neither kind of line is skipped; (4, "", 6) is an empty last line
    rows = [f"{lam},S,1,1,1,0" for lam in range(4)]
    rows.insert(at, bad_line)
    path = _write_rows(tmp_path, rows)
    with pytest.raises(ParseError) as exc:
        linefuncs_from_csv(path)
    assert str(exc.value).startswith(f"{path}: line {line}: ")


def test_linefuncs_csv_block_names_up_to_64_characters(tmp_path):
    # a 64-character name round-trips; the writer and the reader refuse 65
    f = LineMatrixFunction(make_grid(1.0, 4), np.ones((4, 1, 1)))
    path = tmp_path / "f.csv"
    atomic_write_text(path, linefuncs_to_csv({"n" * 64: f}))
    assert list(linefuncs_from_csv(path)) == ["n" * 64]
    with pytest.raises(ValidationError, match="longer than 64 characters"):
        atomic_write_text(tmp_path / "g.csv", linefuncs_to_csv({"n" * 65: f}))
    assert not (tmp_path / "g.csv").exists()
    path.write_text(path.read_text().replace("n" * 64, "n" * 65))
    with pytest.raises(ParseError, match=": line 2: block name longer than 64 characters"):
        linefuncs_from_csv(path)


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.integers(1, 3), log_n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_linefuncs_from_csv_row_order_does_not_matter(tmp_path_factory, m, log_n, seed, data):
    rng = np.random.default_rng(seed)
    grid = make_grid(2.0, 2**log_n)
    named = {name: LineMatrixFunction(grid, np.nan_to_num(_awkward(rng, (len(grid), m, m)))) for name in ("S", 'quote"d')}
    header, *rows = "".join(linefuncs_to_csv(named)).splitlines()
    rows = data.draw(st.permutations(rows))
    path = tmp_path_factory.mktemp("permuted") / "f.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    back = linefuncs_from_csv(path)
    # the blocks come in the order of their first rows
    assert list(back) == list(dict.fromkeys(next(csv.reader([row]))[1] for row in rows))
    for name, f in named.items():
        assert np.array_equal(back[name].grid.view(np.uint64), f.grid.view(np.uint64))
        assert np.array_equal(back[name].values.view(np.uint64), f.values.view(np.uint64))


@settings(max_examples=150, deadline=None, database=None)
@given(
    m=st.integers(1, 3),
    log_n=st.integers(2, 3),
    names=st.lists(st.sampled_from(["S", "plus", "comma,name", 'quote"d', "", "x" * 20]), min_size=1, max_size=2, unique=True),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_linefuncs_from_csv_agrees_with_the_row_by_row_reader(tmp_path_factory, m, log_n, names, seed, data):
    # permuted rows, then one field replaced, one row repeated or one dropped:
    # both readers load the same arrays, or both refuse the file
    rng = np.random.default_rng(seed)
    grid = make_grid(2.0, 2**log_n)
    named = {name: LineMatrixFunction(grid, rng.standard_normal((len(grid), m, m, 2)) @ [1, 1j]) for name in names}
    header, *rows = "".join(linefuncs_to_csv(named)).splitlines()
    rows = data.draw(st.permutations(rows))
    r = data.draw(st.integers(0, len(rows) - 1))
    edit = data.draw(st.sampled_from(["none", "field", "repeat", "drop"]))
    if edit == "field":
        fields = rows[r].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(TOKENS + ['"1"', "2", " 3 ", "#"]))
        rows[r] = ",".join(fields)
    elif edit == "repeat":
        rows.insert(data.draw(st.integers(0, len(rows))), rows[r])
    elif edit == "drop":
        del rows[r]
    text = "\n".join([header, *rows]) + "\n"
    path = tmp_path_factory.mktemp("edited") / "f.csv"
    path.write_text(text)
    try:
        want = reference_linefuncs_from_csv(text)
    except (ValueError, ValidationError):
        with pytest.raises(ParseError):
            linefuncs_from_csv(path)
        return
    back = linefuncs_from_csv(path)
    assert list(back) == list(want)
    for name, f in want.items():
        assert np.array_equal(back[name].grid.view(np.uint64), f.grid.view(np.uint64))
        assert np.array_equal(back[name].values.view(np.uint64), f.values.view(np.uint64))


def test_linefuncs_from_csv_peaks_below_four_times_the_file(tmp_path):
    # the factors.csv layout: blocks plus and minus, 2 x 2 on 1024 points
    rng = np.random.default_rng(4)
    grid = make_grid(100.0, 1024)
    named = {name: LineMatrixFunction(grid, rng.standard_normal((1024, 2, 2, 2)) @ [1, 1j]) for name in ("plus", "minus")}
    path = tmp_path / "factors.csv"
    atomic_write_text(path, linefuncs_to_csv(named))
    tracemalloc.start()
    try:
        back = linefuncs_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(back) == ["plus", "minus"]
    assert peak < 4 * path.stat().st_size


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


@settings(max_examples=60, deadline=None, database=None)
@given(chunks=st.lists(st.text(), max_size=6))
def test_written_digest_is_the_sha256_of_the_file(tmp_path_factory, chunks):
    # any text, non-ASCII included, in any chunks: empty ones and none at all
    path = tmp_path_factory.getbasetemp() / "digest" / "f.csv"
    digest = atomic_write_text(path, iter(chunks))
    data = path.read_bytes()
    assert data == "".join(chunks).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()
    assert file_manifest([path]) == {"f.csv": digest}


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
