"""Problem files, CSV artifacts, and deterministic reports.

Conventions: complex numbers serialize as [re, im] pairs, bulk numerics go
to columnar CSV, metadata to JSON with sorted keys and fixed 17-significant-
digit float formatting so identical runs produce byte-identical artifacts.
All writes are atomic (write to a temp file, then rename) and return the
sha256 of the bytes written, so hash manifests need no second read.  CSV
artifacts are written and hashed slab by slab, never held whole in memory.
The SHA-256 is CPython's built-in one (_sha2, or _sha256 before 3.12):
hashlib would map and initialise OpenSSL's libcrypto, some 3.5 MB of every
process's peak RSS, to hash a few MB per run, at about 4 ms per MB instead
of 0.7.  hashlib is the fallback where the built-in module is missing.

A lambda-grid CSV is read back as columns: one np.loadtxt parse puts its
rows, in any order, into one structured array, and array operations group,
sort and check them.  Fields are quoted as csv quotes them.  Every row is one
line; an empty line, a NUL character, a field that does not convert (numbers
as float() and int() read them, without underscores or non-ASCII digits) and
a block name over 64 characters are refused with the line they are on.
The writer refuses such a name too.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from .config import load_json_object
from .domain import KERNEL_BLOCKS, BoundaryMatrix, Dispersion, TriangularPotential
from .errors import ParseError, ValidationError
from .linefunc import LineMatrixFunction
from .profiles import ExpSumProfile, SampledProfile, ScalarProfile, ZERO_PROFILE


# ---------------------------------------------------------------------------
# JSON problem descriptions
# ---------------------------------------------------------------------------


_REQUIRED = object()
_MAX_RANDOM_TERMS = 1000  # exponential terms per generated profile


def _show(v) -> str:
    text = json.dumps(v, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _join(where: str, key) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _member(obj, key: str, where: str, default=_REQUIRED):
    """obj[key] of the JSON object at `where`; a missing key without a
    default, or a value that is not an object, raises ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError(where, f"expected an object, got {_show(obj)}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValidationError(_join(where, key), "missing")
    return default


def _array(v, where: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(where, f"expected an array, got {_show(v)}")
    return v


def _integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(where, f"expected an integer, got {_show(v)}")
    return v


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(where, f"expected a number, got {_show(v)}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(where, f"expected a finite number, got {_show(v)}")
    return x


def _as_complex(v, where: str) -> complex:
    """A number or an [re, im] pair."""
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], _join(where, 0)), _number(v[1], _join(where, 1)))
    return complex(_number(v, where))


def profile_from_json(obj, where: str) -> ScalarProfile:
    if obj is None:
        return ZERO_PROFILE
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(where, "profile must be null or an object with a 'type'")
    kind = obj["type"]
    if kind == "expsum":
        terms = []
        for i, t in enumerate(_array(obj.get("terms", []), _join(where, "terms"))):
            at = _join(_join(where, "terms"), i)
            terms.append((_as_complex(_member(t, "gamma", at), _join(at, "gamma")), _number(_member(t, "a", at), _join(at, "a"))))
        return ExpSumProfile(tuple(terms))
    if kind == "sampled":
        at = _join(where, "values")
        values = np.array([_as_complex(v, _join(at, i)) for i, v in enumerate(_array(_member(obj, "values", where), at))])
        dx = _number(_member(obj, "dx", where), _join(where, "dx"))
        return SampledProfile(dx, values, _number(obj.get("tail_rate", 1.0), _join(where, "tail_rate")))
    raise ValidationError(_join(where, "type"), f"unknown profile type {_show(kind)}")


def _matrix_from_json(obj, where: str) -> np.ndarray:
    """A nonempty rectangular array of numbers or [re, im] pairs."""
    rows = [_array(row, _join(where, i)) for i, row in enumerate(_array(obj, where))]
    if not rows or any(len(row) != len(rows[0]) for row in rows) or not rows[0]:
        raise ValidationError(where, "expected a nonempty rectangular array of rows")
    return np.array([[_as_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)] for i, row in enumerate(rows)])


def _dispersion(obj, where: str) -> Dispersion:
    n = _integer(_member(obj, "n", where), _join(where, "n"))
    xi = _array(_member(obj, "xi", where), _join(where, "xi"))
    return Dispersion(n, tuple(_number(v, _join(_join(where, "xi"), i)) for i, v in enumerate(xi)))


def _envelope(obj, where: str) -> tuple[float, float]:
    env = _member(obj, "envelope", where, {"C": 1.0, "eps": 1.0})
    at = _join(where, "envelope")
    return _number(_member(env, "C", at), _join(at, "C")), _number(_member(env, "eps", at), _join(at, "eps"))


def random_edge_system(spec: dict, seed) -> EdgeCoupledSystem:
    """Deterministic random fixture: exponential-sum couplings from a seed."""
    from .edge_coupled import EdgeCoupledSystem

    where = "random_edge_system"
    disp = _dispersion(spec, where)
    rng = np.random.default_rng(0 if seed is None else seed)
    n = disp.n
    terms = _integer(_member(spec, "terms", where, 2), _join(where, "terms"))
    amp = _number(_member(spec, "amplitude", where, 0.3), _join(where, "amplitude"))
    rate_lo = _number(_member(spec, "rate_min", where, 1.0), _join(where, "rate_min"))
    rate_hi = _number(_member(spec, "rate_max", where, 2.5), _join(where, "rate_max"))
    if not 1 <= terms <= _MAX_RANDOM_TERMS:
        raise ValidationError(_join(where, "terms"), f"must lie in [1, {_MAX_RANDOM_TERMS}], got {terms}")
    if not 0.0 < rate_lo <= rate_hi:
        raise ValidationError(_join(where, "rate_min"), f"need 0 < rate_min <= rate_max, got {rate_lo} and {rate_hi}")
    envelope = (max(2.0 * amp * terms, 1e-3), rate_lo)

    def draw():
        parts = []
        for _ in range(terms):
            gamma = amp * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2 * terms)
            parts.append((gamma, float(rng.uniform(rate_lo, rate_hi))))
        return ExpSumProfile(tuple(parts))

    c_first = tuple(draw() for _ in range(2 * n - 2))
    c_last = tuple(draw() for _ in range(2 * n - 2))
    return EdgeCoupledSystem(disp, c_first, c_last, envelope)


def load_problem(path, seed=None) -> dict:
    """Parse a problem description; returns whichever sections are present.

    Sections: dispersion, potential, boundary / boundary2, edge_system (or
    random_edge_system, materialized from the seed), edge_boundary /
    edge_boundary2.  A missing key, a value of the wrong JSON type or an
    array of the wrong shape raises ValidationError naming its path, for
    example potential.q12[0][0].terms[0].a.
    """
    raw = load_json_object(path)
    out: dict = {}
    disp = None
    if "dispersion" in raw:
        disp = out["dispersion"] = _dispersion(raw["dispersion"], "dispersion")
    if "potential" in raw:
        p = raw["potential"]
        if disp is None:
            raise ValidationError("potential", "needs a dispersion section")
        n = disp.n
        blocks = {}
        for name in ("q11", "q12", "q21", "q22"):
            at = _join("potential", name)
            rows = _member(p, name, "potential", None)
            if rows is None:
                blocks[name] = None
                continue
            rows = [_array(row, _join(at, i)) for i, row in enumerate(_array(rows, at))]
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValidationError(at, f"must be {n} x {n}")
            blocks[name] = [
                [profile_from_json(cell, f"{at}[{i}][{j}]") for j, cell in enumerate(row)]
                for i, row in enumerate(rows)
            ]
        out["potential"] = TriangularPotential(n, envelope=_envelope(p, "potential"), **blocks)
    for key in ("boundary", "boundary2"):
        if key in raw:
            at = _join(key, "H")
            h = _matrix_from_json(_member(raw[key], "H", key), at)
            if disp is not None and h.shape != (disp.n, disp.n):
                raise ValidationError(at, f"must be {disp.n} x {disp.n}")
            out[key] = BoundaryMatrix(h)
    if "edge_system" in raw:
        from .edge_coupled import EdgeCoupledSystem

        e = raw["edge_system"]
        disp_e = _dispersion(e, "edge_system")
        cols = {}
        for name in ("c_first", "c_last"):
            at = _join("edge_system", name)
            cols[name] = tuple(
                profile_from_json(p, _join(at, i)) for i, p in enumerate(_array(_member(e, name, "edge_system", []), at))
            )
        out["edge_system"] = EdgeCoupledSystem(disp_e, envelope=_envelope(e, "edge_system"), **cols)
    elif "random_edge_system" in raw:
        out["edge_system"] = random_edge_system(raw["random_edge_system"], seed)
    for key in ("edge_boundary", "edge_boundary2"):
        if key in raw:
            from .edge_coupled import EdgeBoundary

            block = _matrix_from_json(_member(raw[key], "h_block", key), _join(key, "h_block"))
            n_edge = out["edge_system"].n if "edge_system" in out else block.shape[0] + 1
            out[key] = EdgeBoundary(n_edge, block)
    if not out:
        raise ValidationError("problem", "no recognized sections in the problem file")
    return out


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path, text) -> str:
    """Write text (a str or an iterable of str chunks) atomically as UTF-8, one
    chunk at a time; returns the sha256 hex digest of the bytes."""
    chunks = (text,) if isinstance(text, str) else text
    digest = sha256()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                fh.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _lead_text(lead, rows: int) -> list[str]:
    """The lead columns (a float or an array each) of `rows` rows as one
    string per row, every float as format(v, ".17g") and a comma after it."""
    cols = np.empty((rows, len(lead)))
    for c, col in enumerate(lead):
        cols[:, c] = col
    return ((("%.17g," * len(lead)) + "\n") * rows % tuple(cols.ravel().tolist())).splitlines()


def _csv_rows(lead, label, values) -> str:
    """One CSV row per value: its lead text (one _lead_text string per row),
    the (block, k, j) label with k, j written 1-based, then re, im.  One
    %-format call prints re, im as format(v, ".17g") and the block as
    csv.writer."""
    name, k, j = label
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([name, k + 1, j + 1])
    tail = buf.getvalue()[:-1].replace("%", "%%") + ",%.17g,%.17g\n"
    pairs = np.empty((len(values), 2))
    pairs[:, 0] = values.real
    pairs[:, 1] = values.imag
    return (tail.join(lead) + tail) % tuple(pairs.ravel().tolist())


def kernels_to_csv(kernels):
    """The two kernel faces the method reads, as x, t, block, k, j, re, im rows
    of each channel that is nonzero anywhere on the triangle
    (kernels.nonzero): the x = 0 trace (every tau), then the t = x diagonal
    from the second x on.  These faces are all the solve keeps."""
    yield "x,t,block,k,j,re,im\n"
    x, tau = kernels.x_grid, kernels.tau_grid
    trace_lead = _lead_text((x[0], x[0] + tau), len(tau))
    diag_lead = _lead_text((x[1:], x[1:] + tau[0]), len(x) - 1)
    for name in KERNEL_BLOCKS:
        trace, diag = kernels.traces[name], kernels.diagonals[name]
        for k in range(kernels.n):
            for j in range(kernels.n):
                if (name, k, j) not in kernels.nonzero:
                    continue
                yield _csv_rows(trace_lead, (name, k, j), trace[k, j])
                yield _csv_rows(diag_lead, (name, k, j), diag[k, j, 1:])


_CSV_HEADER = ["lambda", "block", "k", "j", "re", "im"]
# Block names are read into fixed-width fields: _NAME_WIDTHS[0] characters
# wide, and once more at the last width when a name fills the first.  A name
# that fills the last width is refused.
_NAME_WIDTHS = (16, 65)
_MAX_NAME = _NAME_WIDTHS[-1] - 1


def linefuncs_to_csv(named):
    """lambda, block, k, j, re, im of each name -> LineMatrixFunction: a slab
    per entry, the lambda column formatted once per grid (kept while the
    next function's grid has the same bytes).  A block name longer than
    _MAX_NAME characters, which linefuncs_from_csv refuses, is refused here
    too."""
    yield ",".join(_CSV_HEADER) + "\n"
    key = None
    for name, f in named.items():
        if len(name) > _MAX_NAME:
            raise ValidationError("block name", f"{name!r} is longer than {_MAX_NAME} characters")
        if f.grid.tobytes() != key:
            key, lead = f.grid.tobytes(), _lead_text((f.grid,), len(f.grid))
        for k in range(f.m):
            for j in range(f.m):
                yield _csv_rows(lead, (name, k, j), f.values[:, k, j])


def _load_rows(lines, width: int) -> np.ndarray:
    """The rows of `lines` (an open file or a list of lines) as one structured
    array (lam, name, k, j, re, im), parsed by np.loadtxt in C.  Fields split
    and unquote as csv.reader splits them; empty lines are skipped."""
    dtype = [("lam", "f8"), ("name", f"U{width}"), ("k", "i4"), ("j", "i4"), ("re", "f8"), ("im", "f8")]
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)


def _scan(fh) -> tuple[int, bool]:
    """(lines, clean) for the rest of fh: its number of lines, and whether it
    has no empty line and no NUL character."""
    lines, last = 0, "\n"
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if "\n\n" in last + chunk or "\x00" in chunk:
            return lines, False
        lines += chunk.count("\n")
        last = chunk[-1]
    return lines + (last != "\n"), True


def _first_bad_line(path, fh) -> ParseError:
    """The ParseError of the first line of fh that is not one valid row: an
    empty line, a NUL character, a line that does not read as a row on its own
    (a field count other than 6, a field that does not convert, a quoted field
    that runs on past the line end), a block name longer than _MAX_NAME
    characters, or a non-finite lambda."""
    for number, line in enumerate(fh, start=2):
        try:
            if line == "\n" or "\x00" in line:
                raise ValueError("an empty line" if line == "\n" else "a NUL character")
            lam, name, k, j, _, _ = _load_rows([line], _NAME_WIDTHS[-1])[0].item()
        except ValueError as exc:
            return ParseError(path, f"line {number}: {str(exc).split(' at row ')[0]}")
        if len(name) > _MAX_NAME:
            return ParseError(path, f"line {number}: block name longer than {_MAX_NAME} characters")
        if not math.isfinite(lam):
            return ParseError(path, f"line {number}: entry ({k},{j}) in block {name} has a non-finite lambda {lam!r}")
    return ParseError(path, "a quoted field runs on past the end of its line")


def _read_rows(path, fh) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, runs): the data rows of fh, from its current position, as one
    structured array with one row per line, and the first row of each run of
    rows of one block; None when there are no rows.  Anything but a file of
    valid rows raises the ParseError of its first bad line."""
    start = fh.tell()
    lines, clean = _scan(fh)
    if clean and not lines:
        return None
    if clean:
        for width in _NAME_WIDTHS:
            fh.seek(start)
            try:
                rows = _load_rows(fh, width)
            except ValueError:
                break
            if len(rows) != lines or not np.isfinite(rows["lam"]).all():
                break
            names = rows["name"]
            runs = np.flatnonzero(np.r_[True, names[1:] != names[:-1]])
            if max(map(len, names[runs].tolist())) < width:
                return rows, runs
    fh.seek(start)
    raise _first_bad_line(path, fh)


def _block(path, name: str, rows: np.ndarray, idx: np.ndarray) -> LineMatrixFunction:
    """Block `name` from rows[idx], its rows sorted by (k, j, lambda).  Its
    entries are checked in the order in which they first appear in the file,
    and the grid is that of the first."""
    lam, k, j = rows["lam"][idx], rows["k"][idx], rows["j"][idx]
    starts = np.flatnonzero(np.r_[True, (k[1:] != k[:-1]) | (j[1:] != j[:-1])]).tolist()
    entries = sorted(zip(starts, starts[1:] + [len(idx)]), key=lambda st: idx[st[0] : st[1]].min())
    grid = None
    for s, t in entries:
        where = f"entry ({k[s]},{j[s]}) in block {name}"
        if min(k[s], j[s]) < 1:
            raise ParseError(path, f"{where} has an index below 1")
        if (lam[s + 1 : t] == lam[s : t - 1]).any():
            raise ParseError(path, f"{where} repeats a lambda value")
        if grid is None:
            grid = lam[s:t].copy()
        elif not np.array_equal(lam[s:t], grid):
            raise ParseError(path, f"{where} is not sampled on the block's lambda grid")
    m = int(max(k.max(), j.max()))
    if len(starts) != m * m:
        raise ParseError(path, f"block {name} has {len(starts)} of the {m * m} entries of a {m} x {m} matrix")
    values = np.empty((len(grid), m, m), dtype=complex)
    values.real = rows["re"][idx].reshape(m, m, -1).transpose(2, 0, 1)
    values.imag = rows["im"][idx].reshape(m, m, -1).transpose(2, 0, 1)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, k, j = bad[0]
        where = f"entry ({k + 1},{j + 1}) in block {name}"
        raise ParseError(path, f"{where} has a non-finite sample at lambda = {float(grid[i])!r}")
    try:
        return LineMatrixFunction(grid, values)
    except ValidationError as exc:
        raise ParseError(path, f"block {name}: {exc}") from exc


def linefuncs_from_csv(path) -> dict:
    """Inverse of linefuncs_to_csv: {block name: LineMatrixFunction}, the
    blocks in the order in which they first appear.  The rows may come in any
    order; one np.loadtxt parse reads them into arrays, which are grouped and
    sorted by (block, k, j, lambda).  Analyticity tags are not persisted here."""
    path = Path(path)
    try:
        with open(path) as fh:
            line = fh.readline()
            header = next(csv.reader([line]), None) if line else None
            if header != _CSV_HEADER:
                raise ParseError(path, f"unexpected header {header}")
            read = _read_rows(path, fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    if read is None:
        return {}
    rows, runs = read
    blocks: dict = {}  # block name -> number, in order of first appearance
    run_block = [blocks.setdefault(name, len(blocks)) for name in rows["name"][runs].tolist()]
    block = np.repeat(run_block, np.diff(np.r_[runs, len(rows)]))
    order = np.lexsort((rows["lam"], rows["j"], rows["k"], block))
    bounds = np.r_[0, np.cumsum(np.bincount(block))]
    return {name: _block(path, name, rows, order[bounds[b] : bounds[b + 1]]) for name, b in blocks.items()}


def sidecar_metadata(kernels, linefuncs) -> dict:
    return {
        "kernels": {
            "step": kernels.step,
            "x_points": len(kernels.x_grid),
            "tau_points": len(kernels.tau_grid),
            "theta": kernels.theta,
            "c_tilde": kernels.c_tilde,
            "envelope_eps": kernels.envelope_eps,
            "sweeps": kernels.sweeps,
        },
        "functions": {
            name: {
                "lambda_min": float(f.grid[0]),
                "lambda_max": float(f.grid[-1]),
                "n_points": len(f.grid),
                "analyticity": {"kind": f.analyticity.kind, "delta": float(f.analyticity.delta)
                                if np.isfinite(f.analyticity.delta) else "inf"},
            }
            for name, f in linefuncs.items()
        },
    }


# ---------------------------------------------------------------------------
# deterministic reports
# ---------------------------------------------------------------------------


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f'{pad}  "{key}": {_render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            return f'"{v}"'
        return _fmt(v)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt(obj.real)}, {_fmt(obj.imag)}]"
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), indent)
    return json.dumps(str(obj))


def render_report(results: dict) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _render_json(results) + "\n"


def file_manifest(paths) -> dict:
    """sha256 digests of files already on disk, keyed by file name.

    The CLI takes its manifests from atomic_write_text, which hashes while
    writing; this read-back form stays because perfbench's tracer wraps it.
    """
    out = {}
    for p in paths:
        p = Path(p)
        out[p.name] = sha256(p.read_bytes()).hexdigest()
    return out
