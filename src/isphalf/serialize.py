"""Problem files, CSV artifacts, and deterministic reports.

Conventions: complex numbers serialize as [re, im] pairs, bulk numerics go
to columnar CSV, metadata to JSON with sorted keys and fixed 17-significant-
digit float formatting so identical runs produce byte-identical artifacts.
All writes are atomic (write to a temp file, then rename) and return the
sha256 of the bytes written, so hash manifests need no second read.  CSV
artifacts are written and hashed slab by slab, never held whole in memory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np

from .domain import BoundaryMatrix, Dispersion, TriangularPotential
from .errors import ParseError, ValidationError
from .linefunc import Analyticity, LineMatrixFunction
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


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


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


def profile_to_json(p: ScalarProfile):
    if p.is_zero:
        return None
    if isinstance(p, ExpSumProfile):
        return {
            "type": "expsum",
            "terms": [{"gamma": _complex_pair(g), "a": float(a)} for g, a in p.terms],
        }
    if isinstance(p, SampledProfile):
        return {
            "type": "sampled",
            "dx": float(p.dx),
            "tail_rate": float(p.tail_rate),
            "values": [_complex_pair(v) for v in p.values],
        }
    raise ValidationError("profile", f"cannot serialize {type(p).__name__}")


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
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(path, "top level must be an object")

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
    digest = hashlib.sha256()
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
    of each nonzero channel: the x = 0 trace (every tau), then the t = x
    diagonal from the second x on.  The full triangle stays in kernels.blocks."""
    yield "x,t,block,k,j,re,im\n"
    x, tau = kernels.x_grid, kernels.tau_grid
    trace_lead = _lead_text((x[0], x[0] + tau), len(tau))
    diag_lead = _lead_text((x[1:], x[1:] + tau[0]), len(x) - 1)
    for name in ("A11", "A12", "A21", "A22"):
        block = kernels.blocks[name]
        trace, diag = kernels.trace_at_zero(name), kernels.diagonal(name)
        for k in range(kernels.n):
            for j in range(kernels.n):
                if not block[k, j].any():
                    continue
                yield _csv_rows(trace_lead, (name, k, j), trace[k, j])
                yield _csv_rows(diag_lead, (name, k, j), diag[k, j, 1:])


def linefuncs_to_csv(named):
    """lambda, block, k, j, re, im of each name -> LineMatrixFunction: a slab
    per entry, the lambda column formatted once per function."""
    yield "lambda,block,k,j,re,im\n"
    for name, f in named.items():
        lead = _lead_text((f.grid,), len(f.grid))
        for k in range(f.m):
            for j in range(f.m):
                yield _csv_rows(lead, (name, k, j), f.values[:, k, j])


def linefuncs_from_csv(path) -> dict:
    """Inverse of linefuncs_to_csv; analyticity tags are not persisted here."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["lambda", "block", "k", "j", "re", "im"]:
        raise ParseError(path, f"unexpected header {header}")
    data: dict = {}
    try:
        for row in reader:
            lam, name, k, j, re, im = row
            entry = data.setdefault(name, {})
            entry.setdefault((int(k), int(j)), []).append((float(lam), complex(float(re), float(im))))
    except (ValueError, csv.Error) as exc:
        raise ParseError(path, f"line {reader.line_num}: {exc}") from exc
    out = {}
    for name, entries in data.items():
        lams = None
        for (k, j), pts in entries.items():
            if min(k, j) < 1:
                raise ParseError(path, f"entry ({k},{j}) in block {name} has an index below 1")
            pts.sort(key=itemgetter(0))
            entry_lams = [p[0] for p in pts]
            if len(set(entry_lams)) < len(entry_lams):
                raise ParseError(path, f"entry ({k},{j}) in block {name} repeats a lambda value")
            if lams is None:
                lams = entry_lams
            elif entry_lams != lams:
                raise ParseError(path, f"entry ({k},{j}) in block {name} is not sampled on the block's lambda grid")
        m = max(max(k, j) for k, j in entries)
        if len(entries) != m * m:
            raise ParseError(path, f"block {name} has {len(entries)} of the {m * m} entries of a {m} x {m} matrix")
        columns = [[p[1] for p in entries[k, j]] for k in range(1, m + 1) for j in range(1, m + 1)]
        grid, values = np.array(lams), np.stack(columns, axis=-1).reshape(-1, m, m)
        bad = np.argwhere(~(np.isfinite(values) & np.isfinite(grid)[:, None, None]))
        if len(bad):
            i, k, j = bad[0]
            where = f"entry ({k + 1},{j + 1}) in block {name}"
            raise ParseError(path, f"{where} has a non-finite sample at lambda = {float(grid[i])!r}")
        try:
            out[name] = LineMatrixFunction(grid, values)
        except ValidationError as exc:
            raise ParseError(path, f"block {name}: {exc}") from exc
    return out


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
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out
