"""Problem files, CSV artifacts, and deterministic reports.

Conventions: complex numbers serialize as [re, im] pairs, bulk numerics go
to columnar CSV, metadata to JSON with sorted keys and fixed 17-significant-
digit float formatting so identical runs produce byte-identical artifacts.
All writes are atomic (write to a temp file, then rename) and return the
sha256 of the bytes written, so hash manifests need no second read.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
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


def _as_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValidationError(where, f"expected number or [re, im] pair, got {v!r}")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def profile_from_json(obj, where: str) -> ScalarProfile:
    if obj is None:
        return ZERO_PROFILE
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(where, "profile must be null or an object with a 'type'")
    kind = obj["type"]
    if kind == "expsum":
        terms = tuple(
            (_as_complex(t["gamma"], f"{where}.gamma"), float(t["a"])) for t in obj.get("terms", [])
        )
        return ExpSumProfile(terms)
    if kind == "sampled":
        values = np.array([_as_complex(v, f"{where}.values") for v in obj["values"]])
        return SampledProfile(float(obj["dx"]), values, float(obj.get("tail_rate", 1.0)))
    raise ValidationError(where, f"unknown profile type {kind!r}")


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
    try:
        return np.array([[_as_complex(v, where) for v in row] for row in obj])
    except TypeError as exc:
        raise ValidationError(where, "expected a nested array of numbers") from exc


def random_edge_system(spec: dict, seed) -> EdgeCoupledSystem:
    """Deterministic random fixture: exponential-sum couplings from a seed."""
    from .edge_coupled import EdgeCoupledSystem

    rng = np.random.default_rng(0 if seed is None else seed)
    disp = Dispersion(int(spec["n"]), tuple(float(v) for v in spec["xi"]))
    n = disp.n
    terms = int(spec.get("terms", 2))
    amp = float(spec.get("amplitude", 0.3))
    rate_lo = float(spec.get("rate_min", 1.0))
    rate_hi = float(spec.get("rate_max", 2.5))
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
    edge_boundary2.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc

    out: dict = {}
    disp = None
    if "dispersion" in raw:
        d = raw["dispersion"]
        disp = Dispersion(int(d["n"]), tuple(float(v) for v in d["xi"]))
        out["dispersion"] = disp
    if "potential" in raw:
        p = raw["potential"]
        if disp is None:
            raise ValidationError("potential", "needs a dispersion section")
        n = disp.n
        env = p.get("envelope", {"C": 1.0, "eps": 1.0})
        blocks = {}
        for name in ("q11", "q12", "q21", "q22"):
            rows = p.get(name)
            if rows is None:
                blocks[name] = None
                continue
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValidationError(name, f"must be {n} x {n}")
            blocks[name] = [
                [profile_from_json(cell, f"{name}[{i}][{j}]") for j, cell in enumerate(row)]
                for i, row in enumerate(rows)
            ]
        out["potential"] = TriangularPotential(
            n, envelope=(float(env["C"]), float(env["eps"])), **blocks
        )
    for key in ("boundary", "boundary2"):
        if key in raw:
            out[key] = BoundaryMatrix(_matrix_from_json(raw[key]["H"], key))
    if "edge_system" in raw:
        from .edge_coupled import EdgeCoupledSystem

        e = raw["edge_system"]
        disp_e = Dispersion(int(e["n"]), tuple(float(v) for v in e["xi"]))
        env = e.get("envelope", {"C": 1.0, "eps": 1.0})
        c_first = tuple(
            profile_from_json(p, f"edge_system.c_first[{i}]") for i, p in enumerate(e.get("c_first", []))
        )
        c_last = tuple(
            profile_from_json(p, f"edge_system.c_last[{i}]") for i, p in enumerate(e.get("c_last", []))
        )
        out["edge_system"] = EdgeCoupledSystem(
            disp_e, c_first, c_last, (float(env["C"]), float(env["eps"]))
        )
    elif "random_edge_system" in raw:
        out["edge_system"] = random_edge_system(raw["random_edge_system"], seed)
    for key in ("edge_boundary", "edge_boundary2"):
        if key in raw:
            from .edge_coupled import EdgeBoundary

            block = _matrix_from_json(raw[key]["h_block"], key)
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


def atomic_write_text(path, text: str) -> str:
    """Write text as UTF-8 atomically; returns the sha256 hex digest of the bytes."""
    data = text.encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _csv_field(value: str) -> str:
    """One inner CSV field quoted as csv.writer quotes it, escaped for %-templates."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[: -len(",\n")].replace("%", "%%")


def kernels_to_csv(kernels) -> str:
    """Columnar kernel dump: x, t, block, k, j, re, im (1-based indices).

    Each x row of a channel is one %-format call over a row template, which
    prints every float exactly as format(v, ".17g") does.
    """
    x = kernels.x_grid
    tau = kernels.tau_grid
    n = kernels.n
    parts = ["x,t,block,k,j,re,im\n"]
    cols = np.empty((len(tau), 4))
    for name in ("A11", "A12", "A21", "A22"):
        block = kernels.blocks[name]
        for k in range(n):
            for j in range(n):
                vals = block[k, j]
                if np.abs(vals).max() == 0.0:
                    continue
                template = f"%.17g,%.17g,{_csv_field(name)},{k + 1},{j + 1},%.17g,%.17g\n" * len(tau)
                for ix in range(len(x)):
                    cols[:, 0] = x[ix]
                    cols[:, 1] = x[ix] + tau
                    cols[:, 2] = vals[ix].real
                    cols[:, 3] = vals[ix].imag
                    parts.append(template % tuple(cols.ravel().tolist()))
    return "".join(parts)


def linefuncs_to_csv(named) -> str:
    """lambda, block, k, j, re, im for a mapping name -> LineMatrixFunction."""
    parts = ["lambda,block,k,j,re,im\n"]
    for name, f in named.items():
        grid = f.grid
        cols = np.empty((len(grid), 3))
        cols[:, 0] = grid
        field = _csv_field(name)
        for k in range(f.m):
            for j in range(f.m):
                col = f.values[:, k, j]
                cols[:, 1] = col.real
                cols[:, 2] = col.imag
                template = f"%.17g,{field},{k + 1},{j + 1},%.17g,%.17g\n" * len(grid)
                parts.append(template % tuple(cols.ravel().tolist()))
    return "".join(parts)


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
        m = max(max(k, j) for k, j in entries)
        lams = vals = None
        for (k, j), pts in entries.items():
            pts.sort(key=itemgetter(0))
            entry_lams = [p[0] for p in pts]
            if len(set(entry_lams)) < len(entry_lams):
                raise ParseError(path, f"entry ({k},{j}) in block {name} repeats a lambda value")
            if lams is None:
                lams, vals = entry_lams, np.zeros((len(entry_lams), m, m), dtype=complex)
            elif entry_lams != lams:
                raise ParseError(path, f"entry ({k},{j}) in block {name} is not sampled on the block's lambda grid")
            vals[:, k - 1, j - 1] = [p[1] for p in pts]
        out[name] = LineMatrixFunction(np.array(lams), vals)
    return out


def sidecar_metadata(kernels=None, linefuncs=None) -> dict:
    meta: dict = {}
    if kernels is not None:
        meta["kernels"] = {
            "step": kernels.step,
            "x_points": int(kernels.blocks["A11"].shape[2]),
            "tau_points": int(kernels.blocks["A11"].shape[3]),
            "theta": kernels.theta,
            "c_tilde": kernels.c_tilde,
            "envelope_eps": kernels.envelope_eps,
            "sweeps": kernels.sweeps,
        }
    if linefuncs:
        meta["functions"] = {
            name: {
                "lambda_min": float(f.grid[0]),
                "lambda_max": float(f.grid[-1]),
                "n_points": len(f.grid),
                "analyticity": {"kind": f.analyticity.kind, "delta": float(f.analyticity.delta)
                                if np.isfinite(f.analyticity.delta) else "inf"},
            }
            for name, f in linefuncs.items()
        }
    return meta


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
