"""The three benchmark workloads: seeded inputs, `isp` command sequences and
output checks.

Inputs are written as explicit files (problem JSON, run configs, lambda-grid
CSVs) with paths relative to the workload directory, which is also the cwd of
every `isp` process, so the same seed gives byte-identical files wherever the
directory lives.  The checks read the outputs with this module's own parser
and compare them with an independent truth: a bounded-solution oracle for the
forward arm, the synthetic blocks for the inverse arm, and the program's own
closed-form roundtrip score for the explicit class.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("forward-n2", "inverse-2bdry-m2", "edge-roundtrip-n3")

# Grid sizes per workload.  "full" is what the benchmark measures; "tiny"
# runs the same commands and checks in seconds, for the benchmark's tests.
SIZES = {
    "full": {
        "forward-n2": {"kernel_step": 0.08, "x_max": 10.0, "t_max": 20.0, "lambda_max": 100.0, "n_lambda": 2048},
        "inverse-2bdry-m2": {"lambda_max": 100.0, "n_lambda": 1024},
        "edge-roundtrip-n3": {"lambda_max": 200.0, "n_lambda": 4096, "compare_to": 5.0},
    },
    "tiny": {
        "forward-n2": {"kernel_step": 0.1, "x_max": 8.0, "t_max": 16.0, "lambda_max": 50.0, "n_lambda": 256},
        "inverse-2bdry-m2": {"lambda_max": 100.0, "n_lambda": 1024},
        "edge-roundtrip-n3": {"lambda_max": 200.0, "n_lambda": 4096, "compare_to": 5.0},
    },
}

# Contract tolerances: criterion 07 (block recovery) and criterion 08
# (explicit-class roundtrip) of the acceptance gate.
BLOCK_RECOVERY_TOL = 1e-5
EDGE_ROUNDTRIP_TOL = 1e-4
# P against the bounded-solution oracle, relative to sup |P - I| at the probe
# points.  The kernel march is second order in the step; at the full step the
# error is a few 1e-3, so 2e-2 leaves room for seeds without hiding a broken
# solve (which is off by O(1)).
FORWARD_ORACLE_TOL = 2e-2
FORWARD_ORACLE_STEP = 0.01
FORWARD_PROBE_LAMBDAS = (-8.0, -4.0, -2.0, -0.5, 0.0, 1.0, 3.0, 6.0)
# P and Pi are both written with 17 significant digits
P_PI_TOL = 1e-10

# (isp command, config file, output directory) per workload, run in order
COMMANDS = {
    "forward-n2": [("forward", "forward.json", "out/forward")],
    "inverse-2bdry-m2": [
        ("rh-solve", "rh1.json", "out/rh1"),
        ("rh-solve", "rh2.json", "out/rh2"),
        ("recover-blocks", "recover.json", "out/recover"),
    ],
    "edge-roundtrip-n3": [
        ("edge-forward", "edge.json", "out/edge-forward"),
        ("edge-roundtrip", "edge.json", "out/edge-roundtrip"),
    ],
}


def lambda_grid(lambda_max: float, n_lambda: int) -> np.ndarray:
    """The library's uniform half-open grid [-L, L)."""
    step = 2.0 * lambda_max / n_lambda
    return -lambda_max + step * np.arange(n_lambda)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_linefuncs(path: Path, grid: np.ndarray, named: dict) -> None:
    """Columnar lambda,block,k,j,re,im CSV, the format `isp` reads."""
    lines = ["lambda,block,k,j,re,im"]
    lam = [format(float(v), ".17g") for v in grid]
    for name, vals in named.items():
        m = vals.shape[1]
        for k in range(m):
            for j in range(m):
                col = vals[:, k, j]
                lines.extend(
                    f"{lam[i]},{name},{k + 1},{j + 1},{format(float(z.real), '.17g')},{format(float(z.imag), '.17g')}"
                    for i, z in enumerate(col)
                )
    path.write_text("\n".join(lines) + "\n")


def read_linefuncs(path: Path) -> tuple[np.ndarray, dict]:
    """Parse an `isp` lambda-grid CSV into (grid, {block: (N, m, m) array})."""
    rows: dict = {}
    with open(path) as fh:
        if next(fh).strip() != "lambda,block,k,j,re,im":
            raise ValueError(f"{path}: unexpected header")
        for line in fh:
            lam, name, k, j, re, im = line.rstrip("\n").split(",")
            rows.setdefault(name, {}).setdefault((int(k), int(j)), []).append(
                (float(lam), complex(float(re), float(im)))
            )
    grid = None
    out = {}
    for name, entries in rows.items():
        m = max(max(k, j) for k, j in entries)
        first = sorted(next(iter(entries.values())))
        grid = np.array([p[0] for p in first])
        vals = np.zeros((len(grid), m, m), dtype=complex)
        for (k, j), pts in entries.items():
            pts.sort()
            vals[:, k - 1, j - 1] = [p[1] for p in pts]
        out[name] = vals
    return grid, out


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _expsum(rng, amplitude: float, terms: int, rate_lo: float, rate_hi: float) -> dict:
    """One exponential-sum profile whose |gamma| add up to amplitude.

    Fixing the total keeps the envelope, and so the sweep count and output
    sizes, nearly the same from seed to seed.  The term phases stay within a
    quarter turn of a common phase, so |profile(0)| >= amplitude / sqrt(2):
    a profile whose terms nearly cancel would make the relative recovery
    error of the explicit class ill-conditioned while its absolute error
    stays the same.
    """
    weights = rng.uniform(0.2, 1.0, terms)
    weights *= amplitude / weights.sum()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    out = []
    for w in weights:
        gamma = w * np.exp(1j * (phase + rng.uniform(-0.25 * math.pi, 0.25 * math.pi)))
        out.append({"gamma": [gamma.real, gamma.imag], "a": float(rng.uniform(rate_lo, rate_hi))})
    return {"type": "expsum", "terms": out}


# Admissible entries of the four potential blocks (0-based indices), as the
# problem statement defines them: q11 strictly lower, q12 lower
# anti-triangular, q21 upper anti-triangular, q22 strictly upper.
_ADMISSIBLE = {
    "q11": lambda i, j, n: i > j,
    "q12": lambda i, j, n: i + j >= n - 1,
    "q21": lambda i, j, n: i + j <= n - 1,
    "q22": lambda i, j, n: j > i,
}


def _forward_inputs(rng, size: dict, work: Path) -> dict:
    n = 2
    rate_lo, rate_hi = 1.0, 2.0
    amplitude = 1.0
    blocks = {}
    entries = 0
    for name, rule in _ADMISSIBLE.items():
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if rule(i, j, n):
                    row.append(_expsum(rng, amplitude, 2, rate_lo, rate_hi))
                    entries += 1
                else:
                    row.append(None)
            rows.append(row)
        blocks[name] = rows
    h = np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, (n, n))
    problem = {
        "dispersion": {"n": n, "xi": [-2.0, -1.0, 1.0, 2.0]},
        "potential": {"envelope": {"C": 1.001 * amplitude, "eps": rate_lo}, **blocks},
        "boundary": {"H": h.tolist()},
    }
    _write_json(work / "problem.json", problem)
    _write_json(work / "forward.json", {"problem": "problem.json", **size})
    return {"potential_entries": entries}


def _boundary_pair(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """H1 near I and H2 near 2I.

    For m <= 2 each perturbation has 2-norm at most 0.4, so H1, H2 and
    H1 - H2 (within 0.8 of -I) stay well conditioned for every seed.
    """
    h1 = np.eye(m) + 0.2 * rng.uniform(-1.0, 1.0, (m, m))
    h2 = 2.0 * np.eye(m) + 0.2 * rng.uniform(-1.0, 1.0, (m, m))
    return h1, h2


def _rational_block(rng, grid: np.ndarray, m: int, kind: str, cap: float) -> np.ndarray:
    """m x m block of simple poles on one side of the axis, scaled to sup norm cap.

    Plus functions (analytic above the axis) have their poles below it and
    minus functions above it.
    """
    side = -1.0 if kind == "plus" else 1.0
    vals = np.zeros((len(grid), m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            c = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2 * m)
            pole = complex(rng.uniform(-2.0, 2.0), side * rng.uniform(0.9, 2.0))
            vals[:, i, j] = c / (grid - pole)
    return vals * (cap / np.linalg.norm(vals, ord=2, axis=(1, 2)).max())


def _boundary_scattering(blocks: dict, h: np.ndarray) -> np.ndarray:
    """S_H = [I + A_H+]^-1 [I + A_H-] for the boundary y2(0) = H y1(0),

    with A_H+ = A22+ - H A12+ and A_H- = (H A11- - A21-) H^-1.
    """
    eye = np.eye(h.shape[0])
    a_plus = blocks["A22_plus"] - h @ blocks["A12_plus"]
    a_minus = (h @ blocks["A11_minus"] - blocks["A21_minus"]) @ np.linalg.inv(h)
    return np.linalg.solve(eye + a_plus, eye + a_minus)


def inverse_truth(seed: int, size: dict) -> tuple[np.ndarray, dict, np.ndarray, np.ndarray]:
    """The synthetic blocks and boundary matrices, rebuilt from the seed.

    Blocks capped at 0.15 and the H of _boundary_pair keep |A_H+-| below 0.7
    on the axis, so I + A_H+- stays invertible off it: the factorization of
    S_H has zero partial indices and is unique.
    """
    rng = np.random.default_rng([seed, 2])
    m = 2
    grid = lambda_grid(size["lambda_max"], size["n_lambda"])
    blocks = {
        name: _rational_block(rng, grid, m, "minus" if name.endswith("minus") else "plus", 0.15)
        for name in ("A11_minus", "A21_minus", "A12_plus", "A22_plus")
    }
    h1, h2 = _boundary_pair(rng, m)
    return grid, blocks, h1, h2


def _inverse_inputs(seed: int, size: dict, work: Path) -> dict:
    grid, blocks, h1, h2 = inverse_truth(seed, size)
    for i, h in enumerate((h1, h2), start=1):
        _write_linefuncs(work / f"s_h{i}.csv", grid, {"S": _boundary_scattering(blocks, h)})
        _write_json(work / f"rh{i}.json", {"input": f"s_h{i}.csv", "split_edge_tol": 0.02, **size})
    _write_json(work / "boundaries.json", {"boundary": {"H": h1.tolist()}, "boundary2": {"H": h2.tolist()}})
    _write_json(
        work / "recover.json",
        {
            "problem": "boundaries.json",
            "inputs": {"factorization1": "out/rh1/factors.csv", "factorization2": "out/rh2/factors.csv"},
            **size,
        },
    )
    return {"m": 2, "collocation_unknowns": 2 * size["n_lambda"]}


def _edge_inputs(rng, size: dict, work: Path) -> dict:
    n = 3
    xi = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
    rate_lo, rate_hi = 1.0, 2.5
    amplitude = 0.3
    families = {
        fam: [_expsum(rng, amplitude, 2, rate_lo, rate_hi) for _ in range(2 * n - 2)]
        for fam in ("c_first", "c_last")
    }
    h1, h2 = _boundary_pair(rng, n - 1)
    problem = {
        "edge_system": {
            "n": n,
            "xi": xi,
            "envelope": {"C": 1.001 * amplitude, "eps": rate_lo},
            **families,
        },
        "edge_boundary": {"h_block": h1.tolist()},
        "edge_boundary2": {"h_block": h2.tolist()},
    }
    _write_json(work / "edge_problem.json", problem)
    _write_json(work / "edge.json", {"problem": "edge_problem.json", "split_edge_tol": 0.01, **size})
    # s_max = (xi_2n - xi_1) compare_to on the step pi / lambda_max
    s_points = int(round((xi[-1] - xi[0]) * size["compare_to"] * size["lambda_max"] / math.pi)) + 1
    return {"phase_matrix_mb": s_points * size["n_lambda"] * 16 / 1e6}


def write_inputs(workload: str, seed: int, size_name: str, work: Path) -> dict:
    """Write the workload's input files into work; returns its size metadata."""
    size = SIZES[size_name][workload]
    work.mkdir(parents=True, exist_ok=True)
    if workload == "forward-n2":
        extra = _forward_inputs(np.random.default_rng([seed, 1]), size, work)
    elif workload == "inverse-2bdry-m2":
        extra = _inverse_inputs(seed, size, work)
    else:
        extra = _edge_inputs(np.random.default_rng([seed, 3]), size, work)
    return {**size, **extra}


# ---------------------------------------------------------------------------
# output checks: list of (name, ok, detail)
# ---------------------------------------------------------------------------


def _report(work: Path, out: str) -> dict:
    return json.loads((work / out / "report.json").read_text())


def _check_forward(work: Path, seed: int, size: dict) -> list:
    from isphalf.forward import solve_bounded_solution
    from isphalf.serialize import load_problem

    grid, funcs = read_linefuncs(work / "out/forward/transmission.csv")
    p, pi = funcs["P"], funcs["Pi"]
    eye = np.eye(p.shape[1])
    pair = float(np.abs(p @ pi - eye).max())
    checks = [("forward.p_times_pi", pair <= P_PI_TOL, pair)]

    problem = load_problem(work / "problem.json")
    pot, disp = problem["potential"], problem["dispersion"]
    idx = sorted({int(np.argmin(np.abs(grid - lam))) for lam in FORWARD_PROBE_LAMBDAS})
    err = scale = 0.0
    for i in idx:
        lam = float(grid[i])
        oracle = np.zeros_like(p[i])
        for col in range(p.shape[1]):
            amps = eye[col]
            # a longer truncation than the kernel grid's, so the two share no tail error
            sol = solve_bounded_solution(
                pot, disp, lam, amps[: disp.n], amps[disp.n :],
                step=FORWARD_ORACLE_STEP, x_max=size["x_max"] + 10.0,
            )
            oracle[:, col] = sol.y[0]
        err = max(err, float(np.abs(p[i] - oracle).max()))
        scale = max(scale, float(np.abs(oracle - eye).max()))
    rel = err / scale
    checks.append(("forward.p_vs_bounded_solution", rel <= FORWARD_ORACLE_TOL, rel))
    return checks


def _check_inverse(work: Path, seed: int, size: dict) -> list:
    _, truth, _, _ = inverse_truth(seed, size)
    _, got = read_linefuncs(work / "out/recover/blocks.csv")
    checks = []
    for name, want in truth.items():
        err = float(np.abs(got[name] - want).max()) if name in got else math.inf
        checks.append((f"inverse.{name}", err <= BLOCK_RECOVERY_TOL, err))
    return checks


def _check_edge(work: Path, seed: int, size: dict) -> list:
    rel = float(_report(work, "out/edge-roundtrip")["max_rel_error"])
    column = _report(work, "out/edge-forward")["column_sup"]
    return [
        ("edge.max_rel_error", rel <= EDGE_ROUNDTRIP_TOL, rel),
        # the single nonzero column of S must not vanish, or the roundtrip is vacuous
        ("edge.column_nonzero", column > 1e-3, column),
    ]


def check_outputs(workload: str, seed: int, size_name: str, work: Path) -> list:
    size = SIZES[size_name][workload]
    if workload == "forward-n2":
        return _check_forward(work, seed, size)
    if workload == "inverse-2bdry-m2":
        return _check_inverse(work, seed, size)
    return _check_edge(work, seed, size)
