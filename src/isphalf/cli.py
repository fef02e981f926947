"""Command-line driver.

isp <command> --config <path> [--out <dir>] [--threads K] [--seed S]

Commands: validate, forward, split, rh-solve, recover-blocks, edge-forward,
edge-roundtrip, report.  Each command computes and returns its report and
its artifacts (file name -> text or text chunks); main alone writes them,
each atomically and hashed into the report's manifest, then report.json.
Exit codes: 0 success, 1 numerical failure (the failing operation's error
name lands in the report), 2 input errors or a report with "valid": false.
Reports are byte-deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _set_thread_env(threads: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="isp", description=__doc__)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument(
        "--out", default=None, help="output directory (default: the config's out_dir, else $ISP_OUT_DIR, else ./isp-out)"
    )
    parser.add_argument(
        "--threads", type=_thread_count, default=None, help="worker thread cap; 1 is the determinism reference"
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for generated fixtures")
    args = parser.parse_args(argv)

    if args.threads is not None:
        _set_thread_env(args.threads)

    # imports deferred so the thread env applies before numpy loads
    from .config import load_config
    from .errors import IspError, NumericalError
    from .serialize import atomic_write_text, render_report

    out_dir = _resolve_out_dir(args.out)
    try:
        cfg = load_config(args.config)
        cfg = cfg.with_overrides(out_dir=args.out, seed=args.seed)
        out_dir = _resolve_out_dir(cfg.out_dir)
        report, artifacts = _COMMANDS[args.command](cfg)
        if artifacts:
            report["manifest"] = {name: atomic_write_text(out_dir / name, text) for name, text in artifacts.items()}
        atomic_write_text(out_dir / "report.json", render_report(report))
        return 2 if report.get("valid") is False else 0
    except IspError as exc:
        kind = type(exc).__name__
        report = {**vars(exc), "error": kind, "detail": str(exc)}
        try:
            atomic_write_text(out_dir / "report.json", render_report(report))
        except OSError:
            pass
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NumericalError) else 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _resolve_out_dir(out_dir: str | None) -> Path:
    return Path(out_dir or os.environ.get("ISP_OUT_DIR") or "isp-out")


def _require(problem: dict, key: str):
    from .errors import ValidationError

    if key not in problem:
        raise ValidationError(key, "missing from the problem description")
    return problem[key]


def _load_problem(cfg):
    from .errors import ValidationError
    from .serialize import load_problem

    if not cfg.problem:
        raise ValidationError("problem", "configuration has no problem path")
    return load_problem(cfg.problem, seed=cfg.seed)


def _cmd_validate(cfg):
    from .domain import validate_potential

    problem = _load_problem(cfg)
    pot = _require(problem, "potential")
    violations = validate_potential(pot)
    report = {
        "command": "validate",
        "valid": not violations,
        "violations": violations,
        "n": pot.n,
        "envelope": {"C": pot.envelope[0], "eps": pot.envelope[1]},
    }
    return report, {}


def _cmd_forward(cfg):
    from . import forward as fwd
    from .domain import SINGULARITY_TOL, validate_potential
    from .errors import ValidationError
    from .linefunc import make_grid
    from .serialize import kernels_to_csv, linefuncs_to_csv, render_report, sidecar_metadata

    problem = _load_problem(cfg)
    disp = _require(problem, "dispersion")
    pot = _require(problem, "potential")
    bnd = _require(problem, "boundary")
    violations = validate_potential(pot)
    if violations:
        raise ValidationError("potential", "; ".join(violations))

    kernels = fwd.solve_kernels(pot, disp, step=cfg.kernel_step, x_max=cfg.x_max, tau_max=cfg.t_max)
    grid = make_grid(cfg.lambda_max, cfg.n_lambda)
    blocks = fwd.kernel_transforms(kernels, disp, grid)
    plus, minus = fwd.boundary_parts(blocks, bnd)
    s_mat = fwd.scattering_matrix(plus, minus)
    p_mat, pi_mat = fwd.transmission_matrix(blocks)
    strips = fwd.strip_diagnostics(plus, minus)

    named_blocks = {
        "A11_minus": blocks.a11_minus,
        "A21_minus": blocks.a21_minus,
        "A12_plus": blocks.a12_plus,
        "A22_plus": blocks.a22_plus,
    }
    named_scatter = {"S": s_mat, "plus": plus, "minus": minus}
    artifacts = {
        "kernels.csv": kernels_to_csv(kernels),
        "transforms.csv": linefuncs_to_csv(named_blocks),
        "scattering.csv": linefuncs_to_csv(named_scatter),
        "transmission.csv": linefuncs_to_csv({"P": p_mat, "Pi": pi_mat}),
        "sidecar.json": render_report(sidecar_metadata(kernels=kernels, linefuncs={**named_blocks, **named_scatter})),
    }
    report = {
        "command": "forward",
        "sweeps": kernels.sweeps,
        "kernel_sweep_changes": list(kernels.sweep_changes),
        "theta": kernels.theta,
        "c_tilde": kernels.c_tilde,
        "min_abs_det_plus": strips["min_abs_det_plus"],
        "strip_diagnostics": strips,
        "tolerances": {
            "iteration_tol": fwd.DEFAULT_ITER_TOL,
            "tail_tol": fwd.DEFAULT_TAIL_TOL,
            "singularity_tol": SINGULARITY_TOL,
        },
        "grid": {"lambda_max": cfg.lambda_max, "n_lambda": cfg.n_lambda},
    }
    return report, artifacts


def _input_linefuncs(cfg, which: str = "input", blocks=()):
    """The blocks of the lambda-grid CSV at config key `which`; a file
    without any block, or without one of `blocks`, is refused."""
    from .errors import ValidationError
    from .serialize import linefuncs_from_csv

    path = cfg.input if which == "input" else cfg.inputs.get(which)
    if not path:
        raise ValidationError(which, "configuration has no input path")
    funcs = linefuncs_from_csv(path)
    missing = [name for name in blocks if name not in funcs] if funcs else ["lambda-grid"]
    if missing:
        raise ValidationError(which, f"{path} holds no {missing[0]} block")
    return funcs


def _cmd_split(cfg):
    from .rh import plemelj_split
    from .serialize import linefuncs_to_csv

    name, f = next(iter(_input_linefuncs(cfg).items()))
    plus, minus = plemelj_split(f, edge_tol=cfg.split_edge_tol)
    report = {
        "command": "split",
        "input_block": name,
        "edge_norm": f.edge_norm(),
        "split_edge_tol": cfg.split_edge_tol,
    }
    return report, {"split.csv": linefuncs_to_csv({f"{name}_plus": plus, f"{name}_minus": minus})}


def _cmd_rh_solve(cfg):
    from .rh import solve_regular_rh
    from .serialize import linefuncs_to_csv

    funcs = _input_linefuncs(cfg)
    s_mat = funcs.get("S") or next(iter(funcs.values()))
    plus, minus, diag = solve_regular_rh(s_mat, edge_tol=cfg.split_edge_tol)
    return {"command": "rh-solve", **diag}, {"factors.csv": linefuncs_to_csv({"plus": plus, "minus": minus})}


def _cmd_recover_blocks(cfg):
    from .rh import CONSISTENCY_TOL, recover_blocks
    from .serialize import linefuncs_to_csv

    problem = _load_problem(cfg)
    bnd1 = _require(problem, "boundary")
    bnd2 = _require(problem, "boundary2")
    fac1 = _input_linefuncs(cfg, "factorization1", ("plus", "minus"))
    fac2 = _input_linefuncs(cfg, "factorization2", ("plus", "minus"))
    blocks, diag = recover_blocks(fac1["plus"], fac1["minus"], fac2["plus"], fac2["minus"], bnd1, bnd2)
    a11m, a12p, a21m, a22p = blocks
    report = {"command": "recover-blocks", "consistency": diag, "consistency_tol": CONSISTENCY_TOL}
    named = {"A11_minus": a11m, "A12_plus": a12p, "A21_minus": a21m, "A22_plus": a22p}
    return report, {"blocks.csv": linefuncs_to_csv(named)}


def _cmd_edge_forward(cfg):
    from .edge_coupled import edge_scattering
    from .linefunc import make_grid
    from .serialize import linefuncs_to_csv

    problem = _load_problem(cfg)
    sys_ = _require(problem, "edge_system")
    bnd = _require(problem, "edge_boundary")
    grid = make_grid(cfg.lambda_max, cfg.n_lambda)
    s_mat = edge_scattering(sys_, bnd, grid)
    report = {
        "command": "edge-forward",
        "n": sys_.n,
        "column_sup": float(abs(s_mat.values[:, : sys_.n - 1, sys_.n - 1]).max()),
    }
    return report, {"edge_scattering.csv": linefuncs_to_csv({"S": s_mat})}


def _cmd_edge_roundtrip(cfg):
    from .edge_coupled import edge_roundtrip
    from .linefunc import make_grid

    problem = _load_problem(cfg)
    sys_ = _require(problem, "edge_system")
    bnd = _require(problem, "edge_boundary")
    bnd2 = _require(problem, "edge_boundary2")
    grid = make_grid(cfg.lambda_max, cfg.n_lambda)
    result = edge_roundtrip(
        sys_,
        bnd,
        bnd2,
        grid,
        compare_to=cfg.compare_to,
        split_edge_tol=cfg.split_edge_tol,
    )
    return {"command": "edge-roundtrip", **result}, {}


def _cmd_report(cfg):
    from .rh import solvability_report
    from .forward import strip_diagnostics

    funcs = _input_linefuncs(cfg)
    report: dict = {"command": "report"}
    if "S" in funcs or len(funcs) == 1:
        s_mat = funcs.get("S") or next(iter(funcs.values()))
        report["solvability"] = solvability_report(s_mat)
    if "plus" in funcs and "minus" in funcs:
        report["strips"] = strip_diagnostics(funcs["plus"], funcs["minus"])
    return report, {}


_COMMANDS = {
    "validate": _cmd_validate,
    "forward": _cmd_forward,
    "split": _cmd_split,
    "rh-solve": _cmd_rh_solve,
    "recover-blocks": _cmd_recover_blocks,
    "edge-forward": _cmd_edge_forward,
    "edge-roundtrip": _cmd_edge_roundtrip,
    "report": _cmd_report,
}

if __name__ == "__main__":
    sys.exit(main())
