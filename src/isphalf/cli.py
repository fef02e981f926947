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

    _, tau = fwd.kernel_grid(pot, disp, step=cfg.kernel_step, x_max=cfg.x_max, tau_max=cfg.t_max)
    fwd.check_transform_phase(disp, cfg.lambda_max, float(tau[-1]))
    kernels = fwd.solve_kernels(pot, disp, step=cfg.kernel_step, x_max=cfg.x_max, tau_max=cfg.t_max)
    grid = make_grid(cfg.lambda_max, cfg.n_lambda)
    blocks = fwd.kernel_transforms(kernels, disp, grid)
    plus, minus = fwd.boundary_parts(blocks, bnd)
    s_mat = fwd.scattering_matrix(plus, minus)
    p_mat, pi_mat = fwd.transmission_matrix(blocks)
    strips = fwd.strip_diagnostics(plus, minus)

    named_blocks = blocks.named()
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
        "kernel_sweep_changes": [list(block) for block in kernels.sweep_changes],
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


def _jump_matrix(funcs: dict):
    """Block S of a lambda-grid input, else its first block."""
    return funcs.get("S") or next(iter(funcs.values()))


def _edge_problem(cfg):
    """The problem's edge_system and edge_boundary, the whole problem, and the lambda grid."""
    from .linefunc import make_grid

    problem = _load_problem(cfg)
    sys_ = _require(problem, "edge_system")
    bnd = _require(problem, "edge_boundary")
    return sys_, bnd, problem, make_grid(cfg.lambda_max, cfg.n_lambda)


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

    s_mat = _jump_matrix(_input_linefuncs(cfg))
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
    report = {"command": "recover-blocks", "consistency": diag, "consistency_tol": CONSISTENCY_TOL}
    return report, {"blocks.csv": linefuncs_to_csv(blocks.named())}


def _cmd_edge_forward(cfg):
    from .edge_coupled import edge_scattering, s_period_wrap
    from .serialize import linefuncs_to_csv

    sys_, bnd, _, grid = _edge_problem(cfg)
    s_mat = edge_scattering(sys_, bnd, grid)
    report = {
        "command": "edge-forward",
        "n": sys_.n,
        "column_sup": float(abs(s_mat.values[:, : sys_.n - 1, sys_.n - 1]).max()),
        "s_period_wrap": s_period_wrap(sys_, grid),
    }
    return report, {"edge_scattering.csv": linefuncs_to_csv({"S": s_mat})}


def _cmd_edge_roundtrip(cfg):
    from .edge_coupled import edge_roundtrip, s_period_wrap

    sys_, bnd, problem, grid = _edge_problem(cfg)
    bnd2 = _require(problem, "edge_boundary2")
    result = edge_roundtrip(
        sys_,
        bnd,
        bnd2,
        grid,
        compare_to=cfg.compare_to,
        split_edge_tol=cfg.split_edge_tol,
    )
    return {"command": "edge-roundtrip", **result, "s_period_wrap": s_period_wrap(sys_, grid)}, {}


def _cmd_report(cfg):
    from .rh import solvability_report
    from .forward import strip_diagnostics

    funcs = _input_linefuncs(cfg)
    report: dict = {"command": "report"}
    if "S" in funcs or len(funcs) == 1:
        report["solvability"] = solvability_report(_jump_matrix(funcs))
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
