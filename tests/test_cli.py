import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isphalf
from isphalf import cli, errors, forward
from isphalf.cli import main
from isphalf.config import RunConfig, load_config
from isphalf.errors import ParseError, ValidationError
from isphalf.serialize import (
    linefuncs_from_csv,
    linefuncs_to_csv,
    load_problem,
    render_report,
)
from isphalf.linefunc import LineMatrixFunction, make_grid


EXP_PROBLEM = {
    "dispersion": {"n": 1, "xi": [-1.0, 1.0]},
    "potential": {
        "envelope": {"C": 1.0, "eps": 1.0},
        "q12": [[{"type": "expsum", "terms": [{"gamma": [1.0, 0.0], "a": 1.0}]}]],
    },
    "boundary": {"H": [[1.0]]},
}

EDGE_PROBLEM = {
    "edge_system": {
        "n": 2,
        "xi": [-2.0, -1.0, 1.0, 2.0],
        "envelope": {"C": 1.0, "eps": 1.0},
        "c_first": [None, {"type": "expsum", "terms": [{"gamma": [1.0, 0.0], "a": 1.0}]}],
        "c_last": [None, None],
    },
    "edge_boundary": {"h_block": [[1.0]]},
    "edge_boundary2": {"h_block": [[2.0]]},
}

FWD_CFG = {
    "lambda_max": 100.0,
    "n_lambda": 512,
    "kernel_step": 0.04,
    "x_max": 16.0,
    "t_max": 32.0,
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- configuration -----------------------------------------------------------


def test_minimal_config_defaults(tmp_path):
    path = _write(tmp_path, "c.json", {"lambda_max": 100, "n_lambda": 4096})
    cfg = load_config(path)
    assert cfg.lambda_max == 100.0
    assert cfg.kernel_step == 0.01 and cfg.x_max is None


def test_config_rejects_non_power_of_two(tmp_path):
    path = _write(tmp_path, "c.json", {"n_lambda": 1000})
    with pytest.raises(ValidationError, match="n_lambda"):
        load_config(path)


def test_config_rejects_negative_step(tmp_path):
    path = _write(tmp_path, "c.json", {"kernel_step": -0.1})
    with pytest.raises(ValidationError, match="kernel_step"):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    # retired keys: rh_rcond_tol (the RH solve forms no matrix to condition),
    # s_step (the s-step is pi / lambda_max), x_step, s_max and threads,
    # which nothing read (--threads stays a flag), and the method's fixed
    # tolerances, now module constants
    retired = ("rh_rcond_tol", "s_step", "x_step", "s_max", "threads")
    fixed = ("tail_tol", "iteration_tol", "max_sweeps", "singularity_tol", "consistency_tol")
    for key in ("lambada_max",) + retired + fixed:
        path = _write(tmp_path, "c.json", {key: 7})
        with pytest.raises(ValidationError, match="unknown configuration key"):
            load_config(path)


def test_config_parse_error_has_location(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{ not json }")
    with pytest.raises(ParseError, match="line"):
        load_config(path)


def test_config_tolerance_range():
    with pytest.raises(ValidationError):
        RunConfig(split_edge_tol=2.0)


@pytest.mark.parametrize(
    "key, value",
    [("lambda_max", "100"), ("n_lambda", 1024.0), ("kernel_step", None), ("x_max", "5"), ("compare_to", True),
     ("problem", 3), ("seed", 1.5), ("inputs", ["a.csv"]), ("inputs", {"factorization1": None})],
)
def test_config_value_of_wrong_type_is_input_error(tmp_path, key, value):
    cfg = _write(tmp_path, "c.json", {key: value})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"].startswith(key)


# -- problem files and round trips -------------------------------------------


def test_problem_loading(tmp_path):
    path = _write(tmp_path, "p.json", EXP_PROBLEM)
    prob = load_problem(path)
    assert prob["dispersion"].n == 1
    assert not prob["potential"].q12[0][0].is_zero
    assert prob["boundary"].H[0, 0] == 1.0


def test_random_problem_is_seed_deterministic(tmp_path):
    spec = {"random_edge_system": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0], "terms": 2}}
    path = _write(tmp_path, "p.json", spec)
    a = load_problem(path, seed=7)["edge_system"]
    b = load_problem(path, seed=7)["edge_system"]
    c = load_problem(path, seed=8)["edge_system"]
    assert a.c_first == b.c_first
    assert a.c_first != c.c_first


def test_linefunc_csv_roundtrip(tmp_path):
    grid = make_grid(10.0, 16)
    vals = np.arange(16 * 4, dtype=float).reshape(16, 2, 2) + 0.5j
    f = LineMatrixFunction(grid, vals)
    text = "".join(linefuncs_to_csv({"S": f}))
    path = tmp_path / "f.csv"
    path.write_text(text)
    back = linefuncs_from_csv(path)["S"]
    np.testing.assert_allclose(back.values, vals, rtol=1e-15)
    np.testing.assert_allclose(back.grid, grid, rtol=1e-15)


def test_report_rendering_deterministic():
    rep = {"b": 1.0 / 3.0, "a": [1, 2.5, {"z": True, "y": None}], "c": 1 + 2j}
    assert render_report(rep) == render_report(dict(reversed(rep.items())))
    assert "0.33333333333333331" in render_report(rep)


# -- commands ----------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_validate_command(tmp_path):
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["valid"] is True


def test_validate_flags_bad_structure(tmp_path):
    bad = {
        "dispersion": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0]},
        "potential": {
            "envelope": {"C": 1.0, "eps": 1.0},
            "q11": [
                [None, {"type": "expsum", "terms": [{"gamma": [1.0, 0.0], "a": 1.0}]}],
                [None, None],
            ],
        },
    }
    prob = _write(tmp_path, "p.json", bad)
    cfg = _write(tmp_path, "c.json", {"problem": prob})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["valid"] is False and "q11(1,2)" in rep["violations"][0]


_NO_RATE = {"type": "expsum", "terms": [{"gamma": [1.0, 0.0]}]}


@pytest.mark.parametrize(
    "problem, field",
    [
        ({"dispersion": {"xi": [-1, 1]}}, "dispersion.n"),
        ({**EXP_PROBLEM, "potential": {"q12": [[_NO_RATE]]}}, "potential.q12[0][0].terms[0].a"),
        ({**EXP_PROBLEM, "boundary": {}}, "boundary.H"),
        ({**EXP_PROBLEM, "boundary": {"H": [[1.0, 0.0], [0.0, 1.0]]}}, "boundary.H"),
    ],
)
def test_validate_malformed_problem_is_input_error(tmp_path, problem, field):
    prob = _write(tmp_path, "p.json", problem)
    cfg = _write(tmp_path, "c.json", {"problem": prob})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == field


@pytest.mark.parametrize("in_config", [True, False])
def test_negative_seed_is_input_error(tmp_path, in_config):
    spec = {"random_edge_system": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0]}, "edge_boundary": {"h_block": [[1.0]]}}
    prob = _write(tmp_path, "p.json", spec)
    cfg = _write(tmp_path, "c.json", {"problem": prob, "seed": -1} if in_config else {"problem": prob})
    out = tmp_path / "out"
    argv = ["edge-forward", "--config", cfg, "--out", str(out)] + ([] if in_config else ["--seed", "-1"])
    assert run_cli(*argv) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == "seed"


def test_forward_command_artifacts_and_determinism(tmp_path):
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, **FWD_CFG})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("forward", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("forward", "--config", cfg, "--out", str(out2)) == 0
    for name in ("report.json", "scattering.csv", "kernels.csv", "transmission.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep = json.loads((out1 / "report.json").read_text())
    assert "min_abs_det_plus" in rep
    history = rep["kernel_sweep_changes"]  # one list of sweep changes per tau-block
    assert history and all(changes[-1] < rep["tolerances"]["iteration_tol"] for changes in history)
    assert rep["sweeps"] == max(len(changes) for changes in history)
    assert rep["tolerances"]["tail_tol"] == 1e-12
    assert set(rep["manifest"]) == {p.name for p in out1.iterdir()} - {"report.json"}
    for name, digest in rep["manifest"].items():
        assert digest == hashlib.sha256((out1 / name).read_bytes()).hexdigest()
    grid = json.loads((out1 / "sidecar.json").read_text())["kernels"]
    rows = (out1 / "kernels.csv").read_text().splitlines()[1:]
    channels = {tuple(row.split(",")[2:5]) for row in rows}
    assert channels and len(rows) == len(channels) * (grid["x_points"] + grid["tau_points"] - 1)
    funcs = linefuncs_from_csv(out1 / "scattering.csv")
    lam = funcs["S"].grid
    want = (1 - 2j * lam) / (1 - 2j * lam - 1j)
    assert np.abs(funcs["S"].values[:, 0, 0] - want).max() < 1e-5


def test_forward_zero_potential_identity_scattering(tmp_path):
    prob_obj = {
        "dispersion": {"n": 2, "xi": [-2.0, -1.0, 1.0, 2.0]},
        "potential": {"envelope": {"C": 0.001, "eps": 1.0}},
        "boundary": {"H": [[1.0, 0.5], [0.0, 1.0]]},
    }
    prob = _write(tmp_path, "p.json", prob_obj)
    cfg = _write(tmp_path, "c.json", {"problem": prob, "n_lambda": 256, "x_max": 4.0, "t_max": 8.0, "kernel_step": 0.05})
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 0
    s = linefuncs_from_csv(out / "scattering.csv")["S"]
    dev = np.abs(s.values - np.eye(2)).max()
    assert dev == 0.0


def test_forward_refuses_grid_beyond_fixed_available_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(forward, "_available_memory", lambda: 1 << 34)
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, **FWD_CFG, "kernel_step": 1e-4, "x_max": 1e3, "t_max": 2e3})
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError"
    assert "GiB" in rep["detail"]
    assert {p.name for p in out.iterdir()} == {"report.json"}


def test_forward_refuses_grid_beyond_available_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(forward, "_available_memory", lambda: 1 << 20)
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, **FWD_CFG})
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError"
    assert "available memory" in rep["detail"]
    assert {p.name for p in out.iterdir()} == {"report.json"}


@pytest.mark.parametrize(
    "key, value, field",
    [("x_max", float("inf"), "x_max"), ("t_max", float("inf"), "t_max"), ("x_max", 10**400, "x_max"),
     ("kernel_step", 1e-300, "kernel grid"), ("kernel_step", 1e300, "step")],
)
def test_forward_refuses_unbounded_or_degenerate_grid(tmp_path, key, value, field):
    # a length beyond the float range, a grid too fine to count in memory,
    # and a step that leaves an axis fewer than 3 points are input errors,
    # not crashes
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, **FWD_CFG, key: value})
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == field
    assert {p.name for p in out.iterdir()} == {"report.json"}


@pytest.mark.parametrize("lambda_max", [1e308, 1e200])
def test_forward_refuses_a_lambda_max_whose_phase_keeps_no_digit(tmp_path, monkeypatch, lambda_max):
    # at 1e308 the grid step overflows, at 1e200 the Filon moments do; both
    # are refused before the kernel solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the kernel solve ran")

    monkeypatch.setattr(forward, "solve_kernels", no_solve)
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, **FWD_CFG, "lambda_max": lambda_max})
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == "lambda_max"
    assert {p.name for p in out.iterdir()} == {"report.json"}


def _split_config(tmp_path):
    grid = make_grid(100.0, 2048)
    f = LineMatrixFunction(grid, (1j / (grid + 1j) - 1j / (grid - 1j))[:, None, None])
    inp = tmp_path / "f.csv"
    inp.write_text("".join(linefuncs_to_csv({"f": f})))
    return _write(tmp_path, "split.json", {"input": str(inp)}), grid


def _rh_solve_config(tmp_path):
    grid = make_grid(100.0, 1024)
    s_vals = (1 + (0.1 + 0.1j) / (grid - 1.2j)) / (1 + 0.15 / (grid + 1.5j))
    inp = tmp_path / "s.csv"
    inp.write_text("".join(linefuncs_to_csv({"S": LineMatrixFunction(grid, s_vals[:, None, None])})))
    return _write(tmp_path, "rh.json", {"input": str(inp), "split_edge_tol": 0.01}), grid


def _recover_config(tmp_path, h2=2.0):
    # the grid must resolve the factor's analytic scale or the one-sided
    # content check would see aliased frequencies
    grid = make_grid(100.0, 2048)
    a12p = 1j / (1 - 2j * grid)
    fac_files = {}
    for tag, h in (("factorization1", 1.0), ("factorization2", 2.0)):
        plus = LineMatrixFunction(grid, (-h * a12p)[:, None, None])
        minus = LineMatrixFunction(grid, np.zeros((len(grid), 1, 1), complex))
        path = tmp_path / f"{tag}.csv"
        path.write_text("".join(linefuncs_to_csv({"plus": plus, "minus": minus})))
        fac_files[tag] = str(path)
    prob = _write(tmp_path, f"p{h2}.json", {"boundary": {"H": [[1.0]]}, "boundary2": {"H": [[h2]]}})
    return _write(tmp_path, f"recover{h2}.json", {"problem": prob, "inputs": fac_files}), a12p


def test_split_command(tmp_path):
    cfg, grid = _split_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 0
    parts = linefuncs_from_csv(out / "split.csv")
    assert np.abs(parts["f_plus"].values[:, 0, 0] - 1j / (grid + 1j)).max() < 1e-4


@pytest.mark.parametrize("n", [4, 8, 16])
def test_split_refuses_a_grid_too_small_for_the_tail_fit(tmp_path, n):
    # the split's edge fit needs 12 points, none of its edge samples at
    # lambda = 0: smaller grids exit 2 with a report, 16 points run
    grid = make_grid(100.0, n)
    f = LineMatrixFunction(grid, (1j / (grid + 1j) - 1j / (grid - 1j))[:, None, None])
    inp = tmp_path / "f.csv"
    inp.write_text("".join(linefuncs_to_csv({"f": f})))
    cfg = _write(tmp_path, "split.json", {"input": str(inp)})
    out = tmp_path / "out"
    if n == 16:
        assert run_cli("split", "--config", cfg, "--out", str(out)) == 0
        return
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == "lambda grid"
    assert {p.name for p in out.iterdir()} == {"report.json"}


def test_edge_roundtrip_refuses_a_grid_too_small_for_the_tail_fit(tmp_path):
    # compare_to 0.05 keeps the s-grid inside the 8-point period
    prob = _write(tmp_path, "p.json", EDGE_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, "n_lambda": 8, "split_edge_tol": 0.01, "compare_to": 0.05})
    out = tmp_path / "out"
    assert run_cli("edge-roundtrip", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == "lambda grid"


def _refuse(*args, **kwargs):
    raise AssertionError("LAPACK least squares, pinv, svd or qr reached")


@pytest.mark.parametrize("command", ["split", "rh-solve", "recover-blocks", "edge-roundtrip"])
def test_inverse_commands_run_without_lapack_least_squares(tmp_path, monkeypatch, command):
    # the split's fits and GMRES use Gram-Schmidt, np.linalg.solve and
    # Givens rotations; edge-roundtrip's per-point solve keeps its svd and
    # pinv, so only lstsq is refused there.  The grid models are built anew.
    from isphalf import projection

    refused = ["lstsq"] if command == "edge-roundtrip" else ["lstsq", "pinv", "svd", "qr"]
    for name in refused:
        monkeypatch.setattr(np.linalg, name, _refuse)
    projection._model_of_grid.cache_clear()
    out = tmp_path / "out"
    assert run_cli(command, "--config", _command_config(tmp_path, command), "--out", str(out)) == 0


def test_split_rejects_entries_on_different_grids(tmp_path):
    # (1,1) on lambda = 0..3, (1,2) on lambda = 10..13
    rows = [f"{lam},S,1,1,1,0" for lam in range(4)] + [f"{lam},S,1,2,0.5,0" for lam in range(10, 14)]
    inp = tmp_path / "s.csv"
    inp.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    cfg = _write(tmp_path, "split.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError"
    assert "(1,2)" in rep["detail"]


def test_split_rejects_repeated_lambda(tmp_path):
    # (1,1) samples lambda = 1 twice with different values
    rows = ["0,S,1,1,1,0", "1,S,1,1,2,0", "1,S,1,1,3,0", "2,S,1,1,4,0"]
    inp = tmp_path / "s.csv"
    inp.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    cfg = _write(tmp_path, "split.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError"
    assert rep["path"] == str(inp)
    assert "entry (1,1) in block S repeats a lambda value" in rep["detail"]


def test_split_rejects_index_below_one(tmp_path):
    # a k of 0 would index the value array at -1 and load into S[2,1]
    rows = ["0,S,0,1,1,0", "1,S,0,1,2,0", "0,S,2,2,3,0", "1,S,2,2,4,0"]
    inp = tmp_path / "s.csv"
    inp.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    cfg = _write(tmp_path, "split.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError"
    assert "entry (0,1) in block S has an index below 1" in rep["detail"]


@pytest.mark.parametrize("bad_row", ["1,S,1,1,abc,0", "1,S,1,1", "1,S,1,1,2,0,7"])
def test_split_rejects_malformed_row(tmp_path, bad_row):
    rows = ["0,S,1,1,1,0", bad_row, "2,S,1,1,4,0"]
    inp = tmp_path / "s.csv"
    inp.write_text("\n".join(["lambda,block,k,j,re,im", *rows]) + "\n")
    cfg = _write(tmp_path, "split.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError"
    assert rep["path"] == str(inp)
    assert rep["detail"].startswith(f"{inp}: line 3: ")


def test_rh_solve_command(tmp_path):
    cfg, grid = _rh_solve_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("rh-solve", "--config", cfg, "--out", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    history = rep["gmres_residuals"]
    assert 0 < len(history) < 50 and history[-1] <= 1e-13
    assert rep["plus_wrong_side_content"] < 1e-4 and rep["minus_wrong_side_content"] < 1e-4
    facs = linefuncs_from_csv(out / "factors.csv")
    assert np.abs(facs["plus"].values[:, 0, 0] - 0.15 / (grid + 1.5j)).max() < 1e-4
    out2 = tmp_path / "out2"
    assert run_cli("rh-solve", "--config", cfg, "--out", str(out2)) == 0
    assert (out2 / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_recover_blocks_command_and_degenerate_exit(tmp_path):
    cfg, a12p = _recover_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("recover-blocks", "--config", cfg, "--out", str(out)) == 0
    blocks = linefuncs_from_csv(out / "blocks.csv")
    assert np.abs(blocks["A12_plus"].values[:, 0, 0] - a12p).max() < 1e-10

    cfg_bad, _ = _recover_config(tmp_path, h2=1.0)
    out_bad = tmp_path / "outb"
    assert run_cli("recover-blocks", "--config", cfg_bad, "--out", str(out_bad)) == 1
    rep = json.loads((out_bad / "report.json").read_text())
    assert rep["error"] == "DegenerateBoundaryPair"


@pytest.mark.parametrize("command", ["split", "rh-solve", "report"])
def test_header_only_input_is_refused(tmp_path, command):
    inp = tmp_path / "s.csv"
    inp.write_text("lambda,block,k,j,re,im\n")
    cfg = _write(tmp_path, "c.json", {"input": str(inp), "split_edge_tol": 0.01})
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == "input"
    assert rep["detail"] == f"input: {inp} holds no lambda-grid block"
    assert {p.name for p in out.iterdir()} == {"report.json"}


@pytest.mark.parametrize("command", ["report", "rh-solve"])
def test_non_finite_sample_is_a_parse_error(tmp_path, command):
    # a NaN in a lambda-grid CSV is refused when the file is read, before
    # any determinant or solve sees it
    cfg, grid = _rh_solve_config(tmp_path)
    inp = Path(json.loads(Path(cfg).read_text())["input"])
    s_mat = linefuncs_from_csv(inp)["S"]
    values = s_mat.values * np.eye(2)
    values[100, 1, 0] = np.nan
    inp.write_text("".join(linefuncs_to_csv({"S": LineMatrixFunction(grid, values)})))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError" and rep["path"] == str(inp)
    assert rep["detail"] == f"{inp}: entry (2,1) in block S has a non-finite sample at lambda = {float(grid[100])!r}"
    assert {p.name for p in out.iterdir()} == {"report.json"}


@pytest.mark.parametrize("which", ["factorization1", "factorization2"])
@pytest.mark.parametrize("block", ["plus", "minus"])
def test_recover_blocks_refuses_factorization_without_a_block(tmp_path, which, block):
    cfg, _ = _recover_config(tmp_path)
    path = json.loads(Path(cfg).read_text())["inputs"][which]
    funcs = linefuncs_from_csv(path)
    del funcs[block]
    Path(path).write_text("".join(linefuncs_to_csv(funcs)))
    out = tmp_path / "out"
    assert run_cli("recover-blocks", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError" and rep["field"] == which
    assert rep["detail"] == f"{which}: {path} holds no {block} block"
    assert {p.name for p in out.iterdir()} == {"report.json"}


def test_edge_forward_and_roundtrip_commands(tmp_path):
    prob = _write(tmp_path, "p.json", EDGE_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, "split_edge_tol": 0.01})
    out = tmp_path / "out"
    assert run_cli("edge-forward", "--config", cfg, "--out", str(out)) == 0
    s = linefuncs_from_csv(out / "edge_scattering.csv")["S"]
    want = 1j / (1 + 3j * s.grid)
    assert np.abs(s.values[:, 0, 1] - want).max() < 1e-12

    out2 = tmp_path / "out2"
    assert run_cli("edge-roundtrip", "--config", cfg, "--out", str(out2)) == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["max_rel_error"] < 1e-4


def test_edge_reports_carry_the_s_period_wrap(tmp_path):
    # speeds spread over 9.4 with eps 1 give delta = 1 / 9.4; make_grid(200,
    # 4096) repeats the s-lattice every 2 pi / dlambda = 64.3, so the split
    # data keep e^{-6.84} = 1.1e-3 of their next period: reported, not
    # refused (compare_to 6 keeps the s-grid, 9.4 x 6 = 56.4, in one period)
    xi = [-4.7, -3.5, -2.2, -0.9, 0.9, 2.2, 3.5, 4.7]
    spec = {"random_edge_system": {"n": 4, "xi": xi}, "edge_boundary": {"h_block": np.eye(3).tolist()},
            "edge_boundary2": {"h_block": (2.0 * np.eye(3)).tolist()}}
    prob = _write(tmp_path, "p.json", spec)
    cfg = _write(
        tmp_path,
        "c.json",
        {"problem": prob, "lambda_max": 200.0, "n_lambda": 4096, "split_edge_tol": 0.05, "compare_to": 6.0},
    )
    want = np.exp(-(1.0 / 9.4) * 2.0 * np.pi / (400.0 / 4096))
    assert 1.0e-3 < want < 1.1e-3
    for command in ("edge-forward", "edge-roundtrip"):
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / command)) == 0
        rep = json.loads((tmp_path / command / "report.json").read_text())
        assert rep["s_period_wrap"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("compare_to", [100.0, 1e12, 1e308])
def test_edge_roundtrip_refuses_an_s_grid_beyond_one_period(tmp_path, monkeypatch, compare_to):
    # the default grid repeats the s-lattice every 2 pi / dlambda = 128.7;
    # s_max = (xi_2n - xi_1) compare_to = 400 reads wrapped densities, 4e12
    # asks for more memory than any machine has and 4e308 overflows to inf:
    # each is refused before any density is read
    from isphalf import edge_coupled

    def no_densities(*args):
        raise AssertionError("split_densities reached")

    monkeypatch.setattr(edge_coupled, "split_densities", no_densities)
    prob = _write(tmp_path, "p.json", EDGE_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob, "split_edge_tol": 0.01, "compare_to": compare_to})
    out = tmp_path / "out"
    assert run_cli("edge-roundtrip", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ValidationError"
    assert rep["field"] == "s_max"


def test_report_command(tmp_path):
    grid = make_grid(100.0, 512)
    s_vals = (1 - 2j * grid) / (1 - 2j * grid - 1j)
    inp = tmp_path / "s.csv"
    inp.write_text("".join(linefuncs_to_csv({"S": LineMatrixFunction(grid, s_vals[:, None, None])})))
    cfg = _write(tmp_path, "c.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("report", "--config", cfg, "--out", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["solvability"]["nonsingular"] is True


# the artifacts each command hands to cli.main, besides report.json
ARTIFACTS = {
    "validate": set(),
    "forward": {"kernels.csv", "transforms.csv", "scattering.csv", "transmission.csv", "sidecar.json"},
    "split": {"split.csv"},
    "rh-solve": {"factors.csv"},
    "recover-blocks": {"blocks.csv"},
    "edge-forward": {"edge_scattering.csv"},
    "edge-roundtrip": set(),
    "report": set(),
}


def _command_config(tmp_path, command):
    if command in ("validate", "forward"):
        prob = _write(tmp_path, "p.json", EXP_PROBLEM)
        return _write(
            tmp_path, "c.json", {"problem": prob, "n_lambda": 64, "kernel_step": 0.1, "x_max": 4.0, "t_max": 8.0}
        )
    if command.startswith("edge"):
        prob = _write(tmp_path, "e.json", EDGE_PROBLEM)
        # compare_to 5 keeps the s-grid, 4 x 5 = 20, in the period 32.2 of 1024 points
        return _write(
            tmp_path, "edge.json", {"problem": prob, "n_lambda": 1024, "split_edge_tol": 0.01, "compare_to": 5.0}
        )
    if command == "split":
        return _split_config(tmp_path)[0]
    if command == "recover-blocks":
        return _recover_config(tmp_path)[0]
    return _rh_solve_config(tmp_path)[0]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_main_writes_the_manifest_and_the_report(tmp_path, command):
    # cli.main is the one writer: the files its manifest lists, hashed as
    # written, and report.json; a command without artifacts has no manifest
    out = tmp_path / "out"
    assert run_cli(command, "--config", _command_config(tmp_path, command), "--out", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert {p.name for p in out.iterdir()} == ARTIFACTS[command] | {"report.json"}
    assert set(rep.get("manifest", {})) == ARTIFACTS[command]
    assert ("manifest" in rep) == bool(ARTIFACTS[command])
    for name, digest in rep.get("manifest", {}).items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


def test_missing_config_is_input_error(tmp_path):
    out = tmp_path / "out"
    assert run_cli("forward", "--config", str(tmp_path / "nope.json"), "--out", str(out)) == 2
    assert json.loads((out / "report.json").read_text())["error"] == "ParseError"


def test_config_that_is_not_utf8_is_input_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"n_lambda": 512\xff}')
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(cfg), "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError" and rep["path"] == str(cfg)


def test_problem_that_is_not_utf8_is_input_error(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_bytes(b'{"dispersion": 1\xff}')
    cfg = _write(tmp_path, "c.json", {"problem": str(prob)})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "ParseError" and rep["path"] == str(prob)


def test_failed_run_report_names_error(tmp_path):
    # non-decaying input: the split must refuse and the report must say why
    grid = make_grid(100.0, 512)
    f = LineMatrixFunction(grid, np.full((512, 1, 1), 0.5 + 0j))
    inp = tmp_path / "f.csv"
    inp.write_text("".join(linefuncs_to_csv({"f": f})))
    cfg = _write(tmp_path, "c.json", {"input": str(inp)})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "EdgeDecayViolation"


def test_failure_report_carries_error_numbers(tmp_path):
    # the offending edge norm and the tolerance it broke reach the report
    grid = make_grid(100.0, 512)
    inp = tmp_path / "f.csv"
    inp.write_text("".join(linefuncs_to_csv({"f": LineMatrixFunction(grid, np.full((512, 1, 1), 0.5 + 0j))})))
    cfg = _write(tmp_path, "c.json", {"input": str(inp), "split_edge_tol": 0.25})
    out = tmp_path / "out"
    assert run_cli("split", "--config", cfg, "--out", str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["edge_norm"] == pytest.approx(0.5) and rep["tol"] == 0.25
    assert "5.000e-01" in rep["detail"]


def test_failure_report_goes_to_config_out_dir(tmp_path, monkeypatch):
    grid = make_grid(100.0, 512)
    inp = tmp_path / "f.csv"
    inp.write_text("".join(linefuncs_to_csv({"f": LineMatrixFunction(grid, np.full((512, 1, 1), 0.5 + 0j))})))
    wanted = tmp_path / "wanted"
    cfg = _write(tmp_path, "c.json", {"input": str(inp), "out_dir": str(wanted)})
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv("ISP_OUT_DIR", raising=False)
    assert run_cli("split", "--config", cfg) == 1
    assert json.loads((wanted / "report.json").read_text())["error"] == "EdgeDecayViolation"
    assert list(cwd.iterdir()) == []


def test_forward_nonconvergence_reaches_report(tmp_path, monkeypatch):
    # q12 and q21 together couple the kernel channels, so one sweep cannot
    # converge; the sweep budget is read when the solve runs
    from isphalf import forward

    coupled = {**EXP_PROBLEM, "potential": {**EXP_PROBLEM["potential"], "q21": EXP_PROBLEM["potential"]["q12"]}}
    prob = _write(tmp_path, "p.json", coupled)
    cfg = _write(
        tmp_path, "c.json", {"problem": prob, "n_lambda": 64, "kernel_step": 0.1, "x_max": 4.0, "t_max": 8.0}
    )
    monkeypatch.setattr(forward, "MAX_SWEEPS", 1)
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "NonConvergence"
    assert rep["what"] == "kernel system" and rep["sweeps"] == 1
    assert np.isfinite(rep["last_change"]) and rep["last_change"] > 0.0


def test_threads_flag_overrides_inherited_env(tmp_path, monkeypatch):
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.setenv(var, "4")
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    cfg = _write(tmp_path, "c.json", {"problem": prob})
    assert run_cli("validate", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1") == 0
    assert {var: os.environ[var] for var in thread_vars} == dict.fromkeys(thread_vars, "1")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_flag_below_one_is_rejected(tmp_path, monkeypatch, threads, capsys):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = _write(tmp_path, "c.json", {})
    with pytest.raises(SystemExit) as exc:
        run_cli("validate", "--config", cfg, "--threads", threads)
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert "OMP_NUM_THREADS" not in os.environ


# one instance of every IspError subclass with the exit code the CLI gives it
ERROR_EXIT_CODES = [
    (errors.NumericalError("generic numerical failure"), 1),
    (errors.NonConvergence("kernels", 50, 0.1), 1),
    (errors.SingularOnGrid(0.5, 1e-12), 1),
    (errors.SingularFactor(0.5, 1e-12), 1),
    (errors.SingularP(0.5, 1e-12), 1),
    (errors.EdgeDecayViolation(0.5, 1e-3), 1),
    (errors.SingularScattering(0.5, 1e-12), 1),
    (errors.FredholmSingular(1e-3, "GMRES relative residual 1.000e-03 > 1e-10"), 1),
    (errors.DegenerateBoundaryPair("|det(H1 - H2)| = 0"), 1),
    (errors.InconsistentInputs("a22_plus", 1e-3, 1e-6), 1),
    (errors.RankDeficient(1, 0.5), 1),
    (errors.SingularH("|det H| = 0"), 2),
    (errors.ParseError("p.json", "invalid JSON"), 2),
    (errors.ValidationError("n_lambda", "must be a power of two"), 2),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_table_covers_every_error_class():
    assert {type(exc) for exc, _ in ERROR_EXIT_CODES} == set(_subclasses(errors.IspError))


@pytest.mark.parametrize("exc, code", ERROR_EXIT_CODES, ids=[type(e).__name__ for e, _ in ERROR_EXIT_CODES])
def test_exit_code_per_error_class(tmp_path, monkeypatch, exc, code):
    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "report", fail)
    cfg = _write(tmp_path, "c.json", {})
    out = tmp_path / "out"
    assert run_cli("report", "--config", cfg, "--out", str(out)) == code
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == type(exc).__name__
    # every field the exception carries reaches the report
    assert set(vars(exc)) <= set(rep)


SCIPY_FREE_SCRIPT = """
import json, sys
import isphalf.cli, isphalf.config, isphalf.serialize, isphalf.forward, isphalf.edge_coupled, isphalf.rh
def heavy():
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("scipy", "ssl", "_hashlib") or m.startswith("numpy.polynomial")
    )
loaded = {"import": heavy()}
for command, config in json.loads(sys.argv[1]):
    code = isphalf.cli.main([command, "--config", config, "--out", sys.argv[2] + "/" + command])
    loaded[command] = code, heavy()
print(json.dumps(loaded))
"""


def _fresh_interpreter(script, *args):
    """The JSON that script prints when run in a fresh interpreter."""
    src = str(Path(isphalf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _scipy_modules_loaded(tmp_path, runs):
    """Run the commands in one fresh interpreter; scipy, numpy.polynomial
    and OpenSSL (ssl, _hashlib) modules loaded after each."""
    return _fresh_interpreter(SCIPY_FREE_SCRIPT, json.dumps(runs), str(tmp_path / "out"))


LAZY_PACKAGE_SCRIPT = """
import json, sys
import isphalf, isphalf.cli
print(json.dumps("numpy" in sys.modules))
"""


def test_package_and_cli_import_without_numpy():
    # cli defers its imports so --threads can set the BLAS variables before
    # numpy loads; the package root imports no module of its own
    assert _fresh_interpreter(LAZY_PACKAGE_SCRIPT) is False


def test_forward_commands_load_no_scipy(tmp_path):
    prob = _write(tmp_path, "p.json", EXP_PROBLEM)
    fwd = _write(
        tmp_path, "fwd.json", {"problem": prob, "n_lambda": 64, "kernel_step": 0.1, "x_max": 4.0, "t_max": 8.0}
    )
    edge_prob = _write(tmp_path, "e.json", EDGE_PROBLEM)
    # compare_to 5 keeps the s-grid, 4 x 5 = 20, in the period 32.2 of 1024 points
    edge = _write(tmp_path, "edge.json", {"problem": edge_prob, "n_lambda": 1024, "split_edge_tol": 0.01, "compare_to": 5.0})
    runs = [("validate", fwd), ("forward", fwd), ("edge-forward", edge), ("edge-roundtrip", edge)]
    loaded = _scipy_modules_loaded(tmp_path, runs)
    assert loaded == {"import": [], **{command: [0, []] for command, _ in runs}}


def test_inverse_commands_load_no_scipy(tmp_path):
    rh = _rh_solve_config(tmp_path)[0]
    runs = [
        ("split", _split_config(tmp_path)[0]),
        ("rh-solve", rh),
        ("recover-blocks", _recover_config(tmp_path)[0]),
        ("report", rh),
    ]
    loaded = _scipy_modules_loaded(tmp_path, runs)
    assert loaded == {"import": [], **{command: [0, []] for command, _ in runs}}


def test_hypothesis_storage_outside_checkout():
    # hypothesis writes a constants cache into its storage directory even
    # with database=None; the test session keeps it out of the checkout
    from hypothesis.configuration import storage_directory

    repo_root = Path(__file__).resolve().parents[1]
    where = storage_directory(intent_to_write=False).path.resolve()
    assert not where.is_relative_to(repo_root)


def test_benchmark_plugin_not_loaded(pytestconfig):
    # pytest-benchmark would create .benchmarks/ in the working directory
    assert pytestconfig.pluginmanager.is_blocked("benchmark")
    assert not pytestconfig.pluginmanager.has_plugin("benchmark")


def test_cache_plugin_not_loaded(pytestconfig):
    # the cache provider would create .pytest_cache/ in the working directory
    assert pytestconfig.pluginmanager.is_blocked("cacheprovider")
    assert not pytestconfig.pluginmanager.has_plugin("cacheprovider")


def test_benchmark_tracer_targets_exist():
    # perfbench/trace_child.py wraps these attributes and reads block_mask;
    # a rename in src/ would otherwise show only in the benchmark's own tests
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in trace_child.SPANS
        if not callable(getattr(importlib.import_module(f"isphalf.{mod}"), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("isphalf.domain").block_mask)
