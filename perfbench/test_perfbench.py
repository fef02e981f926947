"""Tests of the benchmark itself.  They sit outside the project's test paths;
run them from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from trace_child import SPANS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, *args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "0", "--work-dir", str(tmp_path), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_runs_and_checks_every_workload(tmp_path, workload):
    proc = _run(tmp_path, "--workload", workload, "--seed", "5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    proc = _run(tmp_path, "--workload", "forward-n2", "--seed", "5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["forward.solve_kernels.calls"]["value"] == 1
    assert metrics["rh.solve_regular_rh.calls"]["value"] == 0
    # the wrapped top-level spans cover nearly all of the in-process time
    assert 0 <= metrics["cli.self_s"]["value"] < 0.05 * metrics["cli.main.s"]["value"]


def test_refuses_a_tree_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "forward-n2", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    digests = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        work = tmp_path / sub
        workloads.write_inputs(workload, seed, "full", work)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())})
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    modules = {mod: importlib.import_module(f"isphalf.{mod}") for mod, _, _, _ in SPANS}
    before = {(mod, attr): getattr(modules[mod], attr) for mod, attr, _, _ in SPANS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(modules[mod], attr) is not fn for (mod, attr), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(modules[mod], attr) is fn for (mod, attr), fn in before.items())
    assert tracer.absent == []
