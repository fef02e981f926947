"""isphalf benchmark: closed-loop `isp` CLI workloads, measured from outside.

    python3 perfbench/run.py --workload forward-n2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is used from ./src as it is, so
there is nothing to build.  One iteration of a workload is a fixed sequence
of `isp` invocations run one at a time (a closed loop with one client), each
with `--threads 1` and every BLAS/OpenMP thread variable pinned to 1.  A run
writes the seeded inputs, runs one untimed reference iteration, times launches
of the set-up probe, then repeats iterations for --seconds and checks the
outputs outside the timed region.

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s); --trace 1 alternates traced and untraced iterations and reports the
per-layer spans recorded by trace_child.py plus one tracemalloc pass for the
memory spans.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one CLI invocation,
one set-up probe launch, one output check, one determinism comparison or one
hygiene check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the checks below run numpy in this process; pin it like the children
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402
from trace_child import COUNT_UNITS, MAX_COUNTS, PEAK_SPANS, SPAN_NAMES  # noqa: E402

# launches of the set-up probe per run; a single launch is too noisy
SETUP_LAUNCHES = {"full": 7, "tiny": 2}
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120.0
# stop starting iterations when one more could end past this (exit within 180 s)
DEADLINE_S = 150.0


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, user+sys s, max RSS MB)."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Workload:
    """One workload's directory, child environment and iteration runner."""

    def __init__(self, root: Path, name: str, work: Path):
        self.work = work
        self.commands = workloads.COMMANDS[name]
        self.log = work / "children.log"
        self.env = {k: v for k, v in os.environ.items() if k not in ("ISP_OUT_DIR", "PYTHONPATH")}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(work.parent / "pycache")
        self.reference: dict | None = None

    def iteration(self, ops: Ops, trace: bool = False, peak: bool = False) -> dict:
        """Run the command sequence once; returns wall, cpu, rss and spans."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        span_files = [self.work / f"spans-{i}.json" for i in range(len(self.commands))]
        cpu = rss = 0.0
        t0 = time.perf_counter()
        for (command, config, out), span_file in zip(self.commands, span_files):
            if trace:
                argv = [sys.executable, str(HERE / "trace_child.py"), str(span_file), "1" if peak else "0"]
            else:
                argv = [sys.executable, "-m", "isphalf.cli"]
            argv += [command, "--config", config, "--out", out, "--threads", "1"]
            rc, _, c, r = run_child(argv, self.work, self.env, self.log)
            ops.record(f"isp {command}", rc == 0, f"exit code {rc}")
            cpu += c
            rss = max(rss, r)
        wall = time.perf_counter() - t0

        digests = {}
        for _, _, out in self.commands:
            report = self.work / out / "report.json"
            digests[out] = hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file() else None
        if self.reference is None:
            self.reference = digests
        else:
            ops.record("determinism", digests == self.reference, "report.json differs from the first iteration")

        spans = []
        if trace:
            for span_file in span_files:
                if span_file.is_file():
                    spans.append(json.loads(span_file.read_text()))
                    span_file.unlink()
        return {"wall": wall, "cpu": cpu, "rss": rss, "spans": spans}

    def setup_launch(self, ops: Ops) -> float:
        args = [item for command, config, _ in self.commands for item in (command, config)]
        rc, wall, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), *args], self.work, self.env, self.log)
        ops.record("set-up probe", rc == 0, f"exit code {rc}")
        return wall


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(iterations: list[dict], setup: list[float]) -> dict:
    return {
        "wall_s": _metric(statistics.median(it["wall"] for it in iterations), "s"),
        "cpu_s": _metric(statistics.median(it["cpu"] for it in iterations), "s"),
        "peak_rss_mb": _metric(statistics.median(it["rss"] for it in iterations), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _iteration_layers(spans: list[dict]) -> dict:
    """Per-layer totals of one iteration, summed over its CLI invocations."""
    values = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("s", "calls")}
    values.update({name: 0.0 for name in COUNT_UNITS})
    values["rh.solve_regular_rh.self_s"] = 0.0
    top_level = 0.0
    for run in spans:
        records = run["spans"]
        child_time = [0.0] * len(records)
        for rec in records:
            if rec["parent"] >= 0:
                child_time[rec["parent"]] += rec["s"]
        for i, rec in enumerate(records):
            name = rec["name"]
            values[f"{name}.s"] += rec["s"]
            values[f"{name}.calls"] += 1
            if name == "rh.solve_regular_rh":
                values["rh.solve_regular_rh.self_s"] += rec["s"] - child_time[i]
            if rec["parent"] >= 0 and records[rec["parent"]]["name"] == "cli.main":
                top_level += rec["s"]
            for count, v in rec.get("counts", {}).items():
                values[count] = max(values[count], v) if count in MAX_COUNTS else values[count] + v
    values["cli.self_s"] = values["cli.main.s"] - top_level
    return values


def per_layer(traced: list[dict], untraced: list[dict], peak_pass: dict) -> tuple[dict, list[str]]:
    per_iteration = [_iteration_layers(it["spans"]) for it in traced]
    metrics = {}
    for key in per_iteration[0]:
        if key.endswith(".calls"):
            unit = "count"
        elif key.endswith("_s") or key.endswith(".s"):
            unit = "s"
        else:
            unit = COUNT_UNITS[key]
        metrics[key] = _metric(statistics.median(v[key] for v in per_iteration), unit)
    for name in PEAK_SPANS:
        peaks = [
            rec["peak_mb"] for run in peak_pass["spans"] for rec in run["spans"] if rec["name"] == name
        ]
        metrics[f"{name}.peak_mb"] = _metric(max(peaks, default=0.0), "MB")
    overhead = statistics.median(it["wall"] for it in traced) - statistics.median(it["wall"] for it in untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    absent = sorted({a for it in traced for run in it["spans"] for a in run["absent"]})
    return metrics, absent


# ---------------------------------------------------------------------------
# hygiene and metadata
# ---------------------------------------------------------------------------


def tree_snapshot(root: Path, skip: set) -> dict:
    """(size, mtime) of every file under root outside the skipped directories."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in skip]
        for f in filenames:
            st = os.stat(Path(dirpath, f))
            snap[os.path.relpath(Path(dirpath, f), root)] = (st.st_size, st.st_mtime_ns)
    return snap


def run_metadata(args, meta: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": meta,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _more(done: list[dict], start: float, loop_start: float, seconds: float) -> bool:
    now = time.perf_counter()
    if done and now - start + done[-1]["wall"] > DEADLINE_S:
        return False
    return now - loop_start < seconds or len(done) < MIN_ITERATIONS


def measure(wl: Workload, args, ops: Ops) -> dict:
    start = time.perf_counter()
    wl.iteration(ops, trace=bool(args.trace))  # reference outputs; warms the caches

    if not args.trace:
        # set-up launches sit between the timed iterations, so both sample
        # the same stretch of machine time
        launches = SETUP_LAUNCHES[args.size]
        setup: list[float] = []
        loop_start = time.perf_counter()
        done: list[dict] = []
        while _more(done, start, loop_start, args.seconds):
            done.append(wl.iteration(ops))
            if len(setup) < launches:
                setup.append(wl.setup_launch(ops))
        while len(setup) < launches:
            setup.append(wl.setup_launch(ops))
        walls = [it["wall"] for it in done]
        print(f"{args.workload} {len(done)} iterations, wall_s min {min(walls):.4g} max {max(walls):.4g}; "
              f"{len(setup)} set-up launches, setup_s min {min(setup):.4g} max {max(setup):.4g}")
        return end_to_end(done, setup)

    # traced and untraced iterations alternate so the overhead compares like with like
    loop_start = time.perf_counter()
    traced: list[dict] = []
    untraced: list[dict] = []
    while _more(traced, start, loop_start, args.seconds):
        traced.append(wl.iteration(ops, trace=True))
        untraced.append(wl.iteration(ops))
    peak_pass = wl.iteration(ops, trace=True, peak=True)
    metrics, absent = per_layer(traced, untraced, peak_pass)
    if absent:
        print(f"absent spans (reported as 0): {', '.join(absent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' runs every command and check in seconds (for the tests)")
    parser.add_argument("--work-dir", default=".perfbench_work", help="scratch directory (default ./.perfbench_work)")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "isphalf" / "cli.py").is_file():
        print(f"error: {root} holds no isphalf source tree (src/isphalf)", file=sys.stderr)
        return 2
    work_root = (root / args.work_dir).resolve()
    work = work_root / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.pycache_prefix = str(work_root / "pycache")
    skip = {work_root, root / ".git", root / ".bench_build"}
    before = tree_snapshot(root, skip)

    ops = Ops()
    meta = workloads.write_inputs(args.workload, args.seed, args.size, work)
    wl = Workload(root, args.workload, work)
    metrics = measure(wl, args, ops)

    sys.path.insert(0, str(root / "src"))
    try:
        checks = workloads.check_outputs(args.workload, args.seed, args.size, work)
    except (OSError, ValueError, KeyError) as exc:  # an output is missing or malformed
        checks = [("outputs readable", False, repr(exc))]
    for name, ok, detail in checks:
        ops.record(f"check {name}", ok, detail)
    after = tree_snapshot(root, skip)
    changed = sorted(p for p in after if before.get(p) != after[p])
    ops.record("hygiene: repository tree unchanged", not changed, changed)
    leaked = [str(p.relative_to(work)) for p in work.rglob("isp-out")]
    ops.record("hygiene: no default isp-out directory", not leaked, leaked)

    print("meta " + json.dumps(run_metadata(args, meta), sort_keys=True))
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ops {len(ops.failures)} of {ops.attempted}")
    failed = len(ops.failures)
    result = {"correct": failed == 0, "attempted": ops.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
