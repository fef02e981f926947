"""Traced `isp` invocation: wraps public functions of the isphalf layers,
calls isphalf.cli.main(argv) in this fresh process and writes the spans.

    python3 trace_child.py <spans.json> <peak 0|1> <isp arguments...>

Spans are recorded from outside the program, by replacing module attributes,
so no source file changes.  A function bound under two module names (for
example `split_samples` in `projection` and in `rh`) is wrapped in both
places under one span name.  A name the program no longer has is listed as
absent, not treated as an error.  With peak = 1 tracemalloc runs for the
whole process and each span in PEAK_SPANS records its allocation peak above
the level at entry; that pass is slow and its times are not used.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc


def _kernel_counts(args, kwargs, kernels):
    from isphalf.domain import block_mask

    n = kernels.n
    channels = sum(int(block_mask(name, n, kernel=True).sum()) for name in ("A11", "A12", "A21", "A22"))
    nx, nt = kernels.blocks["A11"].shape[2:]
    return {"forward.kernel_sweeps": kernels.sweeps, "forward.kernel_cells": channels * nx * nt}


def _write_counts(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"serialize.bytes_written": len(text)}


def _manifest_counts(args, kwargs, result):
    return {"serialize.bytes_hashed": sum(os.path.getsize(p) for p in args[0])}


def _rh_counts(args, kwargs, result):
    s_matrix = args[0]
    unknowns = s_matrix.m * len(s_matrix.grid)
    return {"rh.collocation_unknowns": unknowns, "rh.dense_system_mb": unknowns**2 * 16 / 1e6}


def _split_counts(args, kwargs, result):
    grid, values = args[0], args[1]
    return {"projection.split_columns": values.size // len(grid)}


def _phase_counts(args, kwargs, profiles):
    n_lambda = len(args[0][0][0].grid)
    return {"edge_coupled.phase_matrix_mb": len(profiles.s_grid) * n_lambda * 16 / 1e6}


# (module, attribute, span name, count function or None)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("serialize", "load_problem", "serialize.load_problem", None),
    ("domain", "validate_potential", "domain.validate_potential", None),
    ("serialize", "linefuncs_from_csv", "serialize.linefuncs_from_csv", None),
    ("forward", "solve_kernels", "forward.solve_kernels", _kernel_counts),
    ("forward", "kernel_transforms", "forward.kernel_transforms", None),
    ("forward", "filon_simpson_transform", "forward.filon_simpson_transform", None),
    ("forward", "boundary_parts", "forward.boundary_parts", None),
    ("forward", "scattering_matrix", "forward.scattering_matrix", None),
    ("forward", "transmission_matrix", "forward.transmission_matrix", None),
    ("forward", "strip_diagnostics", "forward.strip_diagnostics", None),
    ("serialize", "kernels_to_csv", "serialize.kernels_to_csv", None),
    ("serialize", "linefuncs_to_csv", "serialize.linefuncs_to_csv", None),
    ("serialize", "atomic_write_text", "serialize.atomic_write_text", _write_counts),
    ("serialize", "file_manifest", "serialize.file_manifest", _manifest_counts),
    ("rh", "solve_regular_rh", "rh.solve_regular_rh", _rh_counts),
    ("rh", "plus_projector_matrix", "rh.plus_projector_matrix", None),
    ("rh", "split_residual", "rh.split_residual", None),
    ("rh", "recover_blocks", "rh.recover_blocks", None),
    ("projection", "split_samples", "projection.split_samples", _split_counts),
    ("rh", "split_samples", "projection.split_samples", _split_counts),
    ("rh", "plemelj_split", "rh.plemelj_split", None),
    ("edge_coupled", "plemelj_split", "rh.plemelj_split", None),
    ("edge_coupled", "edge_scattering", "edge_coupled.edge_scattering", None),
    ("edge_coupled", "edge_split", "edge_coupled.edge_split", None),
    ("edge_coupled", "edge_invert_transforms", "edge_coupled.edge_invert_transforms", _phase_counts),
    ("edge_coupled", "edge_solve_coefficients", "edge_coupled.edge_solve_coefficients", None),
    ("edge_coupled", "edge_roundtrip", "edge_coupled.edge_roundtrip", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))
PEAK_SPANS = (
    "forward.solve_kernels",
    "serialize.kernels_to_csv",
    "rh.solve_regular_rh",
    "edge_coupled.edge_invert_transforms",
)
# counts that give the size of one call rather than work summed over calls
MAX_COUNTS = ("rh.collocation_unknowns", "rh.dense_system_mb", "edge_coupled.phase_matrix_mb")
COUNT_UNITS = {
    "forward.kernel_sweeps": "count",
    "forward.kernel_cells": "count",
    "serialize.bytes_written": "B",
    "serialize.bytes_hashed": "B",
    "rh.collocation_unknowns": "count",
    "rh.dense_system_mb": "MB",
    "projection.split_columns": "count",
    "edge_coupled.phase_matrix_mb": "MB",
}


class Tracer:
    """Installs span wrappers on the isphalf modules and restores them."""

    def __init__(self, peak: bool = False):
        self.peak = peak
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, count in SPANS:
            try:
                module = importlib.import_module(f"isphalf.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _note_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._stack:
            if "base" in span:
                span["peak"] = max(span["peak"], peak)
        tracemalloc.reset_peak()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1]["index"] if self._stack else -1}
            span["index"] = len(self.spans)
            self.spans.append(span)
            if self.peak and name in PEAK_SPANS:
                self._note_peak()
                span["base"] = span["peak"] = tracemalloc.get_traced_memory()[0]
            self._stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                if "base" in span:
                    self._note_peak()
                self._stack.pop()
            if count is not None:
                try:
                    span["counts"] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the signature moved on; the count is reported absent
            return result

        return traced

    def dump(self) -> dict:
        spans = []
        for s in self.spans:
            out = {"name": s["name"], "parent": s["parent"], "s": s["t1"] - s["t0"]}
            if "base" in s:
                out["peak_mb"] = (s["peak"] - s["base"]) / 1e6
            if "counts" in s:
                out["counts"] = s["counts"]
            spans.append(out)
        return {"spans": spans, "absent": self.absent}


def main(argv: list[str]) -> int:
    out_path, peak, isp_args = argv[0], argv[1] == "1", argv[2:]
    if peak:
        tracemalloc.start()
    tracer = Tracer(peak=peak)
    tracer.install()
    from isphalf import cli

    try:
        rc = cli.main(isp_args)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
