"""Run configuration: JSON-backed, validated, with deterministic defaults."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError, ValidationError

_NUMBER = ((int, float), "a number")
_NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")
_STRING_OR_NULL = ((str, type(None)), "a string or null")

# the JSON type of every RunConfig field; a bool is never a number here
_FIELD_TYPES = {
    "problem": _STRING_OR_NULL,
    "input": _STRING_OR_NULL,
    "inputs": ((dict,), "an object of strings"),
    "lambda_max": _NUMBER,
    "n_lambda": ((int,), "an integer"),
    "kernel_step": _NUMBER,
    "x_max": _NUMBER_OR_NULL,
    "t_max": _NUMBER_OR_NULL,
    "split_edge_tol": _NUMBER,
    "compare_to": _NUMBER,
    "out_dir": _STRING_OR_NULL,
    "seed": ((int, type(None)), "an integer or null"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs beyond the problem description itself.

    Grid defaults match the library defaults; truncations left as None are
    derived from the potential envelope at run time (x_max = ln(C/tail)/eps,
    t_max = x_max / theta).  The explicit-class roundtrip inverts on s in
    [0, (xi_2n - xi_1) compare_to] with the step pi / lambda_max.  All
    numbers must be finite.  The method's fixed tolerances are module
    constants, not keys:
    forward.DEFAULT_TAIL_TOL, DEFAULT_ITER_TOL and MAX_SWEEPS,
    domain.SINGULARITY_TOL and rh.CONSISTENCY_TOL.
    """

    problem: str | None = None
    input: str | None = None
    inputs: dict = field(default_factory=dict)

    lambda_max: float = 100.0
    n_lambda: int = 4096
    kernel_step: float = 0.01
    x_max: float | None = None
    t_max: float | None = None

    split_edge_tol: float = 1e-3
    compare_to: float = 10.0

    out_dir: str | None = None
    seed: int | None = None

    def __post_init__(self):
        for f in fields(self):
            types, what = _FIELD_TYPES[f.name]
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, types):
                raise ValidationError(f.name, f"must be {what}, got {json.dumps(v, default=repr)}")
            if float in types and v is not None and not abs(v) <= sys.float_info.max:
                raise ValidationError(f.name, f"must be finite, got {json.dumps(v)}")
        for key, path in self.inputs.items():
            if not isinstance(path, str):
                raise ValidationError(f"inputs.{key}", f"must be a string, got {json.dumps(path, default=repr)}")
        if not self.lambda_max > 0:
            raise ValidationError("lambda_max", "must be positive")
        n = self.n_lambda
        if n < 4 or (n & (n - 1)) != 0:
            raise ValidationError("n_lambda", f"must be a power of two >= 4, got {n}")
        if not self.kernel_step > 0:
            raise ValidationError("kernel_step", "step must be positive")
        for name in ("x_max", "t_max"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValidationError(name, "must be positive when given")
        if not (0.0 < self.split_edge_tol < 1.0):
            raise ValidationError("split_edge_tol", f"tolerance must lie in (0, 1), got {self.split_edge_tol}")
        if not self.compare_to > 0:
            raise ValidationError("compare_to", "must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValidationError("seed", f"must be a non-negative integer, got {self.seed}")

    def with_overrides(self, **kw) -> "RunConfig":
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update({k: v for k, v in kw.items() if v is not None})
        return RunConfig(**data)


def load_json_object(path) -> dict:
    """The JSON object in the file at path.  A file that cannot be read, is
    not valid text, is not valid JSON or does not hold an object is a
    ParseError."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(path, "top level must be an object")
    return raw


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    raw = load_json_object(path)
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(unknown[0], "unknown configuration key")
    return RunConfig(**raw)
