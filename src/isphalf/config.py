"""Run configuration: JSON-backed, validated, with deterministic defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError, ValidationError


def truncation_length(envelope: tuple[float, float], tail_tol: float) -> float:
    """x beyond which the envelope C e^{-eps x} is below tail_tol."""
    c, eps = envelope
    return max(1.0, math.log(max(c, tail_tol * math.e) / tail_tol) / eps)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs beyond the problem description itself.

    Grid defaults match the library defaults; truncations left as None are
    derived from the potential envelope at run time (x_max = ln(C/tail)/eps,
    t_max = x_max / theta).  The explicit-class roundtrip inverts on s in
    [0, (xi_2n - xi_1) compare_to] with the step pi / lambda_max.  The
    method's fixed tolerances are module constants, not keys:
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

    def with_overrides(self, **kw) -> "RunConfig":
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update({k: v for k, v in kw.items() if v is not None})
        return RunConfig(**data)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(path, "top level must be an object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(unknown[0], "unknown configuration key")
    return RunConfig(**raw)
