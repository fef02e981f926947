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
    t_max = x_max / theta, s_max = (xi_2n - xi_1) x_max).
    """

    problem: str | None = None
    input: str | None = None
    inputs: dict = field(default_factory=dict)

    lambda_max: float = 100.0
    n_lambda: int = 4096
    x_step: float = 0.01
    kernel_step: float = 0.01
    s_step: float | None = None
    x_max: float | None = None
    t_max: float | None = None
    s_max: float | None = None

    tail_tol: float = 1e-12
    iteration_tol: float = 1e-12
    max_sweeps: int = 50
    split_edge_tol: float = 1e-3
    singularity_tol: float = 1e-10
    rh_rcond_tol: float = 1e-12
    consistency_tol: float = 1e-6
    compare_to: float = 10.0

    out_dir: str | None = None
    seed: int | None = None
    threads: int | None = None

    def __post_init__(self):
        if not self.lambda_max > 0:
            raise ValidationError("lambda_max", "must be positive")
        n = self.n_lambda
        if n < 4 or (n & (n - 1)) != 0:
            raise ValidationError("n_lambda", f"must be a power of two >= 4, got {n}")
        for name in ("x_step", "kernel_step"):
            if not getattr(self, name) > 0:
                raise ValidationError(name, "step must be positive")
        for name in ("s_step", "x_max", "t_max", "s_max"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValidationError(name, "must be positive when given")
        for name in (
            "tail_tol",
            "iteration_tol",
            "split_edge_tol",
            "singularity_tol",
            "rh_rcond_tol",
            "consistency_tol",
        ):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValidationError(name, f"tolerance must lie in (0, 1), got {v}")
        if self.max_sweeps < 1:
            raise ValidationError("max_sweeps", "must be >= 1")
        if not self.compare_to > 0:
            raise ValidationError("compare_to", "must be positive")

    @property
    def effective_s_step(self) -> float:
        return self.s_step if self.s_step is not None else math.pi / self.lambda_max

    def resolve_x_max(self, envelope: tuple[float, float]) -> float:
        return self.x_max if self.x_max is not None else truncation_length(envelope, self.tail_tol)

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
