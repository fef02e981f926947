"""Set-up probe: do what a workload's `isp` commands do before they solve.

    python3 setup_probe.py <command> <config> [<command> <config> ...]

Run from the workload directory.  For each (command, config) pair it imports
the modules that command's handler imports, loads the run configuration, the
problem file (validating a forward potential) and every lambda-grid input,
and stops there.  The benchmark times whole launches of this script from
outside, so interpreter start-up counts as set-up.
"""

from __future__ import annotations

import importlib
import sys

# modules each command's handler imports beyond isphalf.cli, config and serialize
COMMAND_MODULES = {
    "forward": ("isphalf.forward", "isphalf.domain", "isphalf.linefunc"),
    "rh-solve": ("isphalf.rh",),
    "recover-blocks": ("isphalf.rh",),
    "edge-forward": ("isphalf.edge_coupled", "isphalf.linefunc"),
    "edge-roundtrip": ("isphalf.edge_coupled", "isphalf.linefunc"),
}


def main(argv: list[str]) -> int:
    import isphalf.cli  # noqa: F401  (the entry point every command loads)
    from isphalf.config import load_config
    from isphalf.serialize import linefuncs_from_csv, load_problem

    for command, config in zip(argv[::2], argv[1::2]):
        for module in COMMAND_MODULES[command]:
            importlib.import_module(module)
        cfg = load_config(config)
        if cfg.problem:
            problem = load_problem(cfg.problem, seed=cfg.seed)
            if command == "forward":
                from isphalf.domain import validate_potential

                validate_potential(problem["potential"])
        for path in (cfg.input, *cfg.inputs.values()):
            if path:
                linefuncs_from_csv(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
