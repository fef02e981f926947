"""Direct and inverse scattering on the half-axis for first-order systems
with block-triangular potentials.

Submodules are imported lazily so the CLI can pin thread environment
variables before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # domain
    "Dispersion": "domain",
    "TriangularPotential": "domain",
    "BoundaryMatrix": "domain",
    "kernel_decay_exponent": "domain",
    "validate_potential": "domain",
    # profiles
    "ExpSumProfile": "profiles",
    "SampledProfile": "profiles",
    "ZERO_PROFILE": "profiles",
    # line functions
    "LineMatrixFunction": "linefunc",
    "Analyticity": "linefunc",
    "make_grid": "linefunc",
    "BlockTransforms": "linefunc",
    # forward
    "BoundedSolution": "forward",
    "solve_bounded_solution": "forward",
    "asymptotic_coefficients": "forward",
    "TransformationKernels": "forward",
    "solve_kernels": "forward",
    "potential_from_kernels": "forward",
    "kernel_transforms": "forward",
    "boundary_parts": "forward",
    "scattering_matrix": "forward",
    "transmission_matrix": "forward",
    "strip_diagnostics": "forward",
    # rh
    "plemelj_split": "rh",
    "solve_regular_rh": "rh",
    "recover_blocks": "rh",
    "solvability_report": "rh",
    # edge-coupled class
    "EdgeCoupledSystem": "edge_coupled",
    "EdgeBoundary": "edge_coupled",
    "EdgeProfiles": "edge_coupled",
    "edge_scattering": "edge_coupled",
    "edge_explicit_solution": "edge_coupled",
    "edge_split": "edge_coupled",
    "edge_invert_transforms": "edge_coupled",
    "edge_solve_coefficients": "edge_coupled",
    "edge_roundtrip": "edge_coupled",
    # config
    "RunConfig": "config",
    "load_config": "config",
}

__all__ = sorted(_EXPORTS) + ["errors"]


def __getattr__(name):
    if name == "errors":
        return import_module(".errors", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
