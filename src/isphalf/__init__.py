"""Direct and inverse scattering on the half-axis for first-order systems
with block-triangular potentials.

Names are imported from their modules (isphalf.forward, isphalf.rh, ...);
the package itself imports none of them, so the CLI can pin thread
environment variables before numpy loads.
"""

__version__ = "0.1.0"
