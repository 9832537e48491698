"""Numerical laboratory for Ricci flow coupled with harmonic map flow."""

# ``cli`` is not imported here, so ``python -m geomflow.cli`` runs it fresh
from . import nil3, ode, rrfs, spd

__all__ = ["cli", "nil3", "ode", "rrfs", "spd"]
__version__ = "0.1.0"
