"""Verification toolkit for first-order Friedrichs systems on spacetime strips
with timelike boundary: admissibility checking, second-order reductions,
characteristic solvers, Green operators, and the qualitative theorems at desk
scale."""

from . import boundary, clifford, geometry, linalg, reduction, solver, system
from .errors import (BoundaryClosureError, ConfigError, ContractError,
                     NormalizationError, NotAdmissibleError,
                     NotHyperbolicError, UnsupportedDimensionError)

__all__ = [
    "boundary", "clifford", "geometry", "linalg", "reduction", "solver",
    "system", "BoundaryClosureError", "ConfigError", "ContractError",
    "NormalizationError", "NotAdmissibleError", "NotHyperbolicError",
    "UnsupportedDimensionError",
]

__version__ = "0.1.0"
