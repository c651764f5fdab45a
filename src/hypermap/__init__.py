"""Hyperbolic coordinates, foliations, tangency curves and cone fields for
the standard map family on the torus.

The package exports the library's top-level entry points and the errors
they raise; every other name is imported from its submodule.
"""

from .coordinates import ConformalPointError, critical_constants, hyperbolic_frame, theta_field
from .foliations import trace_leaf
from .hyperbolicity import orbit_expansion, verify_cones
from .stdmap import MapParams, ParameterError, TorusPoint
from .tangency import TangencySelectionError, no_tangency_scan, tangency_curve, tangency_landmarks

__version__ = "0.1.0"

__all__ = [
    "ConformalPointError",
    "MapParams",
    "ParameterError",
    "TangencySelectionError",
    "TorusPoint",
    "critical_constants",
    "hyperbolic_frame",
    "no_tangency_scan",
    "orbit_expansion",
    "tangency_curve",
    "tangency_landmarks",
    "theta_field",
    "trace_leaf",
    "verify_cones",
    "__version__",
]
