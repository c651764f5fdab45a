"""Every library check of a parameter raises ParameterError naming that
parameter, which is what the CLI reports under the parameter's flag."""

import math

import numpy as np
import pytest

from hypermap import MapParams, ParameterError, TangencySelectionError, TorusPoint
from hypermap.coordinates import critical_constants, hyperbolic_frame, phi_inverse, theta_field
from hypermap.foliations import closed_leaves, trace_leaf
from hypermap.hyperbolicity import delta_strip, orbit_expansion, verify_cones
from hypermap.stdmap import jacobian, orbit_jacobian, psi
from hypermap.tangency import MAX_CURVE_K, no_tangency_scan, tangency_curve

P = MapParams(1.0)
START = TorusPoint(0.0, 0.6)
#: The largest k at which phitilde(0) = -2 P2(2 pi k) / P2'(2 pi k) is finite.
LAST_FINITE_K = 1.5089085304034941e153

#: (call, the name it must report, the error type), one per check.
CHECKS = {
    "MapParams nonpositive": (lambda: MapParams(-1.0), "k", ParameterError),
    "MapParams nan": (lambda: MapParams(math.nan), "k", ParameterError),
    "TorusPoint x": (lambda: TorusPoint(math.inf, 0.5), "x", ParameterError),
    "TorusPoint y": (lambda: TorusPoint(0.5, math.nan), "y", ParameterError),
    "trace_leaf step": (lambda: trace_leaf("E1", START, P, step=0.0), "step", ParameterError),
    "trace_leaf max_arc": (lambda: trace_leaf("E1", START, P, max_arc=math.inf), "max_arc", ParameterError),
    "trace_leaf vertex cap": (lambda: trace_leaf("E1", START, P, step=1e-9, max_arc=1e3), "max_arc",
                              ParameterError),
    "tangency_curve n_samples": (lambda: tangency_curve(P, 8), "n_samples", ParameterError),
    "tangency_curve below validity": (lambda: tangency_curve(MapParams(0.3), 64), "k", TangencySelectionError),
    "tangency_curve above MAX_CURVE_K": (
        lambda: tangency_curve(MapParams(math.nextafter(MAX_CURVE_K, math.inf)), 16), "k", TangencySelectionError),
    "verify_cones n_samples": (lambda: verify_cones(MapParams(5.0), 2, 0, 1), "n_samples", ParameterError),
    "verify_cones seed": (lambda: verify_cones(MapParams(5.0), 2, 10, -1), "seed", ParameterError),
    "delta_strip m": (lambda: delta_strip(1, MapParams(5.0)), "m", ParameterError),
    "critical_constants overflow": (
        lambda: critical_constants(MapParams(math.nextafter(LAST_FINITE_K, math.inf))), "k", ParameterError),
    "orbit_jacobian overflow": (lambda: orbit_jacobian(TorusPoint(0.2, 0.3), MapParams(1e5), 57), "n",
                                ParameterError),
    "hyperbolic_frame underflow": (lambda: hyperbolic_frame(TorusPoint(0.2, 0.3), MapParams(1e5), 29), "n",
                                   ParameterError),
    "orbit_jacobian zero order": (lambda: orbit_jacobian(START, P, 0), "n", ParameterError),
    "hyperbolic_frame zero order": (lambda: hyperbolic_frame(START, P, 0), "n", ParameterError),
    "no_tangency_scan grid": (lambda: no_tangency_scan(MapParams(2.0), 63), "grid", ParameterError),
    "no_tangency_scan delta^- undefined": (lambda: no_tangency_scan(MapParams(0.05), 64), "k", ParameterError),
    "orbit_expansion n": (lambda: orbit_expansion(START, math.atan(1.0), MapParams(5.0), 2, 0), "n",
                          ParameterError),
    "orbit_expansion slope": (lambda: orbit_expansion(START, math.atan(3.0), MapParams(5.0), 2, 1), "theta",
                              ParameterError),
    "phi_inverse zero": (lambda: phi_inverse(0.0, P), "z", ParameterError),
    "phi_inverse infinite": (lambda: phi_inverse(-math.inf, P), "z", ParameterError),
    "theta_field time": (lambda: theta_field(0.3, P, "sideways"), "time", ParameterError),
    "jacobian time": (lambda: jacobian(START, P, "sideways"), "time", ParameterError),
    "psi kind": (lambda: psi(0.3, P, "tan"), "kind", ParameterError),
    "psi kind on arrays": (lambda: psi(np.zeros(2), P, "tan"), "kind", ParameterError),
    "trace_leaf field_id": (lambda: trace_leaf("E2", START, P), "field_id", ParameterError),
    "closed_leaves field_id": (lambda: closed_leaves("E2", P), "field_id", ParameterError),
}


@pytest.mark.parametrize("call, name, kind", CHECKS.values(), ids=list(CHECKS))
def test_check_names_its_parameter(call, name, kind):
    with pytest.raises(kind) as info:
        call()
    exc = info.value
    assert isinstance(exc, ParameterError) and isinstance(exc, ValueError)
    assert exc.name == name and exc.detail
    assert str(exc) == f"{name} {exc.detail}"


def test_strip_constants_end_where_phitilde_overflows():
    assert critical_constants(MapParams(LAST_FINITE_K)).delta_star == 0.25
    with pytest.raises(ParameterError, match="1.509e153"):
        critical_constants(MapParams(math.nextafter(LAST_FINITE_K, math.inf)))
