"""First-order hyperbolic coordinate fields in forward and backward time.

The most contracted direction of the forward derivative satisfies
tan(2 theta) = phi(y) with

    phi(y)      = -P1'(psi_c) / P1(psi_c),      P1(x) = 2x^2 + 2x - 1,
    psi_c(y)    = 2 pi k cos(2 pi y),

and the backward-time analogue satisfies tan(2 theta) = phitilde(ytilde)
with

    phitilde    = -2 P2(psi_c) / P2'(psi_c),    P2(x) = x^2 + x + 1,

evaluated at psi_c(ytilde).  Angles are computed as half the two-argument
arctangent of the (numerator, denominator) pair plus a fixed offset, which
glues the piecewise branches into a field that is exactly continuous mod pi,
including across the asymptotes of phi and phitilde.

Directions are unit vectors (cos theta, sin theta); undirected directions
are canonical in [0, pi).

Strip constants (all converge to 1/4 as k grows):

    delta^*          zeros of phi, asymptotes of phitilde
    delta^-, delta^+ asymptotes of phi (the strip Delta = [delta^-, delta^+])
    delta_hat_T^-+   phi = -+ sqrt(3)/2; the strip they bound contains both
                     tangency curves (not tightly: the exact curve envelope
                     sits at phi = -+ sqrt(3), strictly inside)
    delta_T^-+       phi^{-1}(phitilde(0)) resp. phi^{-1}(phitilde(1/2))

Values worth stating explicitly because they are easy to get wrong:
phitilde has no zeros; phitilde(0) ~ -2 pi k is negative and
phitilde(1/2) ~ +2 pi k is positive; phitilde(delta^-+) = -+ sqrt(3)
exactly (k-free); psi_c'(y) = -4 pi^2 k sin(2 pi y) carries a leading
minus sign.

Each field formula is written once and takes a float (evaluated with math)
or an ndarray (evaluated elementwise with numpy).  The two agree exactly up
to the angles, which may differ in the last ulp (numpy's arctan2 is not
libm's atan2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .oracle import svd2
from .stdmap import TWO_PI, DirAngle, MapParams, TorusPoint, orbit_determinant, orbit_jacobian

FieldName = Literal["e1", "f1", "e-1", "f-1"]
TimeDirection = Literal["forward", "backward"]
#: A coordinate (y or ytilde) or a value derived from one: float or ndarray.
Coord = Union[float, np.ndarray]


class ConformalPointError(ValueError):
    """Singular values coincide, so extremal directions are undefined.

    Unreachable for this map at order +-1 (H_1 <= 1/2 everywhere), but kept
    for API completeness at higher orders.
    """

    def __init__(self, order: int, sigma: float):
        super().__init__(
            f"conformal point at order {order}: both singular values equal {sigma}"
        )
        self.order = order
        self.sigma = sigma


def psi(y: Coord, params: MapParams, kind: Literal["cos", "sin"] = "cos") -> Coord:
    """2 pi k cos(2 pi y) or 2 pi k sin(2 pi y), at a y or a ytilde coordinate."""
    arg = TWO_PI * y
    try:  # math rejects arrays, which take the numpy path
        if kind == "cos":
            t = math.cos(arg)
        elif kind == "sin":
            t = math.sin(arg)
        else:
            raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    except TypeError:
        t = np.cos(arg) if kind == "cos" else np.sin(arg)
    return TWO_PI * params.k * t


def psi_prime(y: Coord, params: MapParams) -> Coord:
    """d/dy of psi_c: -4 pi^2 k sin(2 pi y) (note the minus sign)."""
    return -TWO_PI * psi(y, params, "sin")


def extended_ratio(num: Coord, den: Coord) -> Coord:
    """num/den as an extended real: a zero denominator yields signed infinity.

    The sign follows the numerator, which never vanishes together with the
    denominator for either field.
    """
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den == 0.0, np.copysign(np.inf, num), num / den)
    if den == 0.0:
        return math.copysign(math.inf, num)
    return num / den


def phi_parts(y: Coord, params: MapParams) -> tuple[Coord, Coord]:
    """(numerator, denominator) of phi: (-P1'(psi_c), P1(psi_c))."""
    p = psi(y, params)
    return -(4.0 * p + 2.0), (2.0 * p + 2.0) * p - 1.0


def phi(y: Coord, params: MapParams) -> Coord:
    """tan(2 theta) of the forward contracted field, as an extended real.

    Returns a signed infinity at an exact asymptote (denominator zero);
    zeros sit at delta^* and 1 - delta^*, asymptotes at delta^-+ and
    mirrors, turning points at y = 0 and y = 1/2.
    """
    return extended_ratio(*phi_parts(y, params))


def phi_prime(y: Coord, params: MapParams) -> Coord:
    """Analytic derivative of phi: 8 P2(psi_c) / P1(psi_c)^2 * psi_c'."""
    p = psi(y, params)
    p1 = (2.0 * p + 2.0) * p - 1.0
    p2 = (p + 1.0) * p + 1.0
    return 8.0 * p2 / (p1 * p1) * psi_prime(y, params)


def phi_tilde_parts(ytilde: Coord, params: MapParams) -> tuple[Coord, Coord]:
    """(numerator, denominator) of phitilde: (-2 P2(psi_c), P2'(psi_c))."""
    p = psi(ytilde, params)
    return -2.0 * ((p + 1.0) * p + 1.0), 2.0 * p + 1.0


def phi_tilde(ytilde: Coord, params: MapParams) -> Coord:
    """tan(2 theta) of the backward contracted field, as an extended real.

    Never zero (P2 has no real roots); asymptotes at delta^* and
    1 - delta^*.  The turning-point values do not depend on k and are
    exactly phitilde(delta^-+) = -+ sqrt(3): with psi_c(delta^-) =
    (sqrt(3) - 1)/2 one gets -2 * (3/2) / sqrt(3).  (Evaluating the ratio
    without its factor 2 gives -+ sqrt(3)/2 instead; the factor is forced
    by the stationarity relation and the SVD cross-check.)
    """
    return extended_ratio(*phi_tilde_parts(ytilde, params))


def phi_tilde_prime(ytilde: Coord, params: MapParams) -> Coord:
    """Analytic derivative of phitilde: -2 P1(psi_c) / P2'(psi_c)^2 * psi_c'.

    Both leading signs matter: psi_c' = -4 pi^2 k sin(2 pi ytilde) and the
    ratio derivative carries its own minus, so phitilde increases on
    (0, delta^-).
    """
    p = psi(ytilde, params)
    p1 = (2.0 * p + 2.0) * p - 1.0
    d2 = 2.0 * p + 1.0
    return -2.0 * p1 / (d2 * d2) * psi_prime(ytilde, params)


def forward_angle(y: Coord, params: MapParams) -> Coord:
    """Lifted forward contracted angle pi + atan2(-P1', P1)/2 (see theta_field)."""
    num, den = phi_parts(y, params)
    try:
        half = 0.5 * math.atan2(num, den)
    except TypeError:
        half = 0.5 * np.arctan2(num, den)
    return math.pi + half


def backward_angle(ytilde: Coord, params: MapParams) -> Coord:
    """Lifted backward contracted angle pi/2 + atan2(-2 P2, P2')/2 (see theta_field)."""
    num, den = phi_tilde_parts(ytilde, params)
    try:
        half = 0.5 * math.atan2(num, den)
    except TypeError:
        half = 0.5 * np.arctan2(num, den)
    return 0.5 * math.pi + half


def theta_field(
    coord: float, params: MapParams, time: TimeDirection = "forward"
) -> DirAngle:
    """Most contracted direction angle at y (forward) or ytilde (backward).

    Forward: pi + atan2(-P1', P1)/2, which lands on the negative horizontal
    near y = 0, swings through the negative diagonal at delta^-, the vertical
    at delta^*, the positive diagonal at delta^+, and is nearly horizontal at
    y = 1/2.  Backward: pi/2 + atan2(-2 P2, P2')/2, always strictly inside
    the open first quadrant, crossing the positive diagonal at
    ytilde = delta^*.  Both are continuous mod pi across all asymptotes.
    """
    if time == "forward":
        return DirAngle(forward_angle(coord, params))
    if time == "backward":
        return DirAngle(backward_angle(coord, params))
    raise ValueError(f"time must be 'forward' or 'backward', got {time!r}")


def unit_vector(field: FieldName, coord: float, params: MapParams) -> tuple[float, float]:
    """Unit vector of one of the four direction fields at a 1-d coordinate.

    e-fields are the contracted directions; f-fields are their rotations by
    pi/2 (the most expanded direction is everywhere orthogonal).
    """
    if field in ("e1", "f1"):
        ang = theta_field(coord, params, "forward")
    elif field in ("e-1", "f-1"):
        ang = theta_field(coord, params, "backward")
    else:
        raise ValueError(f"unknown field {field!r}")
    if field in ("f1", "f-1"):
        ang = ang.perp()
    return ang.vector()


@dataclass(frozen=True)
class HypFrame:
    """Order-n hyperbolic coordinates at a point.

    F is the largest singular value of the order-n orbit Jacobian, E the
    smallest, H = E/F their ratio; e_dir and f_dir are the most contracted
    and most expanded (right-singular) directions, always orthogonal.
    """

    order: int
    F: float
    E: float
    H: float
    e_dir: DirAngle
    f_dir: DirAngle


def hyperbolic_frame(p: TorusPoint, params: MapParams, n: int) -> HypFrame:
    """Numerical order-n frame from the SVD of the orbit Jacobian.

    F and the directions come from the SVD.  E is |det| / F with the
    determinant taken step by step (``orbit_determinant``), 1 up to
    rounding: the smaller singular value of the computed product, like its
    determinant, cancels to noise once F^2 outgrows 1/eps.
    """
    m = orbit_jacobian(p, params, n)
    s = svd2(m)
    if s.degenerate or s.dir_min is None or s.dir_max is None:
        raise ConformalPointError(n, s.sigma_max)
    e = abs(orbit_determinant(p, params, n)) / s.sigma_max
    return HypFrame(
        order=n,
        F=s.sigma_max,
        E=e,
        H=e / s.sigma_max,
        e_dir=s.dir_min,
        f_dir=s.dir_max,
    )


@dataclass(frozen=True)
class CriticalConstants:
    """The k-dependent strip constants; None marks an undefined constant.

    Whenever all are defined they satisfy

        delta^- < 1/4 < delta^* < delta_hat_T^- < delta_T^- < delta^+
                < delta_T^+ < delta_hat_T^+ < 1/2,

    and every one of them tends to 1/4 as k grows.
    """

    k: float
    delta_minus: Optional[float]
    delta_star: Optional[float]
    delta_plus: Optional[float]
    delta_hat_T_minus: Optional[float]
    delta_hat_T_plus: Optional[float]
    delta_T_minus: Optional[float]
    delta_T_plus: Optional[float]

    _ORDER = (
        "delta_minus",
        "delta_star",
        "delta_hat_T_minus",
        "delta_T_minus",
        "delta_plus",
        "delta_T_plus",
        "delta_hat_T_plus",
    )

    def as_dict(self) -> dict[str, Optional[float]]:
        return {name: getattr(self, name) for name in self._ORDER}

    @property
    def all_defined(self) -> bool:
        return all(getattr(self, name) is not None for name in self._ORDER)

    def delta_strip_contains(self, y: float) -> bool:
        """Membership in Delta union (1 - Delta), the phi-asymptote strips."""
        dm, dp = self.delta_minus, self.delta_plus
        if dm is None or dp is None:
            raise ValueError(f"Delta strip undefined for k = {self.k}")
        return dm <= y <= dp or 1.0 - dp <= y <= 1.0 - dm

    def tangency_strip_contains(self, y: float, slack: float = 0.0) -> bool:
        """Membership in Delta_hat_T, the strip containing both tangency curves."""
        lo, hi = self.delta_hat_T_minus, self.delta_hat_T_plus
        if lo is None or hi is None:
            raise ValueError(f"Delta_hat_T undefined for k = {self.k}")
        lo, hi = lo - slack, hi + slack
        return lo <= y <= hi or 1.0 - hi <= y <= 1.0 - lo


def _closed_form_delta(params: MapParams, name: str) -> Optional[float]:
    if not params.defined[name]:
        return None
    return math.acos(params.acos_arg(name)) / TWO_PI


def critical_constants(params: MapParams) -> CriticalConstants:
    """Evaluate all strip constants for one parameter value.

    The five closed-form constants are acos expressions; delta_T^-+ have no
    closed form and are found by inverting phi on the stated intervals.
    Constants whose defining expression leaves the domain of acos are
    reported as None rather than clamped.
    """
    dm = _closed_form_delta(params, "delta_minus")
    ds = _closed_form_delta(params, "delta_star")
    dp = _closed_form_delta(params, "delta_plus")
    dhm = _closed_form_delta(params, "delta_hat_T_minus")
    dhp = _closed_form_delta(params, "delta_hat_T_plus")

    dtm: Optional[float] = None
    dtp: Optional[float] = None
    if dm is not None and dp is not None:
        # Local import: tangency builds on this module for everything else.
        from .tangency import phi_inverse

        roots = [y for y in phi_inverse(phi_tilde(0.0, params), params) if dm <= y <= dp]
        if len(roots) == 1:
            dtm = roots[0]
        roots = [y for y in phi_inverse(phi_tilde(0.5, params), params) if dp <= y <= 0.5]
        if len(roots) == 1:
            dtp = roots[0]

    return CriticalConstants(
        k=params.k,
        delta_minus=dm,
        delta_star=ds,
        delta_plus=dp,
        delta_hat_T_minus=dhm,
        delta_hat_T_plus=dhp,
        delta_T_minus=dtm,
        delta_T_plus=dtp,
    )
