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
or an ndarray (evaluated elementwise with numpy).  So are the polynomials P1
and P2, ``psi_inverse``, the height in [0, 1/2] at which psi_c takes a given
value, through which every strip constant, phi^{-1}, the tangency heights
and the leaf tracer's initial grid go, and ``phi_inverse_branch``, one
branch of the heights at which phi takes a given value, for delta_T^-+.
psi_c itself is ``stdmap.psi``, shared with the Jacobians.  The float
and array paths agree exactly up to the angles and psi_inverse, which may
differ in the last bits (numpy's arctan2 and arccos are not libm's; see
forward_angle).  psi_c and the angles try math first, as stdmap.mod1 does,
and take numpy where math refuses the argument: an array of at least one
dimension.  Numpy scalars and 0-d arrays convert, so they take math.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import svd2_entries
from .stdmap import (DELTA_LEVELS, TWO_PI, Coord, DirAngle, MapParams, ParameterError, TimeDirection, TorusPoint,
                     orbit_entries, psi)
# Unused here: perfbench/tracing.py wraps them by name in this module.
from .oracle import svd2
from .stdmap import orbit_jacobian


class ConformalPointError(ValueError):
    """Singular values coincide, so extremal directions are undefined.

    ``hyperbolic_frame`` raises it; unreachable for this map at order +-1
    (H_1 <= 1/2 everywhere).
    """

    def __init__(self, order: int, sigma: float):
        super().__init__(
            f"conformal point at order {order}: both singular values equal {sigma}"
        )
        self.order = order
        self.sigma = sigma


def psi_prime(y: Coord, params: MapParams) -> Coord:
    """d/dy of psi_c: -4 pi^2 k sin(2 pi y) (note the minus sign)."""
    return -TWO_PI * psi(y, params, "sin")


def psi_inverse(v: Coord, params: MapParams, each: bool = False) -> Coord:
    """The y in [0, 1/2] with psi_c(y) = v: acos(v / 2 pi k) / 2 pi, NaN where |v| > 2 pi k.

    An array takes numpy's arccos, which differs from math.acos in the last
    bit on ~8 % of inputs, or with ``each`` math.acos one element at a time
    for the float path's bits (~160 against ~6 ns an element on a shared
    2-vCPU VM).
    """
    arg = v / (TWO_PI * params.k)
    if isinstance(arg, np.ndarray):
        if each:
            y = np.full(arg.shape, math.nan)
            inside = abs(arg) <= 1.0
            y[inside] = [math.acos(a) for a in arg[inside].tolist()]
            return y / TWO_PI
        with np.errstate(invalid="ignore"):
            return np.arccos(arg) / TWO_PI
    return math.acos(arg) / TWO_PI if abs(arg) <= 1.0 else math.nan


def _p1(p: Coord) -> Coord:
    """P1(psi) = 2 psi^2 + 2 psi - 1."""
    return (2.0 * p + 2.0) * p - 1.0


def _p2(p: Coord) -> Coord:
    """P2(psi) = psi^2 + psi + 1."""
    return (p + 1.0) * p + 1.0


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
    return -(4.0 * p + 2.0), _p1(p)


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
    p1 = _p1(p)
    return 8.0 * _p2(p) / (p1 * p1) * psi_prime(y, params)


def forward_angle_prime(y: Coord, params: MapParams) -> Coord:
    """Analytic derivative of forward_angle: 4 P2(psi_c) / (P1(psi_c)^2 + P1'(psi_c)^2) * psi_c'.

    P1'^2 - 4 P1 = 8 P2 > 0, so it vanishes only where psi_c' does, at y = 0 and 1/2."""
    num, den = phi_parts(y, params)  # (-P1', P1)
    return 4.0 * _p2(psi(y, params)) / (num * num + den * den) * psi_prime(y, params)


def phi_inverse_branch(z: Coord, sign: Coord, params: MapParams) -> Coord:
    """One quadratic branch of phi^{-1}(z): a root y in [0, 1/2], or NaN.

    The sign +-1 picks the branch; an array of signs broadcast against an
    array z gives several branches at once.

    Two Newton steps on psi_c(y) - psi_root remove the rounding of the
    acos/cos round trip, except where psi_c' is too small to divide by.
    They do not remove all of it, so an array takes ``psi_inverse``'s acos
    one element at a time (from numpy's arccos ~2 % of the roots would
    differ by an ulp), and every root is the float path's bit for bit, as
    the ``verify`` battery needs.
    """
    array = isinstance(z, np.ndarray)
    psi_root = (-(z + 2.0) + sign * (np.sqrt if array else math.sqrt)(3.0 * z * z + 4.0)) / (2.0 * z)
    y = psi_inverse(psi_root, params, each=True)
    for _ in range(2):
        dp = psi_prime(y, params)
        err = psi(y, params) - psi_root
        move = (abs(dp) >= 1e-6 * params.k) & (err != 0.0)
        if array:
            y = y - np.where(move, err / np.where(move, dp, 1.0), 0.0)
        elif move:
            y -= err / dp
    return y


def phi_inverse(z: float, params: MapParams) -> list[float]:
    """All y in [0, 1) with phi(y) = z, for z != 0.

    Each quadratic branch whose acos argument lies in [-1, 1] contributes a
    root y and its mirror 1 - y.  Roots are polished so that phi(y) matches
    z to 1e-10 relative.  The z = 0 case is excluded (the formula divides
    by z); callers use the known zero set {delta^*, 1 - delta^*} instead.
    """
    if z == 0.0:
        raise ParameterError("z", "must be nonzero: the zero set of phi is {delta^*, 1 - delta^*}")
    if math.isinf(z):
        raise ParameterError("z", f"must be finite, got {z}: the asymptote preimages are delta^-+")
    out: list[float] = []
    for sign in (1.0, -1.0):
        y = phi_inverse_branch(z, sign, params)
        if not math.isnan(y):
            out += [y, 1.0 - y]
    return sorted(out)


def phi_tilde_parts(ytilde: Coord, params: MapParams) -> tuple[Coord, Coord]:
    """(numerator, denominator) of phitilde: (-2 P2(psi_c), P2'(psi_c))."""
    p = psi(ytilde, params)
    return -2.0 * _p2(p), 2.0 * p + 1.0


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


def forward_angle(y: Coord, params: MapParams) -> Coord:
    """Lifted forward contracted angle pi + atan2(-P1', P1)/2 (see theta_field), in [pi/2, 3 pi/2].

    Floats take math.atan2, arrays numpy's arctan2, which differs by up to an
    ulp (numpy 2.4, x86-64).  With -P1' and P1 shared bit for bit and halving
    exact, the halves differ by at most ulp(pi)/2 = ulp(1), so the angles,
    all >= pi/2, by at most one ulp.  The ``verify`` battery prints angle
    errors down to ~1e-16, so it takes this angle one float at a time.
    """
    num, den = phi_parts(y, params)
    try:  # as in stdmap.mod1: math refuses an array
        half = 0.5 * math.atan2(num, den)
    except TypeError:
        half = 0.5 * np.arctan2(num, den)
    return math.pi + half


def backward_angle(ytilde: Coord, params: MapParams) -> Coord:
    """Lifted backward contracted angle pi/2 + atan2(-2 P2, P2')/2 (see theta_field), in [pi/6, pi/3].

    Its paths differ as forward_angle's, by at most two ulps: 2 P2 >= sqrt(3)
    |P2'| puts |atan2| in [pi/3, 2 pi/3], so the halves differ by up to two
    ulps of an angle below 1, where pi/2 + half is exact, and half of one above.
    """
    num, den = phi_tilde_parts(ytilde, params)
    try:  # as in forward_angle
        half = 0.5 * math.atan2(num, den)
    except TypeError:
        half = 0.5 * np.arctan2(num, den)
    return 0.5 * math.pi + half


# The reductions below equal np.remainder bit for bit on the stated domains and
# cost ~1-2 ns an element against its ~15-24 (one core of a 2-vCPU Xeon).
# mod_pi and gap_mod_pi give floats the bits of Python's % on the same domains;
# mod_one takes % for scalars, since math.floor returns an int and -0.0 - 0
# would stay -0.0.


def mod_pi(a: Coord) -> Coord:
    """a mod pi for a in [0, 2 pi): a forward or a backward angle.

    a - pi where a >= pi; that subtraction is exact on [pi, 2 pi] (Sterbenz).
    """
    return a - math.pi * (a >= math.pi)


def gap_mod_pi(d: Coord) -> Coord:
    """d mod pi for d in (-pi, pi): a difference of two angles in [0, pi).

    d + pi where d < 0, rounded once as np.remainder rounds it; -0.0 becomes +0.0.
    """
    return d + math.pi * (d < 0.0)


def mod_one(v: Coord) -> Coord:
    """v mod 1 for v in [-1, 1]: a difference of two torus coordinates.

    v - floor(v), so v = 1 and v = -1 both map to +0.0.
    """
    if isinstance(v, np.ndarray) and v.ndim:
        return v - np.floor(v)
    return v % 1.0


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
    raise ParameterError("time", f"must be 'forward' or 'backward', got {time!r}")


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

    One walk of the orbit (``orbit_entries``) gives the entries of
    ``orbit_jacobian`` and the product of the step determinants, det
    D(f^n)_p up to rounding.  F and the directions are the floats of
    ``oracle.svd2_entries`` on those entries, ``svd2``'s formula without
    its ``Mat2`` and ``Svd2Result``.  E is |det| / F with that determinant,
    1 up to rounding: the smaller singular value of the computed product,
    like its determinant, cancels to noise once F^2 outgrows 1/eps.

    An order whose H = E / F falls below the normal float64 range raises
    ``ParameterError`` naming ``n`` (at (0.2, 0.3): from n = 56 at k = 200,
    n = 29 at k = 1e5).  A normal H keeps F^2 under 4.5e307, so the
    2 (ab + cd) ~ F^2 that the direction formula forms stays finite.
    """
    a, b, c, d, det = orbit_entries(p, params, n)  # finite, or it raises
    f, _, t_max, t_min = svd2_entries(a, b, c, d)
    if t_max is None or t_min is None:
        raise ConformalPointError(n, f)
    e = abs(det) / f
    h = e / f
    if not h >= sys.float_info.min:
        raise ParameterError("n", f"{n}: the order-n frame leaves float64 range at k = {params.k:g}, F = {f:.3g}")
    return HypFrame(order=n, F=f, E=e, H=h, e_dir=DirAngle(t_min), f_dir=DirAngle(t_max))


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


def strip_pair_contains(y: float, lo: float, hi: float) -> bool:
    """Membership in [lo, hi] union [1 - hi, 1 - lo], a strip and its mirror about y = 1/2."""
    return lo <= y <= hi or 1.0 - hi <= y <= 1.0 - lo


def critical_constants(params: MapParams) -> CriticalConstants:
    """Evaluate all strip constants for one parameter value.

    The five closed-form constants are psi_inverse of k-free levels of psi_c;
    delta_T^-+ have no closed form and are found by inverting phi.
    Constants whose level lies outside [-2 pi k, 2 pi k] are reported as
    None rather than clamped.
    """
    closed = {name: psi_inverse(level, params) if params.defined[name] else None
              for name, level in DELTA_LEVELS.items()}
    dm, dp = closed["delta_minus"], closed["delta_plus"]
    dtm: Optional[float] = None
    dtp: Optional[float] = None
    if dm is not None and dp is not None:
        # phitilde(0) ~ -2 pi k; its P2(2 pi k) ~ (2 pi k)^2 overflows first.
        z = phi_tilde(0.0, params)
        if not math.isfinite(z):
            raise ParameterError("k", f"{params.k:g}: strip constants not computable, "
                                      "phitilde(0) overflows from k ~ 1.509e153 on")
        # phi^{-1} has the wanted root in [delta^*, 1/2] on branch +1 at phitilde(0) < 0,
        # below delta^+, and on branch -1 at phitilde(1/2) > 0, above it.  From k ~ 1e7 on
        # that root lies within an ulp of delta^+ and may round to its other side, where
        # it is moved onto delta^+.
        y = phi_inverse_branch(z, 1.0, params)
        dtm = None if math.isnan(y) else min(y, dp)
        y = phi_inverse_branch(phi_tilde(0.5, params), -1.0, params)
        dtp = None if math.isnan(y) else max(y, dp)
    return CriticalConstants(k=params.k, **closed, delta_T_minus=dtm, delta_T_plus=dtp)
