"""Integral curves (leaves) of the four direction fields on the torus.

Leaves are traced with a fourth-order explicit scheme on the unit direction
field.  Direction fields are only defined mod pi, so every evaluation is
flipped, when needed, to keep a positive inner product with the running
tangent.  The step adapts to the distance from the critical strips around
y = 1/4 and y = 3/4 (ytilde for the backward fields), where the fields
turn on a scale of 1/k.

Closed leaves are known exactly: the expanded forward foliation F1 has the
two horizontal lines y = delta^* and y = 1 - delta^*, and the contracted
backward foliation E-1 has the two diagonals ytilde = delta^* and
ytilde = 1 - delta^*.  (The diagonals sit exactly at delta^*, approaching
ytilde = 1/4 and 3/4 only in the large-k limit.)  E1 and F-1 have no
closed leaves; their leaves wrap around the torus and accumulate on the
closed leaves of the orthogonal picture.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .coordinates import backward_angle, critical_constants, forward_angle
from .stdmap import MapParams, TorusPoint, mod1

LEAF_FIELDS = ("E1", "F1", "E-1", "F-1")

#: Declared closed when the trace returns this close to its start
#: (fraction of the current step) with nearly parallel tangent.
_CLOSE_TANGENT_DOT = 0.99

#: Largest per-step rotation of the field accepted before raising.  Under
#: mod-pi continuity flipping a rotation just above pi/2 is indistinguishable
#: from one just below, so pi/4 is the widest turn that can be trusted.
_MAX_TURN_DOT = math.cos(0.25 * math.pi)


class StepSizeError(RuntimeError):
    """The field rotated too much between vertices for the requested step."""


@dataclass
class Leaf:
    """An oriented polyline on the torus.

    ``points`` holds torus coordinates in [0, 1)^2 and ``lifted`` the
    unwrapped plane copy used for winding queries and seam-free rendering;
    the two have identical shape (n, 2).
    """

    field_id: str
    points: np.ndarray
    lifted: np.ndarray
    arc_length: float
    closed: bool

    def __len__(self) -> int:
        return len(self.points)

    def vertex(self, i: int) -> TorusPoint:
        return TorusPoint(float(self.points[i, 0]), float(self.points[i, 1]))

    def winding(self) -> tuple[int, int]:
        """Integer torus winding of a closed leaf (rounded lifted travel)."""
        dx = self.lifted[-1, 0] - self.lifted[0, 0]
        dy = self.lifted[-1, 1] - self.lifted[0, 1]
        return (round(dx), round(dy))

    def segments(self) -> list[np.ndarray]:
        """Seam-split polylines in the unit square, for rendering.

        Each returned array is (m, 2); consecutive arrays are separated by a
        torus wrap.  Segment endpoints may touch the square boundary.
        """
        pts = self.lifted
        if len(pts) == 0:
            return []
        segs: list[np.ndarray] = []
        ox, oy = math.floor(pts[0, 0]), math.floor(pts[0, 1])
        cur: list[tuple[float, float]] = [(pts[0, 0] - ox, pts[0, 1] - oy)]
        for i in range(1, len(pts)):
            px, py = pts[i - 1]
            qx, qy = pts[i]
            events: list[tuple[float, int, int]] = []  # (t, axis, direction)
            # Sides of the current square: a vertex on a side it leaves through crosses at t = 0.
            for axis, (a, b, o) in enumerate(((px, qx, ox), (py, qy, oy))):
                if b > a:
                    c = o + 1
                    while c < b:
                        events.append(((c - a) / (b - a), axis, 1))
                        c += 1
                elif b < a:
                    c = o
                    while c > b:
                        events.append(((c - a) / (b - a), axis, -1))
                        c -= 1
            for t, axis, direction in sorted(events):
                seam = [px + t * (qx - px) - ox, py + t * (qy - py) - oy]
                seam[axis] = 1.0 if direction > 0 else 0.0  # interpolation could round past the side
                cur.append(tuple(seam))
                segs.append(np.array(cur))
                if axis == 0:
                    ox += direction
                else:
                    oy += direction
                seam[axis] = 1.0 - seam[axis]
                cur = [tuple(seam)]
            cur.append((qx - ox, qy - oy))
        segs.append(np.array(cur))
        return segs

    def to_csv_rows(self) -> list[tuple[int, float, float]]:
        rows = []
        for seg_id, seg in enumerate(self.segments()):
            for x, y in seg:
                rows.append((seg_id, float(x), float(y)))
        return rows


def _field_components(field_id: str, lx: float, ly: float, params: MapParams) -> tuple[float, float]:
    """Canonical unit direction of the field at a lifted plane point."""
    if field_id == "E1" or field_id == "F1":
        ang = forward_angle(mod1(ly), params)
        if field_id == "F1":
            ang += 0.5 * math.pi
    else:
        ang = backward_angle(mod1(ly - lx), params)
        if field_id == "F-1":
            ang += 0.5 * math.pi
    return math.cos(ang), math.sin(ang)


def _strip_distance(field_id: str, lx: float, ly: float) -> float:
    """Circle distance of the field's governing coordinate from {1/4, 3/4}."""
    c = mod1(ly) if field_id in ("E1", "F1") else mod1(ly - lx)
    d = abs(c - 0.25)
    d = min(d, abs(c - 0.75))
    return min(d, 1.0 - abs(c - 0.75))


def trace_leaf(
    field_id: str,
    start: TorusPoint,
    params: MapParams,
    step: float = 1e-3,
    max_arc: float = 10.0,
    initial_direction: tuple[float, float] | None = None,
) -> Leaf:
    """Trace one leaf from a starting point.

    The base step shrinks by min(1, k * distance-to-critical-strip), floored
    at 1/(1 + k) so the trace can cross and follow the strips.  Termination:
    max_arc reached (the final step is clipped to land on it exactly),
    or closure detected (the trace returns within half a step of the start
    with nearly parallel tangent; the start vertex is then re-appended so
    closed leaves end exactly where they began).

    Raises StepSizeError when the field direction rotates more than pi/4
    between consecutive vertices, which means the step cannot resolve the
    field in that region.
    """
    if field_id not in LEAF_FIELDS:
        raise ValueError(f"field_id must be one of {LEAF_FIELDS}, got {field_id!r}")
    if step <= 0 or max_arc <= 0:
        raise ValueError("step and max_arc must be positive")

    lx, ly = start.x, start.y
    dx0, dy0 = _field_components(field_id, lx, ly, params)
    if initial_direction is not None:
        rx, ry = initial_direction
        if dx0 * rx + dy0 * ry < 0.0:
            dx0, dy0 = -dx0, -dy0
    elif dx0 < 0.0 or (dx0 == 0.0 and dy0 < 0.0):
        dx0, dy0 = -dx0, -dy0

    xs = array("d", [lx])
    ys = array("d", [ly])
    rx, ry = dx0, dy0
    arc = 0.0
    closed = False
    floor_factor = 1.0 / (1.0 + params.k)
    max_steps = int(2 * max_arc / (step * floor_factor)) + 64

    for _ in range(max_steps):
        if arc >= max_arc:
            break
        factor = min(1.0, max(params.k * _strip_distance(field_id, lx, ly), floor_factor))
        h = min(step * factor, max_arc - arc)

        d1x, d1y = _field_components(field_id, lx, ly, params)
        if d1x * rx + d1y * ry < 0.0:
            d1x, d1y = -d1x, -d1y
        d2x, d2y = _field_components(field_id, lx + 0.5 * h * d1x, ly + 0.5 * h * d1y, params)
        if d2x * d1x + d2y * d1y < 0.0:
            d2x, d2y = -d2x, -d2y
        d3x, d3y = _field_components(field_id, lx + 0.5 * h * d2x, ly + 0.5 * h * d2y, params)
        if d3x * d1x + d3y * d1y < 0.0:
            d3x, d3y = -d3x, -d3y
        d4x, d4y = _field_components(field_id, lx + h * d3x, ly + h * d3y, params)
        if d4x * d1x + d4y * d1y < 0.0:
            d4x, d4y = -d4x, -d4y

        mx = (d1x + 2.0 * (d2x + d3x) + d4x) / 6.0
        my = (d1y + 2.0 * (d2y + d3y) + d4y) / 6.0
        nx, ny = lx + h * mx, ly + h * my

        ndx, ndy = _field_components(field_id, nx, ny, params)
        if ndx * d1x + ndy * d1y < 0.0:
            ndx, ndy = -ndx, -ndy
        if ndx * d1x + ndy * d1y < _MAX_TURN_DOT:
            coord = mod1(ny) if field_id in ("E1", "F1") else mod1(ny - nx)
            raise StepSizeError(
                f"step {h:.3g} too large for {field_id} near "
                f"{'y' if field_id in ('E1', 'F1') else 'ytilde'} = {coord:.6f}: "
                "field direction turned by more than pi/4 between vertices"
            )

        # The field is unit speed, so parameter time is exact arc length;
        # summing chord lengths instead would bias the endpoint by O(h^2).
        arc += h
        lx, ly, rx, ry = nx, ny, ndx, ndy
        xs.append(lx)
        ys.append(ly)

        if arc > 3.0 * step:
            ddx = lx - start.x
            ddy = ly - start.y
            tx = abs(ddx - round(ddx))
            ty = abs(ddy - round(ddy))
            if math.hypot(tx, ty) < 0.5 * h and rx * dx0 + ry * dy0 > _CLOSE_TANGENT_DOT:
                xs.append(start.x + round(ddx))
                ys.append(start.y + round(ddy))
                closed = True
                break
    else:
        raise RuntimeError(
            f"leaf trace exceeded {max_steps} steps before reaching arc {max_arc}"
        )

    lifted = np.column_stack([np.frombuffer(xs, dtype=float), np.frombuffer(ys, dtype=float)])
    points = lifted - np.floor(lifted)
    points[points >= 1.0 - 1e-15] = 0.0
    return Leaf(field_id=field_id, points=points, lifted=lifted, arc_length=arc, closed=closed)


def fold_tips(params: MapParams) -> tuple[float, float]:
    """Heights of the two horizontal lines carrying the E1 fold tips.

    These are the zeros of phi, where the contracted forward direction is
    vertical: y = delta^* and y = 1 - delta^*.
    """
    c = critical_constants(params)
    if c.delta_star is None:
        raise ValueError(f"delta^* undefined for k = {params.k}")
    return (c.delta_star, 1.0 - c.delta_star)


def closed_leaves(field_id: str, params: MapParams) -> list[Leaf]:
    """The exact closed leaves of a foliation, as analytic two-vertex leaves.

    F1 has the horizontal lines through the fold tips; E-1 has the two
    diagonals ytilde = delta^* and 1 - delta^*.  E1 and F-1 have none.
    """
    if field_id not in LEAF_FIELDS:
        raise ValueError(f"field_id must be one of {LEAF_FIELDS}, got {field_id!r}")
    if field_id in ("E1", "F-1"):
        return []
    ds, ds_mirror = fold_tips(params)
    leaves = []
    for level in (ds, ds_mirror):
        if field_id == "F1":
            lifted = np.array([[0.0, level], [1.0, level]])
            arc = 1.0
        else:
            lifted = np.array([[0.0, level], [1.0, level + 1.0]])
            arc = math.sqrt(2.0)
        points = lifted - np.floor(lifted)
        points[points >= 1.0 - 1e-15] = 0.0
        leaves.append(
            Leaf(field_id=field_id, points=points, lifted=lifted, arc_length=arc, closed=True)
        )
    return leaves
