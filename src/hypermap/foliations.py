"""Integral curves (leaves) of the four direction fields on the torus.

Each field depends on one coordinate only, c = y for E1 and F1 and
c = ytilde = y - x for E-1 and F-1, so every leaf solves a separable scalar
ODE and is traced as a quadrature in c.  Let a(c) be the field angle
(``forward_angle`` or ``backward_angle``, plus pi/2 for F1 and F-1) and
w = dc/ds the rate at which a unit-speed leaf crosses the levels of c:
w = sin a forward and sin a - cos a backward.  Then

    x(c) = x0 + int cos a / w dc,    s(c) = int 1 / |w| dc,

and y = c forward, y = c + x backward.  Both integrands are unchanged when a
moves by pi, so the mod-pi ambiguity of a direction field (and the jump of
``forward_angle`` by pi at delta^*) never enters.  Along a leaf c moves
monotonically, in the direction the start orientation gives it.

w vanishes only for F1 and E-1, at c = delta^* and c = 1 - delta^*.  These
levels are the closed leaves: the horizontal lines y = delta^*, 1 - delta^*
of F1 and the diagonals ytilde = delta^*, 1 - delta^* of E-1.  Every other
leaf of these two foliations runs towards the zero ahead of it and
approaches that closed leaf exponentially.  The quadrature stops 1e-10 short
of the zero, below which float evaluation of w is noise, and the leaf goes
on analytically, |c - c*| = e1 exp(-lambda (s - s1)) with lambda = |w| / e1
read one-sided at the stop, while x advances along the closed leaf.  E1 and
F-1 have no closed leaves, nor have F1 and E-1 where delta^* is undefined
(k < 1/(4 pi)): one period of c is integrated and tiled.  Leaves of E1 and
F-1 accumulate on the closed leaves of the orthogonal picture.

The quadrature runs 3-point Gauss-Legendre on a fine grid in c whose
intervals each cost at most one allowance: their arc / ``step``, plus their
turn of the tangent / 0.01 rad, plus their change of ln|w| / 0.25.  The grid
equidistributes the cost that a coarser pilot grid measures (C. de Boor,
1974), and its nodes are the output vertices; so consecutive vertices are at
most ``step`` apart in arc and 0.01 rad in tangent angle, as the nodes
measure it, and the last one lies at arc length ``max_arc`` exactly.  A leaf
is ``closed`` only when it starts on a closed leaf (within 1e-10 in c) and
``max_arc`` covers one period of it; the trace is then that period and ends
on its start point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coordinates import backward_angle, critical_constants, forward_angle, psi_inverse
from .stdmap import TWO_PI, Coord, MapParams, ParameterError, TorusPoint, mod1

LEAF_FIELDS = ("E1", "F1", "E-1", "F-1")

#: Distance in c from a zero of w at which the quadrature hands over to the
#: exponential tail; closer than this, float evaluation of w is noise.  A
#: start this close to a zero lies on the closed leaf.
_JOIN = 1e-10
#: Largest tangent turn between output vertices, in radians.
_MAX_TURN = 0.01
#: Change of ln|w| that counts as one allowance in an interval's cost, keeping
#: the 3-point rule accurate where ``step`` is coarse.
_MAX_LOG_W = 0.25
#: Most passes over a grid, and the cost each interval is placed to carry.
_PASSES = 10
_FILL = 0.85
#: Initial grid: nodes per unit of c, spacing in asinh(psi) (the field turns
#: where |psi| is of order one, a band of width ~1/k in c) and the ratio of
#: successive distances from a zero of w.
_PILOT_PER_UNIT = 256
_PILOT_XI = 0.02
_PILOT_RATIO = 1.05
#: The largest max_arc / step accepted: the leaf has about that many vertices.
MAX_VERTICES = 10**7

#: Intervals evaluated in one block of ``_LeafField.integrals``.  Its (n, 3)
#: temporaries then take at most 96 KiB, below glibc's default 128 KiB mmap
#: threshold, so a long grid does not map fresh pages for each of them.
_ROWS = 4096

#: 3-point Gauss-Legendre nodes and weights on [0, 1].
_GL_X = np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass
class Leaf:
    """An oriented polyline on the torus.

    ``points`` holds torus coordinates in [0, 1)^2 and ``lifted`` the
    unwrapped plane copy used for rendering; the two have identical shape
    (n, 2).  ``segments()`` cuts ``lifted`` at the torus seams into one array
    of points in the unit square plus the offset at which each piece starts,
    and returns the pieces as views of that array.
    """

    field_id: str
    points: np.ndarray
    lifted: np.ndarray
    arc_length: float
    closed: bool

    def segments(self) -> list[np.ndarray]:
        """Seam-split polylines in the unit square, for rendering.

        Each returned array is an (m, 2) view into the one array of all
        pieces; consecutive arrays are separated by a torus wrap.  Segment
        endpoints may touch the square boundary.
        """
        points, starts = _split(self.lifted)
        return np.split(points, starts[1:]) if len(points) else []


def _split(lifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A lifted polyline cut at the torus seams: all points in the unit
    square as one (m, 2) array, and the index at which each piece starts.

    Each vertex is drawn in the unit square at an integer offset o from the
    plane.  Per axis, a chord moving up to b ends in the square o = ceil(b) - 1
    and one moving down in o = floor(b); a chord that does not move keeps o,
    so a vertex lying on a side stays in its square.  The chord crosses
    |o_new - o_old| sides of that axis.  Crossings are taken in order of
    (chord, t, axis): at each, the current piece ends on the side, at
    p + t (q - p) - o with o the offset after the chord's earlier crossings,
    and the next piece starts on the opposite side.  The side coordinate is
    set to exactly 1 or 0, as interpolation could round past it.
    """
    n = len(lifted)
    p, q = lifted[:-1], lifted[1:]
    up, down = q > p, q < p
    offset = np.floor(lifted)
    offset[1:] = np.where(up, np.ceil(q) - 1.0, offset[1:])
    # A vertex whose chord did not move on an axis takes the offset of the last one that did.
    last_move = np.repeat(np.arange(n)[:, None], 2, axis=1)
    last_move[1:][~(up | down)] = 0
    offset = np.take_along_axis(offset, np.maximum.accumulate(last_move, axis=0), axis=0)

    # One entry per side crossed, chord by chord and axis by axis.
    crossed = offset[1:] - offset[:-1]
    count = np.abs(crossed).astype(np.intp).ravel()
    pair = np.repeat(np.arange(count.size), count)
    if len(pair) == 0:
        return lifted - offset, np.zeros(min(n, 1), dtype=np.intp)
    chord, axis = np.divmod(pair, 2)
    nth = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    sign = np.sign(crossed.ravel())[pair]
    old = offset[:-1].ravel()[pair]
    side = np.where(sign > 0, old + 1.0 + nth, old - nth)
    a = p.ravel()[pair]
    t = (side - a) / (q.ravel()[pair] - a)

    # Events in drawing order; the offset at each is the start's plus all earlier moves.
    order = np.lexsort((axis, t, chord))
    chord, axis, sign, t = chord[order], axis[order], sign[order], t[order]
    events = np.arange(len(t))
    moves = np.zeros((len(t), 2))
    moves[events, axis] = sign
    seam = p[chord] + t[:, None] * (q[chord] - p[chord]) - (offset[0] + np.cumsum(moves, axis=0) - moves)
    # Each event puts two points, the end of one piece and the start of the next, before its chord's end.
    ends = chord + 1 + 2 * events
    out = np.empty((n + 2 * len(t), 2))
    out[np.arange(n) + 2 * np.searchsorted(chord, np.arange(n))] = lifted - offset
    seam[events, axis] = np.where(sign > 0, 1.0, 0.0)
    out[ends] = seam
    seam[events, axis] = np.where(sign > 0, 0.0, 1.0)
    out[ends + 1] = seam
    return out, np.concatenate([[0], ends + 1])


@dataclass(frozen=True)
class _LeafField:
    """One field along its governing coordinate, at offsets C from c = base."""

    forward: bool
    perp: bool
    params: MapParams
    base: float

    def angle(self, offset: Coord) -> Coord:
        """Lifted field angle a at c = base + offset."""
        c = self.base + offset
        a = forward_angle(c, self.params) if self.forward else backward_angle(c, self.params)
        return a + 0.5 * math.pi if self.perp else a

    def speed(self, a: Coord) -> Coord:
        """w = dc/ds of the unit tangent at angle a."""
        return np.sin(a) if self.forward else np.sin(a) - np.cos(a)

    def integrals(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, arc) increments over each interval [lo, hi] of C.

        Evaluated in near-equal blocks of at most _ROWS intervals, so a split
        block holds more than _ROWS / 2.  A row's bits do not depend on the
        block it is evaluated in, as long as that holds two rows or more.
        """
        blocks = -(-len(lo) // _ROWS)
        if blocks <= 1:
            return self._block_integrals(lo, hi)
        parts = [self._block_integrals(*b) for b in zip(np.array_split(lo, blocks), np.array_split(hi, blocks))]
        dx, ds = zip(*parts)
        return np.concatenate(dx), np.concatenate(ds)

    def _block_integrals(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``integrals`` in one block."""
        h = hi - lo
        a = self.angle(lo[:, None] + h[:, None] * _GL_X)
        cos_a = np.cos(a)
        w = np.sin(a) if self.forward else np.sin(a) - cos_a  # ``speed``, with cos a taken once
        return h * ((cos_a / w) @ _GL_W), np.abs(h) * ((1.0 / np.abs(w)) @ _GL_W)


@dataclass
class _Grid:
    """Fine grid of one stretch of a leaf: nodes C, cumulative x and arc."""

    c: np.ndarray
    x: np.ndarray
    s: np.ndarray
    complete: bool


def _pilot(f: _LeafField, length: float, sigma: float, ahead: Optional[float],
           behind: Optional[float]) -> np.ndarray:
    """Initial nodes at travel distances [0, length] from the start, as offsets C.

    ``ahead`` and ``behind`` are the distances of the zeros of w in front of
    and behind the start, when the field has zeros.
    """
    parts = [np.linspace(0.0, length, math.ceil(length * _PILOT_PER_UNIT) + 1)]
    amp = TWO_PI * f.params.k
    top = math.asinh(amp)
    levels = np.sinh(np.linspace(-top, top, math.ceil(2.0 * top / _PILOT_XI) + 1))
    v = psi_inverse(np.clip(levels, -amp, amp), f.params)
    first = (sigma * (np.concatenate([v, 1.0 - v]) - f.base)) % 1.0
    parts.append((first[:, None] + np.arange(math.ceil(length) + 1)).ravel())
    if ahead is not None and behind is not None:
        n = math.ceil(math.log(ahead / _JOIN) / math.log(_PILOT_RATIO)) + 1
        parts.append(ahead - np.geomspace(_JOIN, ahead, n))
        n = math.ceil(math.log((behind + length) / behind) / math.log(_PILOT_RATIO)) + 1
        parts.append(np.geomspace(behind, behind + length, n) - behind)
    d = np.concatenate(parts)
    return sigma * np.unique(d[(d >= 0.0) & (d <= length)])


def _turns(a: np.ndarray) -> np.ndarray:
    """|change of the direction| between consecutive angles of ``a``, in [0, pi/2].

    The change mod pi, folded into [-pi/2, pi/2).  A lifted field angle moves
    by at most pi, so d = diff(a) + pi/2 lies in [-pi/2, 3 pi/2], where one
    masked step gives ``d % pi`` bit for bit (as ``coordinates.mod_pi`` and
    ``gap_mod_pi`` do) at a fraction of the cost of ``np.remainder``.
    """
    d = np.diff(a) + 0.5 * math.pi
    d -= math.pi * (d >= math.pi)
    d += math.pi * (d < 0.0)
    d -= 0.5 * math.pi
    return np.abs(d, out=d)


def _fine_grid(f: _LeafField, nodes: np.ndarray, step: float, cap: float) -> _Grid:
    """Nodes equidistributed on the cost ``nodes`` measure, dropping those past arc ``cap``.

    The cost of an interval is arc / step + turn / _MAX_TURN + (change of
    ln|w|) / _MAX_LOG_W, summed as fractions of one allowance.  The first
    pass places ceil(total / _FILL) intervals at equal steps of the cost the
    pilot ``nodes`` sum up, interpolated linearly within each pilot interval;
    each later pass measures the grid again and stops once every interval
    costs at most 1, or places the nodes anew on its own costs.

    Each pass keeps whole the interval that crosses ``cap`` on its own arc
    estimate, so the grid ends at or past ``cap`` unless a later, finer pass
    reads the arc up to that node lower by more than the margin of ``cap``
    over the arc wanted.  The pilot's arc at the grid's last node agrees with
    the grid's to better than 1e-8 relative (6.7e-9 at worst over seeded
    leaves of all four fields, k in [0.06, 300]), so ``trace_leaf`` asks for
    1e-6 past ``max_arc``; a grid that still falls short is not ``complete``
    and is placed again with a doubled cap.
    """
    complete = True
    for done in range(_PASSES):
        a = f.angle(nodes)
        dx, ds = f.integrals(nodes[:-1], nodes[1:])
        s = np.concatenate([[0.0], np.cumsum(ds)])
        n = int(np.searchsorted(s[:-1], cap))
        if n < len(ds):
            complete = False
            nodes, a, dx, ds, s = nodes[: n + 1], a[: n + 1], dx[:n], ds[:n], s[: n + 1]
        log_w = np.abs(np.diff(np.log(np.abs(f.speed(a)))))
        cost = ds / step + _turns(a) / _MAX_TURN + log_w / _MAX_LOG_W
        if done == _PASSES - 1 or (done and cost.max(initial=0.0) <= 1.0):
            break
        total = np.concatenate([[0.0], np.cumsum(cost)])
        nodes = np.interp(np.linspace(0.0, total[-1], math.ceil(total[-1] / _FILL) + 1), total, nodes)
    return _Grid(nodes, np.concatenate([[0.0], np.cumsum(dx)]), s, complete)


def _arc_point(f: _LeafField, grid: _Grid, target: float) -> tuple[float, float]:
    """(C, x) where the grid's leaf reaches arc ``target`` <= its end."""
    i = min(int(np.searchsorted(grid.s, target, side="right")) - 1, len(grid.s) - 2)
    lo, hi = grid.c[i], grid.c[i + 1]
    if grid.s[i] == target:
        return float(lo), float(grid.x[i])
    sign = math.copysign(1.0, hi - lo)
    c = lo + (hi - lo) * (target - grid.s[i]) / (grid.s[i + 1] - grid.s[i])
    for _ in range(4):  # Newton on arc(c), whose slope is 1/|w|
        _, ds = f.integrals(np.array([lo]), np.array([c]))
        c -= sign * (grid.s[i] + ds[0] - target) * abs(f.speed(f.angle(c)))
        c = min(max(c, min(lo, hi)), max(lo, hi))
    dx, _ = f.integrals(np.array([lo]), np.array([c]))
    return float(c), float(grid.x[i] + dx[0])


def _tile(f: _LeafField, grid: _Grid, max_arc: float, sigma: float,
          periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (C, x) up to arc max_arc, repeating the grid's period if ``periodic``."""
    reps = int(max_arc // grid.s[-1]) if periodic and grid.complete else 0
    rem = max_arc - reps * grid.s[-1]
    shift = np.arange(reps)[:, None]
    cs = [(grid.c[:-1] + sigma * shift).ravel()]
    xs = [(grid.x[:-1] + grid.x[-1] * shift).ravel()]
    part = grid.s < rem
    end_c, end_x = _arc_point(f, grid, rem)
    cs += [grid.c[part] + sigma * reps, [end_c + sigma * reps]]
    xs += [grid.x[part] + grid.x[-1] * reps, [end_x + grid.x[-1] * reps]]
    return np.concatenate(cs), np.concatenate(xs)


def _tail(f: _LeafField, grid: _Grid, step: float, max_arc: float, sigma: float,
          zero: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (C, x) of the exponential approach to the closed leaf c = base + zero."""
    c1, x1, s1 = grid.c[-1], grid.x[-1], grid.s[-1]
    e1 = abs(zero - c1)
    a = f.angle(c1)
    w = f.speed(a)
    rate = abs(w) / e1
    # Direction of travel along the closed leaf: the sign of the tangent's
    # component along (1, 0) forward, (1, 1) backward.
    along = math.copysign(1.0, sigma * w * (math.cos(a) + (0.0 if f.forward else math.sin(a))))
    n = math.ceil((max_arc - s1) / step)
    t = (max_arc - s1) * np.arange(1, n + 1) / n
    c = zero - sigma * e1 * np.exp(-rate * t)
    if f.forward:
        x = x1 + along * t
    else:  # dx/ds = (along sqrt(2 - w^2) - w) / 2, and w^2 < 1e-12 here
        x = x1 + along * t / math.sqrt(2.0) - 0.5 * (c - c1)
    return np.concatenate([grid.c, c]), np.concatenate([grid.x, x])


def _closed_trace(field_id: str, start: TorusPoint, step: float, max_arc: float,
                  along: float) -> Leaf:
    """The closed leaf through ``start``, one period or max_arc long."""
    period = 1.0 if field_id == "F1" else math.sqrt(2.0)
    arc = min(max_arc, period)
    n = math.ceil(arc / step)
    t = along * np.linspace(0.0, arc, n + 1) / period
    rise = 0.0 if field_id == "F1" else 1.0
    lifted = np.column_stack([start.x + t, start.y + rise * t])
    return _make_leaf(field_id, lifted, arc, closed=arc == period)


def _make_leaf(field_id: str, lifted: np.ndarray, arc: float, closed: bool) -> Leaf:
    """Leaf of a lifted polyline, with its torus points in [0, 1)."""
    return Leaf(field_id=field_id, points=mod1(lifted), lifted=lifted, arc_length=arc, closed=closed)


def trace_leaf(
    field_id: str,
    start: TorusPoint,
    params: MapParams,
    step: float = 1e-3,
    max_arc: float = 10.0,
    initial_direction: tuple[float, float] | None = None,
) -> Leaf:
    """Trace one leaf from a starting point over arc length ``max_arc``.

    The leaf is oriented by ``initial_direction`` when given (the tangent
    has a non-negative inner product with it), otherwise so that x does not
    decrease at the start.  ``step`` is the largest spacing between
    consecutive vertices; vertices are also at most about 0.01 rad apart in
    tangent angle.  The trace ends at arc ``max_arc`` exactly, unless it
    starts on a closed leaf (within 1e-10 of its level); it is then that
    leaf, one period long when max_arc allows, and ``closed``.
    """
    if field_id not in LEAF_FIELDS:
        raise ParameterError("field_id", f"must be one of {LEAF_FIELDS}, got {field_id!r}")
    for name, value in (("step", step), ("max_arc", max_arc)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(name, f"must be positive and finite, got {value!r}")
    # A leaf keeps a vertex about every step of arc, and at least one per turn
    # around the torus, a turn being at least 1 long.
    if max_arc / min(step, 1.0) > MAX_VERTICES:
        raise ParameterError("max_arc", f"must be at most {MAX_VERTICES} vertices * min(step, 1) = "
                                        f"{MAX_VERTICES * min(step, 1.0):g}, got {max_arc!r}")

    forward = field_id in ("E1", "F1")
    c0 = start.y if forward else start.y - start.x
    f = _LeafField(forward, field_id[0] == "F", params, c0 - math.floor(c0))
    a0 = f.angle(0.0)
    tx, ty = math.cos(a0), math.sin(a0)
    if initial_direction is not None:
        orient = -1.0 if tx * initial_direction[0] + ty * initial_direction[1] < 0.0 else 1.0
    else:
        orient = -1.0 if tx < 0.0 or (tx == 0.0 and ty < 0.0) else 1.0

    delta_star = critical_constants(params).delta_star if field_id in ("F1", "E-1") else None
    if delta_star is None:
        ahead = behind = None
        sigma = math.copysign(1.0, orient * f.speed(a0))
        length = 1.0
    else:
        zeros = (delta_star, 1.0 - delta_star)
        up = min((z - f.base) % 1.0 for z in zeros)
        down = min((f.base - z) % 1.0 for z in zeros)
        if min(up, down) <= _JOIN:
            along = orient * (tx + (0.0 if forward else ty))
            return _closed_trace(field_id, start, step, max_arc, math.copysign(1.0, along))
        sigma = math.copysign(1.0, orient * f.speed(a0))
        ahead, behind = (up, down) if sigma > 0.0 else (down, up)
        length = ahead - _JOIN

    nodes = _pilot(f, length, sigma, ahead, behind)
    cap = (1.0 + 1e-6) * max_arc
    grid = _fine_grid(f, nodes, step, cap)
    # Short only if a finer pass read the arc lower than the pass that cut the grid.
    while not grid.complete and grid.s[-1] < max_arc:
        cap *= 2.0
        grid = _fine_grid(f, nodes, step, cap)

    if ahead is None or grid.s[-1] >= max_arc:
        c, x = _tile(f, grid, max_arc, sigma, periodic=ahead is None)
    else:
        c, x = _tail(f, grid, step, max_arc, sigma, sigma * ahead)
    lx = start.x + x
    ly = start.y + c + (0.0 if forward else x)
    return _make_leaf(field_id, np.column_stack([lx, ly]), max_arc, closed=False)


def fold_tips(params: MapParams) -> tuple[float, float]:
    """Heights of the two horizontal lines carrying the E1 fold tips.

    These are the zeros of phi, where the contracted forward direction is
    vertical: y = delta^* and y = 1 - delta^*.
    """
    c = critical_constants(params)
    if c.delta_star is None:
        raise ParameterError("k", f"{params.k:g}: delta^* is undefined below k = 1/(4 pi)")
    return (c.delta_star, 1.0 - c.delta_star)


def closed_leaves(field_id: str, params: MapParams) -> list[Leaf]:
    """The exact closed leaves of a foliation, as analytic two-vertex leaves.

    F1 has the horizontal lines through the fold tips; E-1 has the two
    diagonals ytilde = delta^* and 1 - delta^*.  E1 and F-1 have none, nor
    have F1 and E-1 where delta^* is undefined (k < 1/(4 pi)).
    """
    if field_id not in LEAF_FIELDS:
        raise ParameterError("field_id", f"must be one of {LEAF_FIELDS}, got {field_id!r}")
    delta_star = critical_constants(params).delta_star if field_id in ("F1", "E-1") else None
    if delta_star is None:
        return []
    # One period from x = 0 in one step: a step and arc of 2 exceed either period.
    return [_closed_trace(field_id, TorusPoint(0.0, level), 2.0, 2.0, 1.0)
            for level in (delta_star, 1.0 - delta_star)]
