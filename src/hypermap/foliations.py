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
equidistributes the cost that a coarser pilot grid measures from the field
at its nodes alone, up to a margin past ``max_arc`` (C. de Boor, 1974), and
its nodes are the output vertices; so consecutive vertices are at
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
#: The pilot pass ends where its trapezoid arc reaches _CUT times the cap.
#: That arc errs by ~1e-3 at most: (r - 1)(1 + 1/r) / (2 ln r) - 1 = 4.1e-4 a
#: step of the geometric approach to a zero of w (r = _PILOT_RATIO), 5.3e-4 at
#: worst over seeded leaves (k in [0.06, 300]).  Ten times that keeps the grid
#: past the cap; a grid that a later pass still finds short takes in the rest
#: of the pilot (``_fine_grid``).
_CUT = 1.01
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

    ``lifted`` holds the (n, 2) unwrapped plane copy, and ``points`` the
    torus coordinates in [0, 1)^2 derived from it.  ``segments()`` cuts
    ``lifted`` at the torus seams into one array of points in the unit
    square plus the offset at which each piece starts, and returns the
    pieces as views of that array.
    """

    field_id: str
    lifted: np.ndarray
    arc_length: float
    closed: bool

    @property
    def points(self) -> np.ndarray:
        """``mod1`` of ``lifted``, computed on each access."""
        return mod1(self.lifted)

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

    Each vertex is drawn in the unit square at the integer offset o = floor(p)
    from the plane, except on a side: per axis, a chord moving up onto a side
    ends in the square below it, and a chord that does not move keeps o, so a
    vertex lying on a side stays in its square; a first vertex on a side goes
    with the square its outgoing chord enters.  A chord crosses |o_new - o_old|
    sides of an axis, and only the chords that cross are visited.  Crossings
    are taken in order of (chord, t, axis): at each, the current piece ends on
    the side, at p + t (q - p) - o with o the offset after the chord's earlier
    crossings, and the next piece starts on the opposite side.  The side
    coordinate is set to exactly 1 or 0, as interpolation could round past it.
    Between crossing chords the pieces are slices of lifted - o.
    """
    n = len(lifted)
    offset = np.floor(lifted)
    if n > 1 and (lifted[0] == offset[0]).any():  # a first vertex on a side it leaves down or left
        offset[0] -= (lifted[0] == offset[0]) & (lifted[1] < lifted[0])
    if (lifted[1:] == offset[1:]).any():  # the side rule moves only vertices after the first on a side
        for v, o in zip(lifted.T, offset.T):
            on = np.flatnonzero(v[1:] == o[1:]) + 1
            before = v[on - 1]
            # A run of equal values is consecutive in ``on`` and takes the offset of the vertex it starts at.
            last = np.maximum.accumulate(np.where(v[on] != before, np.arange(len(on)), -1))
            o[on] = np.where(last >= 0, np.where(v[on] > before, o[on] - 1.0, o[on])[last], o[0])
    new, old = offset[1:].ravel(), offset[:-1].ravel()
    pair = np.flatnonzero(new != old)  # 2 chord + axis, for each axis a chord crosses on
    if len(pair) == 0:
        return lifted - offset, np.zeros(min(n, 1), dtype=np.intp)

    # One entry per side crossed, chord by chord and axis by axis.
    crossed = new[pair] - old[pair]
    count = np.abs(crossed).astype(np.intp)
    which = np.repeat(np.arange(len(pair)), count)
    chord, axis = np.divmod(pair[which], 2)
    nth = np.arange(len(which)) - np.repeat(np.cumsum(count) - count, count)
    sign = np.sign(crossed)[which]
    old = old[pair][which]
    side = np.where(sign > 0, old + 1.0 + nth, old - nth)
    a = lifted[:-1].ravel()[pair][which]
    t = (side - a) / (lifted[1:].ravel()[pair][which] - a)

    # Events in drawing order; the offset at each is the start's plus all earlier moves.
    order = np.lexsort((axis, t, chord))
    chord, axis, sign, t = chord[order], axis[order], sign[order], t[order]
    events = np.arange(len(t))
    moves = np.zeros((len(t), 2))
    moves[events, axis] = sign
    p, q = lifted[chord], lifted[chord + 1]
    seam = p + t[:, None] * (q - p) - (offset[0] + np.cumsum(moves, axis=0) - moves)
    # Each event puts two points, the end of one piece and the start of the next, before its chord's end.
    ends = chord + 1 + 2 * events
    out = np.empty((n + 2 * len(t), 2))
    seam[events, axis] = np.where(sign > 0, 1.0, 0.0)
    out[ends] = seam
    seam[events, axis] = np.where(sign > 0, 0.0, 1.0)
    out[ends + 1] = seam
    lo = 0  # the vertices up to each crossing chord's end go after the points of all earlier events
    for e, c in enumerate([*chord.tolist(), n - 1]):
        if c >= lo:
            np.subtract(lifted[lo:c + 1], offset[lo:c + 1], out=out[lo + 2 * e:c + 1 + 2 * e])
            lo = c + 1
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
    and behind the start, when the field has zeros.  The nodes approach them
    geometrically, at ratio _PILOT_RATIO from _JOIN.  Without zeros, F1 and
    E-1 (below k = 1/(4 pi)) take such nodes on both sides of c = 1/2, where
    |w| has a shallow minimum and the trapezoid rule would read its peak of
    1/|w| from the uniform nodes alone.
    """
    # np.linspace's and np.geomspace's nodes, bit for bit: start + i * (span / intervals), the ends exact.
    n = math.ceil(length * _PILOT_PER_UNIT)
    amp = TWO_PI * f.params.k
    top = math.asinh(amp)
    m = math.ceil(2.0 * top / _PILOT_XI)
    levels = np.sinh(np.append(np.arange(m) * (2.0 * top / m) - top, top))
    v = psi_inverse(np.clip(levels, -amp, amp), f.params)
    first = (sigma * (np.concatenate([v, 1.0 - v]) - f.base)) % 1.0
    parts = [np.arange(n) * (length / n), [length], (first[:, None] + np.arange(math.ceil(length) + 1)).ravel()]
    if ahead is not None and behind is not None:
        spans = [(_JOIN, ahead, -1.0, ahead), (behind, behind + length, 1.0, -behind)]
    elif f.forward == f.perp:  # F1 or E-1: around c = 1/2, and its copy a period behind or ahead
        half = (sigma * (0.5 - f.base)) % 1.0
        spans = [(_JOIN, 0.5, sign, at) for sign in (-1.0, 1.0) for at in (half, half - sign)]
    else:
        spans = []
    for lo, hi, sign, shift in spans:
        n = math.ceil(math.log(hi / lo) / math.log(_PILOT_RATIO))
        log_lo, log_hi = np.log10([lo, hi])
        nodes = np.append(10.0 ** (np.arange(1, n) * ((log_hi - log_lo) / n) + log_lo), [lo, hi])
        parts.append(sign * nodes + shift)
    d = np.concatenate(parts)
    d = np.sort(d[(d >= 0.0) & (d <= length)])
    return sigma * d[np.append(True, d[1:] != d[:-1])]


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


def _fine_grid(f: _LeafField, pilot: np.ndarray, step: float, cap: float) -> _Grid:
    """Nodes equidistributed on the cost ``pilot`` measures, dropping those past arc ``cap``.

    The cost of an interval is arc / step + turn / _MAX_TURN + (change of
    ln|w|) / _MAX_LOG_W, summed as fractions of one allowance.  The first
    pass reads the ``pilot``'s arc by the trapezoid rule on 1/|w|, ends the
    interval crossing _CUT * cap where that arc, linear in C, reaches it,
    and places ceil(total / _FILL) intervals at equal steps of the pilot's
    cost, interpolated linearly; each later pass measures the grid by the
    3-point rule and stops once every interval costs at most 1, or places
    the nodes anew on its own costs.

    Each later pass keeps whole the interval that crosses ``cap`` on its own
    arc estimate, and two such passes agree on the arc to better than 1e-8
    relative (6.7e-9 at worst over seeded leaves of all four fields, k in
    [0.06, 300]), so ``trace_leaf`` asks for 1e-6 past ``max_arc``.  A later
    pass that finds a cut grid short of ``cap`` (the pilot's arc, good to
    ~1e-3, read high by more than _CUT allows) appends the pilot nodes past
    the grid's last node and measures them before it cuts.  So the grid is
    ``complete``, spanning ``pilot``, or reaches ``cap``.
    """
    nodes, complete = pilot, True
    for done in range(_PASSES):
        a = f.angle(nodes)
        w = np.abs(f.speed(a))
        if done:
            dx, ds = f.integrals(nodes[:-1], nodes[1:])
        else:  # the pilot: the trapezoid rule on 1/|w| at the nodes
            ds = 0.5 * np.abs(np.diff(nodes)) * (1.0 / w[:-1] + 1.0 / w[1:])
        s = np.concatenate([[0.0], np.cumsum(ds)])
        if done and not complete and s[-1] < cap:  # cut short of ``cap``: take in the rest of the pilot
            nodes, complete = np.append(nodes, pilot[np.abs(pilot) > abs(nodes[-1])]), True
            a = f.angle(nodes)
            w = np.abs(f.speed(a))
            dx, ds = f.integrals(nodes[:-1], nodes[1:])
            s = np.concatenate([[0.0], np.cumsum(ds)])
        end = cap if done else _CUT * cap
        n = int(np.searchsorted(s[:-1], end))
        if n < len(ds):
            complete = False
            nodes, a, w, ds, s = nodes[: n + 1], a[: n + 1], w[: n + 1], ds[:n], s[: n + 1]
            if not done:  # end the crossing interval where its arc, linear in C, reaches ``end``
                nodes = np.append(nodes[:n], nodes[n - 1] + (nodes[n] - nodes[n - 1]) * (end - s[n - 1]) / ds[n - 1])
                a[n:] = f.angle(nodes[n:])
                w[n:] = np.abs(f.speed(a[n:]))
                ds[n - 1] = end - s[n - 1]
        log_w = np.abs(np.diff(np.log(w)))
        cost = ds / step + _turns(a) / _MAX_TURN + log_w / _MAX_LOG_W
        if done == _PASSES - 1 or (done and cost.max(initial=0.0) <= 1.0):
            break
        total = np.concatenate([[0.0], np.cumsum(cost)])
        nodes = np.interp(np.linspace(0.0, total[-1], math.ceil(total[-1] / _FILL) + 1), total, nodes)
    return _Grid(nodes, np.concatenate([[0.0], np.cumsum(dx[: len(ds)])]), s, complete)


def _arc_point(f: _LeafField, grid: _Grid, target: float) -> tuple[float, float]:
    """(C, x) where the grid's leaf reaches arc ``target`` <= its end."""
    i = min(int(np.searchsorted(grid.s, target, side="right")) - 1, len(grid.s) - 2)
    lo, hi = grid.c[i], grid.c[i + 1]
    if grid.s[i] == target:
        return float(lo), float(grid.x[i])
    sign = math.copysign(1.0, hi - lo)
    c = lo + (hi - lo) * (target - grid.s[i]) / (grid.s[i + 1] - grid.s[i])
    for _ in range(4):  # Newton on arc(c), whose slope is 1/|w|; a step depends on c alone, so a repeat is final
        dx, ds = f.integrals(np.array([lo]), np.array([c]))
        nxt = c - sign * (grid.s[i] + ds[0] - target) * abs(f.speed(f.angle(c)))
        nxt = min(max(nxt, min(lo, hi)), max(lo, hi))
        if nxt == c and math.copysign(1.0, nxt) == math.copysign(1.0, c):  # the same bits, -0.0 apart from 0.0
            break
        c = nxt
    else:
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
    return Leaf(field_id, lifted, arc, closed=arc == period)


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

    grid = _fine_grid(f, _pilot(f, length, sigma, ahead, behind), step, (1.0 + 1e-6) * max_arc)

    if ahead is None or grid.s[-1] >= max_arc:
        c, x = _tile(f, grid, max_arc, sigma, periodic=ahead is None)
    else:
        c, x = _tail(f, grid, step, max_arc, sigma, sigma * ahead)
    lx = start.x + x
    ly = start.y + c + (0.0 if forward else x)
    return Leaf(field_id, np.column_stack([lx, ly]), max_arc, closed=False)


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
