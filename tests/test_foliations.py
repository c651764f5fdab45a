"""Tests for leaf tracing, closed leaves and fold tips."""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from mpmath import mp

from hypermap import foliations
from hypermap.cli import run
from hypermap.coordinates import critical_constants, phi, theta_field
from hypermap.foliations import LEAF_FIELDS, closed_leaves, trace_leaf
from hypermap.oracle import svd2
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi, jacobian


def dist_mod1(a: np.ndarray, b: float) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def winding(leaf) -> tuple[int, int]:
    """Integer torus winding of a leaf: its lifted travel, rounded."""
    dx, dy = leaf.lifted[-1] - leaf.lifted[0]
    return round(dx), round(dy)


#: Working digits of the leaf oracle.
ORACLE_DIGITS = 20


def oracle_field(field_id: str, k: float):
    """The leaf ODE of ``field_id`` in mpmath: c -> (dx/dc, ds/dc, w).

    c is y forward (E1, F1) and ytilde = y - x backward (E-1, F-1), and w =
    dc/ds along a unit tangent.  The tangent is the right-singular vector of
    Df = [[1, psi], [1, 1 + psi]] (forward) or Df^-1 = [[1 + psi, -psi], [-1, 1]]
    (backward), psi = 2 pi k cos(2 pi c), that the matrix contracts most (E)
    or expands most (F): an eigenvector of M^T M for its least or greatest
    eigenvalue.  No formula of the library enters.  Call it under
    ``mp.workdps``.
    """
    forward = field_id in ("E1", "F1")
    expanded = field_id[0] == "F"
    k = mp.mpf(k)

    def field(c):
        psi = 2 * mp.pi * k * mp.cospi(2 * c)
        a, b, cc, d = (1, psi, 1, 1 + psi) if forward else (1 + psi, -psi, -1, 1)
        p, q, r = a * a + cc * cc, a * b + cc * d, b * b + d * d
        most = (p + r) / 2 + mp.hypot((p - r) / 2, q)
        lam = most if expanded else (a * d - b * cc) ** 2 / most  # the eigenvalues multiply to det(M)^2
        # Either row of (M^T M - lam) v = 0 gives v; the one of larger norm keeps its digits.
        u, v = max(((q, lam - p), (lam - r, q)), key=lambda e: abs(e[0]) + abs(e[1]))
        w = v if forward else v - u
        norm = mp.hypot(u, v)
        return u / w, norm / abs(w), w / norm

    return field


def quarter_breaks(lo, hi) -> list:
    """[lo, the quarter points c in 1/4 + Z/2 inside (lo, hi), hi]: the field
    turns fastest there, so ``mp.quad`` takes them as interval ends."""
    quarters = (mp.mpf(j) / 2 + mp.mpf(0.25) for j in range(math.floor(2 * lo - 0.5), math.ceil(2 * hi - 0.5) + 1))
    return [lo, *(q for q in quarters if lo < q < hi), hi]


def oracle_errors(leaf, k: float, every: int = 100) -> tuple[float, float]:
    """(worst normal distance, end-point error) of ``leaf`` against ``oracle_field``.

    x(c) = x0 + int dx/dc and s(c) = int ds/dc are taken with ``mp.quad``
    from checkpoint to checkpoint: every ``every``-th vertex, or every
    (n // 10)-th of a leaf of n vertices if that is more, and the last.  A
    checkpoint's normal distance from the true leaf is |x_i - x(c_i)|
    |w(c_i)|, as x moves at fixed c along (1, 0) forward and (1, 1)
    backward.  The end-point error is |s(c_end) - arc|.

    A leaf that ends within 1e-9 of a closed leaf (a zero of w, which the
    oracle finds from delta^*) is checked up to its last vertex at least
    1e-9 from it, where x at fixed c is still well conditioned.  The rest of
    its arc runs along the closed leaf, at speed 1 in x for F1 and 1/sqrt(2)
    for E-1, and the end-point error is the larger of the end's x error and
    its distance in c from the zero.
    """
    forward = leaf.field_id in ("E1", "F1")
    lx, ly = leaf.lifted.T
    cs = ly if forward else ly - lx
    last, zero = len(cs) - 1, None
    with mp.workdps(ORACLE_DIGITS):
        field = oracle_field(leaf.field_id, k)
        delta_star = critical_constants(MapParams(k)).delta_star if leaf.field_id in ("F1", "E-1") else None
        if delta_star is not None:
            guess = min((z + round(cs[-1] - z) for z in (delta_star, 1.0 - delta_star)), key=lambda z: abs(z - cs[-1]))
            zero = mp.findroot(lambda c: field(c)[2], mp.mpf(guess))
            far = np.flatnonzero(np.abs(cs - float(zero)) >= 1e-9)
            if far[-1] == last:
                zero = None
            else:
                last = int(far[-1])
        stride = max(every, len(cs) // 10)
        x, s, worst = mp.mpf(lx[0]), mp.mpf(0), 0.0
        prev = mp.mpf(cs[0])
        for i in [*range(stride, last, stride), last]:
            c = mp.mpf(cs[i])
            nodes = quarter_breaks(min(prev, c), max(prev, c))
            x += mp.sign(c - prev) * mp.quad(lambda t: field(t)[0], nodes)
            s += mp.quad(lambda t: field(t)[1], nodes)
            worst = max(worst, float(abs(lx[i] - x) * abs(field(c)[2])))
            prev = c
        if zero is None:
            return worst, float(abs(s - leaf.arc_length))
        along = math.copysign(1.0 if leaf.field_id == "F1" else math.sqrt(0.5), lx[-1] - lx[last])
        return worst, float(max(abs(lx[-1] - (x + along * (leaf.arc_length - s))), abs(cs[-1] - zero)))


def chord_excess(leaf, params: MapParams) -> float:
    """Largest angle of a chord to the svd2 field at its midpoint, beyond its tolerance.

    The field is the most contracted (E) or expanded (F) right-singular
    direction of the Jacobian.  The tolerance is the perfbench leaf gate's:
    a chord is the mean tangent along it, so it lies within twice the
    field's turn between its midpoint and either end, plus 1e-9 and what
    rounding of the coordinates allows.
    """
    time = "forward" if leaf.field_id in ("E1", "F1") else "backward"
    pts = leaf.lifted[:-1] if leaf.closed else leaf.lifted

    def direction(x: float, y: float) -> float:
        s = svd2(jacobian(TorusPoint(x % 1.0, y % 1.0), params, time))
        return (s.dir_min if leaf.field_id[0] == "E" else s.dir_max).theta

    ends = [direction(x, y) for x, y in pts]
    worst = -1.0
    for i in range(len(pts) - 1):
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        length = math.hypot(x1 - x0, y1 - y0)
        mid = direction(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        turn = max(angle_dist_mod_pi(ends[i], mid), angle_dist_mod_pi(ends[i + 1], mid))
        tol = 1e-9 + 2.0 * turn + 4e-16 * (1.0 / length + 8.0 * math.pi**2 * (params.k + 1.0))
        worst = max(worst, angle_dist_mod_pi(math.atan2(y1 - y0, x1 - x0), mid) - tol)
    return worst


def tip_heights(k: float) -> tuple[float, float]:
    """The heights y = delta^* and 1 - delta^* of the E1 fold tips, where phi vanishes."""
    ds = critical_constants(MapParams(k)).delta_star
    return ds, 1.0 - ds


class TestFoldTips:
    """The fold tips of E1 lie at y = delta^* and 1 - delta^*."""

    def test_values(self):
        lo, hi = tip_heights(5.0)
        assert lo == pytest.approx(math.acos(-1.0 / (20.0 * math.pi)) / (2.0 * math.pi), rel=1e-15)
        assert hi == 1 - lo
        assert abs(phi(lo, MapParams(5.0))) < 1e-12 and abs(phi(hi, MapParams(5.0))) < 1e-12

    def test_k1(self):
        lo, hi = tip_heights(1.0)
        assert lo == pytest.approx(0.2626786, abs=1e-6)
        assert hi == pytest.approx(1 - 0.2626786, abs=1e-6)

    def test_large_k_limit(self):
        lo, hi = tip_heights(10000.0)
        assert lo == pytest.approx(0.25, abs=1e-5)
        assert hi == pytest.approx(0.75, abs=1e-5)

    def test_vertical_field_there(self):
        p = MapParams(7.0)
        lo, _ = tip_heights(7.0)
        assert angle_dist_mod_pi(theta_field(lo, p).theta, math.pi / 2) < 1e-9


class TestClosedLeaves:
    def test_f1_horizontal_lines(self):
        p = MapParams(2.0)
        ds, mirror = tip_heights(2.0)
        leaves = closed_leaves("F1", p)
        assert len(leaves) == 2
        assert {leaf.lifted[0, 1] for leaf in leaves} == {ds, mirror}
        for leaf in leaves:
            assert leaf.closed
            assert leaf.arc_length == 1.0
            assert winding(leaf) == (1, 0)

    def test_e_minus1_diagonals(self):
        p = MapParams(2.0)
        ds = critical_constants(p).delta_star
        leaves = closed_leaves("E-1", p)
        assert len(leaves) == 2
        for leaf in leaves:
            assert leaf.closed
            assert leaf.arc_length == pytest.approx(math.sqrt(2.0))
            assert winding(leaf) == (1, 1)
            yt = (leaf.lifted[:, 1] - leaf.lifted[:, 0]) % 1.0
            assert dist_mod1(yt, ds).min() < 1e-12 or dist_mod1(yt, 1 - ds).min() < 1e-12

    def test_none_for_e1_and_f_minus1(self):
        p = MapParams(2.0)
        assert closed_leaves("E1", p) == []
        assert closed_leaves("F-1", p) == []
        # F1 and E-1 have none where delta^* is undefined, below k = 1/(4 pi).
        p = MapParams(0.05)
        for field_id in LEAF_FIELDS:
            assert closed_leaves(field_id, p) == []
        assert critical_constants(p).delta_star is None

    def test_diagonal_seam_split(self):
        p = MapParams(2.0)
        leaf = closed_leaves("E-1", p)[0]
        segs = leaf.segments()
        assert len(segs) == 2
        for seg in segs:
            assert np.all(seg >= -1e-12) and np.all(seg <= 1 + 1e-12)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            closed_leaves("X9", MapParams(1.0))

    def test_two_vertex_arrays(self):
        # The arrays closed_leaves built itself before it called the tracer.
        for k in (0.1, 0.6, 2.0, 100.0, 1e5):
            p = MapParams(k)
            for field_id, rise, arc in (("F1", 0.0, 1.0), ("E-1", 1.0, math.sqrt(2.0))):
                leaves = closed_leaves(field_id, p)
                assert len(leaves) == 2
                for leaf, level in zip(leaves, tip_heights(k)):
                    lifted = np.array([[0.0, level], [1.0, level + rise]])
                    points = lifted - np.floor(lifted)
                    points[points >= 1.0 - 1e-15] = 0.0
                    assert np.array_equal(leaf.lifted, lifted) and np.array_equal(leaf.points, points)
                    assert (leaf.field_id, leaf.arc_length, leaf.closed) == (field_id, arc, True)


def reference_pilot(f, length, sigma, ahead, behind):
    """foliations._pilot as written before psi_inverse: the asinh-spaced levels
    of psi_c divided by 2 pi k, clipped to [-1, 1], then arccos."""
    parts = [np.linspace(0.0, length, math.ceil(length * foliations._PILOT_PER_UNIT) + 1)]
    amp = 2 * math.pi * f.params.k
    top = math.asinh(amp)
    levels = np.sinh(np.linspace(-top, top, math.ceil(2.0 * top / foliations._PILOT_XI) + 1)) / amp
    v = np.arccos(np.clip(levels, -1.0, 1.0)) / (2 * math.pi)
    first = (sigma * (np.concatenate([v, 1.0 - v]) - f.base)) % 1.0
    parts.append((first[:, None] + np.arange(math.ceil(length) + 1)).ravel())
    join, ratio = foliations._JOIN, foliations._PILOT_RATIO
    if ahead is not None and behind is not None:
        n = math.ceil(math.log(ahead / join) / math.log(ratio)) + 1
        parts.append(ahead - np.geomspace(join, ahead, n))
        n = math.ceil(math.log((behind + length) / behind) / math.log(ratio)) + 1
        parts.append(np.geomspace(behind, behind + length, n) - behind)
    elif f.forward == f.perp:  # F1 and E-1: both sides of c = 1/2 and of its copies a period away
        half = (sigma * (0.5 - f.base)) % 1.0
        g = np.geomspace(join, 0.5, math.ceil(math.log(0.5 / join) / math.log(ratio)) + 1)
        parts += [half - g, half + 1.0 - g, half + g, half - 1.0 + g]
    d = np.concatenate(parts)
    return sigma * np.unique(d[(d >= 0.0) & (d <= length)])


class TestPilot:
    @pytest.mark.parametrize("k", [0.05, 0.6, 2.0, 100.0, 1e4])
    def test_nodes_bit_for_bit(self, k):
        p = MapParams(k)
        for forward, perp in ((True, False), (True, True), (False, False), (False, True)):
            for base in (0.0, 0.13, 0.6):
                f = foliations._LeafField(forward, perp, p, base)
                for sigma in (1.0, -1.0):
                    for length, ahead, behind in ((1.0, None, None), (0.3 - 1e-10, 0.3, 0.45)):
                        got = foliations._pilot(f, length, sigma, ahead, behind)
                        assert np.array_equal(got, reference_pilot(f, length, sigma, ahead, behind))


class TestTraceLeaf:
    def test_f1_stays_on_fold_line(self):
        p = MapParams(10.0)
        ds = critical_constants(p).delta_star
        leaf = trace_leaf("F1", TorusPoint(0.3, ds), p, step=1e-3, max_arc=10.0)
        assert leaf.closed
        assert np.abs(leaf.points[:, 1] - ds).max() < 1e-6

    def test_e_minus1_stays_on_diagonal(self):
        p = MapParams(10.0)
        ds = critical_constants(p).delta_star
        leaf = trace_leaf("E-1", TorusPoint(0.0, ds), p, step=1e-3, max_arc=10.0)
        assert leaf.closed
        yt = (leaf.points[:, 1] - leaf.points[:, 0]) % 1.0
        assert dist_mod1(yt, ds).max() < 1e-6

    def test_e1_band_slope(self):
        p = MapParams(10.0)
        leaf = trace_leaf("E1", TorusPoint(0.0, 0.6), p, step=1e-3, max_arc=3.0)
        band = leaf.points[(leaf.points[:, 1] >= 0.55) & (leaf.points[:, 1] <= 0.65)]
        assert len(band) > 100
        for _, y in band:
            t = theta_field(y, p).theta
            assert abs(math.sin(t) / math.cos(t)) < 0.1

    def test_closed_leaf_endpoints_coincide(self):
        p = MapParams(10.0)
        ds = critical_constants(p).delta_star
        leaf = trace_leaf("F1", TorusPoint(0.3, ds), p, step=1e-3, max_arc=10.0)
        assert leaf.closed
        dx = dist_mod1(np.array([leaf.points[-1, 0]]), leaf.points[0, 0])[0]
        dy = dist_mod1(np.array([leaf.points[-1, 1]]), leaf.points[0, 1])[0]
        assert math.hypot(dx, dy) < 1e-6

    def test_vertex_spacing_bound(self):
        p = MapParams(3.0)
        leaf = trace_leaf("F1", TorusPoint(0.1, 0.6), p, step=1e-3, max_arc=2.0)
        gaps = np.hypot(*(np.diff(leaf.lifted, axis=0).T))
        assert gaps.max() < 2e-3

    def test_orthogonality_of_pictures(self):
        p = MapParams(4.0)
        leaf = trace_leaf("E1", TorusPoint(0.2, 0.4), p, step=1e-3, max_arc=1.0)
        for x, y in leaf.points[:: max(1, len(leaf.points) // 50)]:
            e = theta_field(y, p).theta
            f = e + 0.5 * math.pi  # F1 is E1 turned by pi/2
            assert abs(math.cos(e) * math.cos(f) + math.sin(e) * math.sin(f)) < 1e-9

    def test_accumulation_on_closed_leaves(self):
        p = MapParams(10.0)
        ds = critical_constants(p).delta_star
        leaf = trace_leaf("F1", TorusPoint(0.0, 0.501), p, step=1e-3, max_arc=50.0)
        tail = leaf.points[int(0.9 * len(leaf.points)):, 1]
        close = np.minimum(dist_mod1(tail, ds), dist_mod1(tail, 1 - ds))
        assert close.max() < 5e-2

    def test_retraceability(self):
        p = MapParams(3.0)
        fwd = trace_leaf("E1", TorusPoint(0.1, 0.6), p, step=1e-3, max_arc=2.0)
        end = TorusPoint(*fwd.points[-1].tolist())
        # reverse orientation: seed with the negated final tangent
        tangent = fwd.lifted[-1] - fwd.lifted[-2]
        back = trace_leaf(
            "E1", end, p, step=1e-3, max_arc=2.0,
            initial_direction=(-tangent[0], -tangent[1]),
        )
        # every 100th original vertex must be near some reversed vertex
        for x, y in fwd.points[::100]:
            dx = dist_mod1(back.points[:, 0], x)
            dy = dist_mod1(back.points[:, 1], y)
            assert np.hypot(dx, dy).min() < 2e-3

    def test_argument_validation(self):
        p = MapParams(1.0)
        with pytest.raises(ValueError):
            trace_leaf("Q7", TorusPoint(0, 0), p)
        with pytest.raises(ValueError):
            trace_leaf("E1", TorusPoint(0, 0), p, step=0.0)
        with pytest.raises(ValueError):
            trace_leaf("E1", TorusPoint(0, 0), p, max_arc=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="max_arc"):
                trace_leaf("E1", TorusPoint(0, 0), p, max_arc=bad)
            with pytest.raises(ValueError, match="step"):
                trace_leaf("E1", TorusPoint(0, 0), p, step=bad)
        with pytest.raises(ValueError, match="vertices"):
            trace_leaf("E1", TorusPoint(0, 0), p, step=1e-9, max_arc=1e3)
        with pytest.raises(ValueError, match="vertices"):  # at least one vertex per turn
            trace_leaf("E1", TorusPoint(0, 0), p, step=1e300, max_arc=1e300)
        # A non-finite start is refused when its TorusPoint is built.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                trace_leaf("E1", TorusPoint(bad, 0.5), p)
            with pytest.raises(ValueError, match="y must be finite"):
                trace_leaf("E1", TorusPoint(0.5, bad), p)

    @pytest.mark.parametrize("k", [2.3, 13.3, 100.0])
    def test_f_minus1_leaves_do_not_close(self, k):
        # F-1 has no closed leaves; a closure heuristic once stopped this
        # leaf after one (1, -1) winding, at arc ~sqrt(2).
        start = TorusPoint(0.8444218515250481, 0.7579544029403025)
        leaf = trace_leaf("F-1", start, MapParams(k), max_arc=2.5)
        assert not leaf.closed
        assert leaf.arc_length == 2.5
        assert winding(leaf) != (0, 0)

    def test_closed_leaf_shorter_than_its_period(self):
        p = MapParams(10.0)
        ds = critical_constants(p).delta_star
        leaf = trace_leaf("F1", TorusPoint(0.3, ds), p, max_arc=0.25)
        assert not leaf.closed and leaf.arc_length == 0.25
        assert leaf.lifted[-1, 0] == pytest.approx(0.55, abs=1e-15)

    def test_orientation_seed_nonnegative_x(self):
        p = MapParams(5.0)
        leaf = trace_leaf("E1", TorusPoint(0.0, 0.6), p, step=1e-3, max_arc=0.1)
        assert leaf.lifted[1, 0] > leaf.lifted[0, 0]

    def test_seam_segments_stay_in_unit_square(self):
        leaves = [
            trace_leaf("E1", TorusPoint(0.95, 0.6), MapParams(5.0), step=1e-3, max_arc=0.5),
            # Interpolating this leaf's seam points once gave -1.36e-20.
            trace_leaf("F-1", TorusPoint(0.8444218515250481, 0.7579544029403025),
                       MapParams(13.3), max_arc=2.5),
            # Starts on the bottom side and leaves through it.
            trace_leaf("F-1", TorusPoint(0.125, 0.0), MapParams(1.0), max_arc=1.0),
        ]
        for leaf in leaves:
            for seg in leaf.segments():
                assert np.all(seg >= 0.0) and np.all(seg <= 1.0)
        assert len(leaves[0].segments()) >= 2 and len(leaves[1].segments()) >= 2
        # The third stays in the square below its start, from that square's top side on.
        segs = leaves[2].segments()
        assert len(segs) == 1 and segs[0][0].tolist() == [0.125, 1.0]

    def test_first_piece_starts_where_the_leaf_leaves_its_side(self):
        # A leaf that starts on a seam and leaves it downward (y) or leftward
        # (x) starts in the square its first chord enters, on that square's
        # top or right side, with no zero-length piece before it.
        for start, direction, first in ((TorusPoint(0.0, 0.0), None, [0.0, 1.0]),
                                        (TorusPoint(0.0, 0.6), (-1.0, 0.0), [1.0, 0.6])):
            leaf = trace_leaf("E1", start, MapParams(1.0), step=0.3, initial_direction=direction)
            segs = leaf.segments()
            assert segs[0][0].tolist() == first
            assert min(np.hypot(*np.diff(seg, axis=0).T).sum() for seg in segs) > 0.0

    def test_csv_rows_shape(self):
        p = MapParams(5.0)
        leaf = trace_leaf("E1", TorusPoint(0.95, 0.6), p, step=1e-2, max_arc=0.3)
        out = io.StringIO()
        with redirect_stdout(out):
            run(["leaf", "--k", "5", "--x", "0.95", "--y", "0.6", "--step", "1e-2", "--max-arc", "0.3"])
        lines = out.getvalue().splitlines()
        assert lines[1] == "seg_id,x,y"
        seg_ids = [int(line.split(",")[0]) for line in lines[2:]]
        assert len(seg_ids) == len(leaf.points) + 2 * (len(leaf.segments()) - 1)
        assert seg_ids == sorted(seg_ids) and set(seg_ids) == set(range(len(leaf.segments())))


#: Fields and k for the comparison with the leaf oracle; delta^* is undefined
#: at k = 0.05, where F1 and E-1 have no closed leaves.
RK4_CASES = [(f, k) for f in ("E1", "F1", "E-1", "F-1") for k in (0.6, 2.0, 10.0, 30.0, 100.0)]
RK4_CASES += [("F1", 0.05), ("E-1", 0.05)]


class TestAgainstRk4:
    """Leaves at the default step against the mpmath leaf oracle.

    Named for the RK4 tracer these leaves were first compared with; the name
    keeps the test ids.
    """

    @pytest.mark.parametrize("field_id,k", RK4_CASES)
    def test_matches_oracle(self, field_id, k):
        p = MapParams(k)
        # c = 0.37: F1 leaves from k = 2 on reach a closed leaf within the arc.
        start = TorusPoint(0.3, 0.37) if field_id in ("E1", "F1") else TorusPoint(0.3, 0.67)
        step = 1e-3
        leaf = trace_leaf(field_id, start, p, step=step, max_arc=0.5)
        assert leaf.arc_length == 0.5 and not leaf.closed
        # Worst over these cases: normal 8.4e-13 (F-1, k = 30), end 1.0e-11 (F1, k = 0.6).
        normal, end = oracle_errors(leaf, k)
        assert normal < 1e-11
        assert end < 1e-9
        chords = np.diff(leaf.lifted, axis=0)
        assert np.hypot(*chords.T).max() <= step
        turn = np.diff(np.arctan2(chords[:, 1], chords[:, 0]))
        assert np.abs((turn + math.pi) % (2.0 * math.pi) - math.pi).max() <= 0.01
        assert chord_excess(leaf, p) <= 0.0

    @pytest.mark.parametrize("field_id", ["F1", "E-1"])
    @pytest.mark.parametrize("k", [2.0, 100.0])
    @pytest.mark.parametrize("offset", [1e-3, -1e-3])
    def test_chords_follow_field_on_tail(self, field_id, k, offset):
        # Started 1e-3 from the closed leaf c = delta^*, the leaf reaches it
        # within arc ~0.2 and then follows the analytic tail.
        p = MapParams(k)
        ds = critical_constants(p).delta_star
        c = ds + offset
        start = TorusPoint(0.1, c) if field_id == "F1" else TorusPoint(0.1, (0.1 + c) % 1.0)
        leaf = trace_leaf(field_id, start, p, step=1e-3, max_arc=1.0)
        end = leaf.points[-1]
        assert dist_mod1(np.array([end[1] - (0.0 if field_id == "F1" else end[0])]), ds)[0] < 1e-12
        assert chord_excess(leaf, p) <= 0.0
        assert np.hypot(*np.diff(leaf.lifted, axis=0).T).max() <= 1e-3


FINE_GRID = foliations._fine_grid
TURNS = foliations._turns


def spy_fine_grid(monkeypatch) -> list:
    """Record (field, pilot nodes, cap, grid) of every ``_fine_grid`` call made
    by ``trace_leaf``."""
    calls = []

    def spy(f, nodes, step, cap):
        grid = FINE_GRID(f, nodes, step, cap)
        calls.append((f, nodes, cap, grid))
        return grid

    monkeypatch.setattr(foliations, "_fine_grid", spy)
    return calls


def seeded_leaves(seed: int, fields, n: int, k_range=(0.06, 300.0)):
    """n (field, start, params) per field, k log-uniform on ``k_range``."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(k_range[0]), math.log(k_range[1])
    for field_id in fields:
        for _ in range(n):
            k = math.exp(rng.uniform(lo, hi))
            yield field_id, TorusPoint(rng.random(), rng.random()), MapParams(k)


INTEGRALS = foliations._LeafField.integrals


def spy_integrals(monkeypatch) -> list:
    """Record (intervals, arc) of every ``_LeafField.integrals`` call over more
    than one interval: the grids each pass measures."""
    calls = []

    def spy(f, lo, hi):
        dx, ds = INTEGRALS(f, lo, hi)
        if len(lo) > 1:
            calls.append((len(lo), ds.sum()))
        return dx, ds

    monkeypatch.setattr(foliations._LeafField, "integrals", spy)
    return calls


class TestLeafOracle:
    """What the mpmath leaf oracle sees beyond the default-step cases."""

    def test_sees_an_error_in_the_field_angle(self, monkeypatch):
        # The oracle shares no formula with the library, so a 1e-9 rad error
        # in the field angle moves the leaf off its true course (~5e-10 in
        # normal distance here).
        forward, backward = foliations.forward_angle, foliations.backward_angle
        monkeypatch.setattr(foliations, "forward_angle", lambda c, p: forward(c, p) + 1e-9)
        monkeypatch.setattr(foliations, "backward_angle", lambda c, p: backward(c, p) + 1e-9)
        for field_id, start in (("E1", TorusPoint(0.3, 0.37)), ("E-1", TorusPoint(0.3, 0.67))):
            leaf = trace_leaf(field_id, start, MapParams(10.0), max_arc=0.5)
            assert oracle_errors(leaf, 10.0)[0] > 1e-10

    def test_leaves_just_below_one_over_4pi_stay_on_the_leaf(self, monkeypatch):
        # Within 0.1 % below k = 1/(4 pi), |w| of F1 and E-1 has a shallow
        # minimum at c = 1/2, which the pilot approaches geometrically.  Each
        # leaf takes one grid, with 583-596 vertices here; three of these six
        # took a second grid with a doubled cap before, one with 759 vertices.
        calls = spy_fine_grid(monkeypatch)
        rng = np.random.default_rng(41)
        step, max_arc = 1e-3, 0.5
        for field_id in ("F1", "E-1"):
            for _ in range(3):
                k = (1.0 - 10.0 ** -rng.uniform(3.0, 9.0)) / (4.0 * math.pi)
                x, c = rng.random(), rng.uniform(0.45, 0.55)
                start = TorusPoint(x, c if field_id == "F1" else (c + x) % 1.0)
                calls.clear()
                leaf = trace_leaf(field_id, start, MapParams(k), step=step, max_arc=max_arc)
                assert len(calls) == 1
                assert len(leaf.lifted) <= 1.25 * max_arc / step
                normal, end = oracle_errors(leaf, k)
                assert normal < 1e-11
                assert end < 1e-9

    def test_coarse_step_error_as_measured(self):
        # Today's error at step 0.3, where the quadrature runs on the vertex
        # grid and no tolerance bounds it.  Worst normal distance measured
        # over these leaves: E1 1.8e-16, F1 3.6e-7 (k = 69, from the long
        # intervals next to c = 1/4), E-1 6.1e-10, F-1 3.0e-9.  Each bound is
        # about twice that (E1: 1e-14, rounding).
        bounds = {"E1": 1e-14, "F1": 8e-7, "E-1": 1.5e-9, "F-1": 6e-9}
        worst = dict.fromkeys(LEAF_FIELDS, 0.0)
        for field_id, start, p in seeded_leaves(1, LEAF_FIELDS, 2):
            leaf = trace_leaf(field_id, start, p, step=0.3, max_arc=1.0)
            worst[field_id] = max(worst[field_id], oracle_errors(leaf, p.k, every=10)[0])
        assert all(worst[f] <= bounds[f] for f in LEAF_FIELDS), worst


def coarse_pilots(seed: int, n: int):
    """n (field, pilot, cap): E1 and F-1 in turn at k log-uniform on [0.06,
    300], pilots of 2-7 nodes over one period in either direction, and caps
    uniform on [0.05, 1.2] times the period's arc."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        forward = bool(i % 2)
        p = MapParams(math.exp(rng.uniform(math.log(0.06), math.log(300.0))))
        f = foliations._LeafField(forward, not forward, p, rng.random())
        sigma = rng.choice([-1.0, 1.0])
        pilot = sigma * np.unique(np.concatenate([[0.0, 1.0], rng.random(rng.integers(0, 6))]))
        fine = np.linspace(0.0, sigma, 4097)
        period = f.integrals(fine[:-1], fine[1:])[1].sum()
        yield f, pilot, rng.uniform(0.05, 1.2) * period


class TestArcCap:
    """The fine grid stops at the arc the leaf prints."""

    @pytest.mark.parametrize("max_arc", [1.0, 2.5, 5.0])
    def test_no_refinement_past_max_arc(self, monkeypatch, max_arc):
        # The pilot ends where its trapezoid arc reaches _CUT * cap, so the
        # nodes the first pass places, and every grid node, lie at most the
        # margin past max_arc: by the grid's arc, within the pilot's error of
        # 1e-3.
        calls = spy_fine_grid(monkeypatch)
        measured = spy_integrals(monkeypatch)
        cut = 0
        for field_id, start, p in seeded_leaves(29, ("E1", "E-1"), 6, (0.5, 30.0)):
            calls.clear()
            measured.clear()
            trace_leaf(field_id, start, p, max_arc=max_arc)
            assert len(calls) == 1
            f, pilot, cap, grid = calls[0]
            # np.interp maps cost 0 to the pilot's first node exactly.
            assert grid.c[0] == pilot[0]
            if grid.complete:
                # Nothing was cut, and the last node is the pilot's last.
                assert grid.c[-1] == pilot[-1]
                continue
            cut += 1
            # The first grid a pass measures is the one the pilot placed.
            assert measured[0][1] <= foliations._CUT * cap * (1.0 + 1e-3)
            assert cap <= grid.s[-1] <= foliations._CUT * cap
        assert cut > 0

    def test_pilot_trapezoid_arc_within_its_bound(self, monkeypatch):
        # _CUT rests on this bound of 1e-3 on the relative error of the
        # pilot's trapezoid arc, up to each of its nodes; the worst seen over
        # seeds 30-32 is 5.3e-4.
        calls = spy_fine_grid(monkeypatch)
        for field_id, start, p in seeded_leaves(30, LEAF_FIELDS, 8):
            trace_leaf(field_id, start, p, max_arc=5.0)
        worst = 0.0
        for f, pilot, _, _ in calls:
            w = np.abs(f.speed(f.angle(pilot)))
            trapezoid = np.cumsum(0.5 * np.abs(np.diff(pilot)) * (1.0 / w[:-1] + 1.0 / w[1:]))
            gauss = np.cumsum(f.integrals(pilot[:-1], pilot[1:])[1])
            worst = max(worst, np.abs(trapezoid / gauss - 1.0).max())
        assert 0.0 < worst <= 1e-3

    @pytest.mark.parametrize("field_id", ["E1", "E-1"])
    def test_first_placement_at_large_k_is_max_arc_long(self, monkeypatch, field_id):
        # At k = 1e4 one pilot interval of 1/256 in c holds an arc of ~40;
        # placing nodes over all of it takes ~3e5.
        step, max_arc = 1e-3, 0.5
        measured = spy_integrals(monkeypatch)
        leaf = trace_leaf(field_id, TorusPoint(0.5, 0.5), MapParams(1e4), step=step, max_arc=max_arc)
        assert max(n for n, _ in measured) <= 3.0 * max_arc / (step * foliations._FILL)
        assert len(leaf.lifted) <= 3.0 * max_arc / (step * foliations._FILL)

    def test_pilot_arc_agrees_with_refined(self, monkeypatch):
        # The margin of 1e-6 past max_arc rests on this agreement of the
        # quadrature over two node sets, as a later pass may read the arc of
        # the grid the pass before trimmed lower; the worst seen over seeds
        # 30-32 and max_arc 1, 5 and 10 is 6.7e-9.
        calls = spy_fine_grid(monkeypatch)
        for field_id, start, p in seeded_leaves(30, LEAF_FIELDS, 8):
            trace_leaf(field_id, start, p, max_arc=5.0)
        assert len(calls) == 4 * 8
        worst = 0.0
        for f, pilot, _, grid in calls:
            _, ds = f.integrals(pilot[:-1], pilot[1:])
            sigma = math.copysign(1.0, pilot[-1])
            # The pilot's arc up to its last node at or before the grid's end,
            # plus the rest of the way over that pilot interval.
            i = int(np.searchsorted(sigma * pilot, sigma * grid.c[-1], side="right")) - 1
            s_pilot = ds[:i].sum()
            if pilot[i] != grid.c[-1]:
                s_pilot += f.integrals(pilot[i : i + 1], grid.c[-1:])[1][0]
            worst = max(worst, abs(s_pilot - grid.s[-1]) / grid.s[-1])
        assert worst <= 1e-7

    @pytest.mark.parametrize("field_id", LEAF_FIELDS)
    def test_short_first_grid_is_refined_again(self, monkeypatch, field_id):
        # From this start every field's grid runs past arc 0.6: to max_arc, to
        # the closed leaf ahead (F1) or over one period (F-1).  A pilot cut
        # at half the cap places a first grid ~0.5 long; the next pass finds
        # it short, takes in the rest of the pilot and cuts at the cap.  The
        # end points agree within 1.3e-15.
        p, max_arc = MapParams(2.0), 1.0
        start = TorusPoint(0.2, 0.8)
        calls = spy_fine_grid(monkeypatch)
        default = trace_leaf(field_id, start, p, max_arc=max_arc)
        assert len(calls) == 1 and calls[0][3].s[-1] > 0.6
        calls.clear()
        monkeypatch.setattr(foliations, "_CUT", 0.5)
        measured = spy_integrals(monkeypatch)
        leaf = trace_leaf(field_id, start, p, max_arc=max_arc)
        assert len(calls) == 1
        _, _, cap, grid = calls[0]
        assert measured[0][1] < 0.6 * max_arc
        assert grid.complete or grid.s[-1] >= cap
        assert leaf.arc_length == max_arc
        assert np.abs(leaf.lifted[-1] - default.lifted[-1]).max() <= 1e-12

    def test_coarse_pilot_grids_end_complete_or_at_the_cap(self):
        # 2-7 pilot nodes over one period of E1 and F-1: the trapezoid arc
        # errs by far more than _CUT allows, and 26 of these 131 grids came
        # back short of the cap and incomplete before a short grid took in
        # the rest of its pilot.  The grids need not cost one allowance an
        # interval: 3 stop at _PASSES with intervals of up to 1.43 allowances
        # (TestOneAllowance covers real pilots).
        cut = 0
        for f, pilot, cap in coarse_pilots(1, 131):
            grid = FINE_GRID(f, pilot, 1e-2, cap)
            cut += not grid.complete
            assert grid.complete or grid.s[-1] >= cap
        assert cut >= 100


def near_one_over_4pi_leaves(seed: int, n: int):
    """n (field, start, params, step, max_arc): F1 and E-1 in turn at k = (1 -
    10^-u)/(4 pi), u uniform on [2, 14], started at c uniform on [0.3, 0.7],
    with max_arc in {0.5, 1, 5} and step in {1e-3, 1e-2, 0.3}."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        field_id = ("F1", "E-1")[i % 2]
        k = (1.0 - 10.0 ** -rng.uniform(2.0, 14.0)) / (4.0 * math.pi)
        x, c = rng.random(), rng.uniform(0.3, 0.7)
        max_arc, step = (0.5, 1.0, 5.0)[rng.integers(3)], (1e-3, 1e-2, 0.3)[rng.integers(3)]
        yield field_id, TorusPoint(x, c if field_id == "F1" else (c + x) % 1.0), MapParams(k), step, max_arc


def test_one_grid_a_leaf_just_below_one_over_4pi(monkeypatch):
    # Of these 400 leaves, 126 took 2-13 grids with a doubled cap each before
    # a short grid took in the rest of its pilot, one raised MemoryError
    # under 3 GB, and the worst kept 3.5e3 times max_arc / step vertices.
    # The worst now keep 1.32, 2.6 and 43.8 times that at steps 1e-3, 1e-2
    # and 0.3, where the turn allowance spaces the vertices.  A pilot without
    # geometric nodes around c = 1/2 leaves 27.8 at step 1e-3.
    calls = spy_fine_grid(monkeypatch)
    worst = {1e-3: 0.0, 1e-2: 0.0, 0.3: 0.0}
    for field_id, start, p, step, max_arc in near_one_over_4pi_leaves(43, 400):
        calls.clear()
        leaf = trace_leaf(field_id, start, p, step=step, max_arc=max_arc)
        assert len(calls) == 1
        _, _, cap, grid = calls[0]
        assert grid.complete or grid.s[-1] >= cap
        worst[step] = max(worst[step], len(leaf.lifted) * step / max_arc)
    assert worst[1e-3] <= 2.0 and worst[1e-2] <= 5.0 and worst[0.3] <= 100.0, worst


def rule_leaves(seed: int, n: int):
    """n (field, start, params, max_arc) per field, k log-uniform on [0.06, 300]
    and max_arc cycling through 1, 5 and 10.  Every second F1 and E-1 leaf
    starts 1e-9 to 1e-3 (log-uniform) from a closed leaf, where delta^* exists:
    a quarter of all leaves."""
    rng = np.random.default_rng(seed)
    for field_id in LEAF_FIELDS:
        for i in range(n):
            p = MapParams(math.exp(rng.uniform(math.log(0.06), math.log(300.0))))
            x, y = rng.random(), rng.random()
            delta_star = critical_constants(p).delta_star
            if field_id in ("F1", "E-1") and delta_star is not None and i % 2:
                gap = math.exp(rng.uniform(math.log(1e-9), math.log(1e-3)))
                c = rng.choice([delta_star, 1.0 - delta_star]) + rng.choice([-1.0, 1.0]) * gap
                y = c if field_id == "F1" else (x + c) % 1.0
            yield field_id, TorusPoint(x, float(y)), p, (1.0, 5.0, 10.0)[i % 3]


def test_no_doubled_cap_retries(monkeypatch):
    # One ``_fine_grid`` call a trace.  Before a short grid took in the rest
    # of its pilot, the pilot's cut at _CUT * cap already left every grid
    # long enough: 0 doubled-cap retries over 2240 traces (rule_leaves, and
    # seeded_leaves at max_arc 1 and 5; seeds 1-20).
    calls = spy_fine_grid(monkeypatch)
    traces = list(rule_leaves(35, 12))
    traces += [(*leaf, max_arc) for leaf in seeded_leaves(35, LEAF_FIELDS, 8) for max_arc in (1.0, 5.0)]
    for field_id, start, p, max_arc in traces:
        trace_leaf(field_id, start, p, max_arc=max_arc)
    assert len(calls) == len(traces) == 4 * 12 + 4 * 8 * 2


class TestOneAllowance:
    """Every interval of the grid, and so every chord, costs at most one
    allowance."""

    STEP = 1e-3

    @pytest.fixture(scope="class")
    def grids(self):
        """(field, pilot, cap, grid, passes) of the ``_fine_grid`` call of each
        leaf of rule_leaves(33, 12)."""
        turns, passes = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(foliations, "_turns", lambda a: turns.append(len(a)) or TURNS(a))  # once a pass
            calls = spy_fine_grid(mp)
            for field_id, start, p, max_arc in rule_leaves(33, 12):
                before = len(turns)
                trace_leaf(field_id, start, p, step=self.STEP, max_arc=max_arc)
                passes.append(len(turns) - before)
        assert len(calls) == len(passes)
        return [(*call, n) for call, n in zip(calls, passes)]

    def test_every_interval_costs_at_most_one(self, grids):
        assert len(grids) >= 4 * 12
        for f, _, cap, grid, _ in grids:
            assert grid.complete or grid.s[-1] >= cap
            a = f.angle(grid.c)
            _, ds = f.integrals(grid.c[:-1], grid.c[1:])
            log_w = np.abs(np.diff(np.log(np.abs(f.speed(a)))))
            cost = ds / self.STEP + foliations._turns(a) / foliations._MAX_TURN + log_w / foliations._MAX_LOG_W
            assert cost.max() <= 1.0

    def test_two_passes(self, grids):
        # One pass places the grid on the pilot's costs, and the next finds
        # every interval fine: 2880 of 2880 calls over rule_leaves(seed, 12),
        # seeds 1-20, at steps 1e-3, 1e-2 and 0.3.
        assert [passes for *_, passes in grids] == [2] * len(grids)

    def test_chords_turn_at_most_max_turn(self):
        # Measured as TestAgainstRk4 measures it.  The worst over these leaves
        # is 0.9895 of the bound; nodes placed to carry 0.9 of an allowance
        # instead of _FILL = 0.85 reach 1.0435.
        worst = 0.0
        for seed in (1, 2, 3):
            for step in (1e-2, 0.3):
                for field_id, start, p, max_arc in rule_leaves(seed, 12):
                    chords = np.diff(trace_leaf(field_id, start, p, step=step, max_arc=max_arc).lifted, axis=0)
                    turn = np.diff(np.arctan2(chords[:, 1], chords[:, 0]))
                    worst = max(worst, np.abs((turn + math.pi) % (2.0 * math.pi) - math.pi).max(initial=0.0))
        assert worst <= foliations._MAX_TURN

    def test_end_point_agrees_with_16x_finer_grid(self, monkeypatch):
        # The finer grid is placed on the same pilot until each interval costs
        # at most 1/16.  Over 1600 leaves of this kind (seeds 1-10, 40 a field)
        # the largest end-point difference was 6.5e-9, an E-1 leaf at
        # k = 0.10 and max_arc 10.
        def finer(f, nodes, step, cap):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(foliations, "_MAX_TURN", foliations._MAX_TURN / 16)
                mp.setattr(foliations, "_MAX_LOG_W", foliations._MAX_LOG_W / 16)
                return FINE_GRID(f, nodes, step / 16, cap)

        worst = 0.0
        for field_id, start, p, max_arc in rule_leaves(34, 12):
            leaf = trace_leaf(field_id, start, p, step=self.STEP, max_arc=max_arc)
            with monkeypatch.context() as mp:
                mp.setattr(foliations, "_fine_grid", finer)
                ref = trace_leaf(field_id, start, p, step=self.STEP, max_arc=max_arc)
            assert leaf.lifted[0].tolist() == ref.lifted[0].tolist()
            worst = max(worst, np.abs(leaf.lifted[-1] - ref.lifted[-1]).max())
        assert worst <= 1e-8


def four_step_arc_point(f, grid, target: float) -> tuple[float, float, int]:
    """(C, x) of ``_arc_point`` with all four Newton steps taken, and the step
    whose iterate first repeats the one before it (4 if none before the last)."""
    i = min(int(np.searchsorted(grid.s, target, side="right")) - 1, len(grid.s) - 2)
    lo, hi = grid.c[i], grid.c[i + 1]
    if grid.s[i] == target:
        return float(lo), float(grid.x[i]), 0
    sign = math.copysign(1.0, hi - lo)
    iterates = [lo + (hi - lo) * (target - grid.s[i]) / (grid.s[i + 1] - grid.s[i])]
    for _ in range(4):
        c = iterates[-1]
        _, ds = f.integrals(np.array([lo]), np.array([c]))
        c -= sign * (grid.s[i] + ds[0] - target) * abs(f.speed(f.angle(c)))
        iterates.append(min(max(c, min(lo, hi)), max(lo, hi)))
    c = iterates[-1]
    dx, _ = f.integrals(np.array([lo]), np.array([c]))
    repeat = next((j for j in range(1, 4) if iterates[j] == iterates[j - 1]), 4)
    return float(c), float(grid.x[i] + dx[0]), repeat


def test_arc_point_equals_four_newton_steps(monkeypatch):
    # _arc_point stops once an iterate repeats; that must be the point and x
    # that four steps give, bit for bit.
    calls = []
    arc_point = foliations._arc_point

    def spy(f, grid, target):
        got = arc_point(f, grid, target)
        calls.append((got, four_step_arc_point(f, grid, target)))
        return got

    monkeypatch.setattr(foliations, "_arc_point", spy)
    for seed in (38, 39):
        for i, (field_id, start, p) in enumerate(seeded_leaves(seed, LEAF_FIELDS, 10, (0.5, 30.0))):
            trace_leaf(field_id, start, p, max_arc=(1.0, 2.5, 5.0)[i % 3])
    for got, (c, x, _) in calls:
        assert np.array([got]).view(np.uint64).tolist() == np.array([(c, x)]).view(np.uint64).tolist()
    # Repeats after the second and the third step, and calls that take all four.
    assert {2, 3, 4} <= {repeat for _, (_, _, repeat) in calls}


class TestIntegralsRowIndependent:
    """Each row of ``_LeafField.integrals`` depends on its own interval only.

    Long grids are evaluated in blocks of at most _ROWS, so a leaf keeps its
    bits whatever _ROWS is only if a row does not depend on how many rows
    share the call, although ``@ _GL_W`` may go to BLAS.  One row is left
    out: numpy forms a one-row product as a dot product, which may round
    differently from the matrix-vector kernel, and no block of a split call
    holds one row.
    """

    @staticmethod
    def same_bits(got, want) -> bool:
        return all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))

    @pytest.mark.parametrize("forward,perp", [(True, False), (False, False), (False, True)])
    def test_prefixes_and_blocks_bit_for_bit(self, forward, perp):
        f = foliations._LeafField(forward, perp, MapParams(3.7), 0.123)
        rows = foliations._ROWS
        n = 2 * rows + 3
        rng = np.random.default_rng(31)
        lo = np.sort(rng.random(n)) * 0.9
        hi = lo + rng.random(n) * 1e-3
        whole = f._block_integrals(lo, hi)
        assert self.same_bits(f.integrals(lo, hi), whole)  # three blocks
        for m in (2, 3, 7, 8, 9, 1023, rows + 1):
            assert self.same_bits(f.integrals(lo[:m], hi[:m]), [w[:m] for w in whole])
        for i, j in ((5, 7), (1000, 1009), (rows - 1, rows + 1), (rows + 3, n)):
            assert self.same_bits(f.integrals(lo[i:j], hi[i:j]), [w[i:j] for w in whole])


def test_turns_match_remainder_bit_for_bit():
    # Differences of lifted angles span [-pi, pi]: steps of every size, the
    # jumps by pi of a forward angle, and values next to the fold points.
    rng = np.random.default_rng(32)
    edges = np.array([-math.pi, -0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi])
    near = (edges[:, None] + np.array([-1e-12, -1e-15, 1e-15, 1e-12])).ravel()
    d = np.concatenate([rng.uniform(-math.pi, math.pi, 200_000), rng.normal(0.0, 1e-3, 10_000),
                        -np.logspace(-320, 0.49, 5000), np.logspace(-320, 0.49, 5000),
                        edges, near.clip(-math.pi, math.pi)])
    a = np.zeros(2 * len(d) + 1)
    a[1::2] = d  # consecutive differences d and -d, exactly
    want = np.abs((np.diff(a) + 0.5 * math.pi) % math.pi - 0.5 * math.pi)
    assert np.array_equal(foliations._turns(a).view(np.uint64), want.view(np.uint64))
