"""Tests for leaf tracing, closed leaves and fold tips."""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from hypermap import foliations
from hypermap.cli import run
from hypermap.coordinates import critical_constants, theta_field, unit_vector
from hypermap.foliations import closed_leaves, fold_tips, trace_leaf
from hypermap.oracle import rk4_leaf, svd2
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi, jacobian


def dist_mod1(a: np.ndarray, b: float) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def polyline_distance(pts: np.ndarray, ref: np.ndarray, window: float = 2e-3) -> np.ndarray:
    """Distance of each point to the polyline ``ref``, near the same arc position.

    Both polylines start at the same point and are parametrised by summed
    chord length; each point is compared with the ref segments within
    ``window`` of its own position.
    """
    arc_ref = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(ref, axis=0).T))])
    arc_pts = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    out = np.empty(len(pts))
    for i, (p, s) in enumerate(zip(pts, arc_pts)):
        lo = max(int(np.searchsorted(arc_ref, s - window)) - 1, 0)
        hi = min(int(np.searchsorted(arc_ref, s + window)) + 1, len(ref) - 1)
        a, b = ref[lo:hi], ref[lo + 1:hi + 1]
        d = b - a
        t = np.clip(((p - a) * d).sum(1) / np.maximum((d * d).sum(1), 1e-300), 0.0, 1.0)
        out[i] = np.hypot(*(a + t[:, None] * d - p).T).min()
    return out


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


class TestFoldTips:
    def test_values(self):
        lo, hi = fold_tips(MapParams(5.0))
        c = critical_constants(MapParams(5.0))
        assert lo == c.delta_star and hi == 1 - c.delta_star

    def test_k1(self):
        lo, hi = fold_tips(MapParams(1.0))
        assert lo == pytest.approx(0.2626786, abs=1e-6)
        assert hi == pytest.approx(1 - 0.2626786, abs=1e-6)

    def test_large_k_limit(self):
        lo, hi = fold_tips(MapParams(10000.0))
        assert lo == pytest.approx(0.25, abs=1e-5)
        assert hi == pytest.approx(0.75, abs=1e-5)

    def test_vertical_field_there(self):
        p = MapParams(7.0)
        lo, _ = fold_tips(p)
        assert angle_dist_mod_pi(theta_field(lo, p).theta, math.pi / 2) < 1e-9


class TestClosedLeaves:
    def test_f1_horizontal_lines(self):
        p = MapParams(2.0)
        ds, mirror = fold_tips(p)
        leaves = closed_leaves("F1", p)
        assert len(leaves) == 2
        assert {leaf.lifted[0, 1] for leaf in leaves} == {ds, mirror}
        for leaf in leaves:
            assert leaf.closed
            assert leaf.arc_length == 1.0
            assert leaf.winding() == (1, 0)

    def test_e_minus1_diagonals(self):
        p = MapParams(2.0)
        ds, _ = fold_tips(p)
        leaves = closed_leaves("E-1", p)
        assert len(leaves) == 2
        for leaf in leaves:
            assert leaf.closed
            assert leaf.arc_length == pytest.approx(math.sqrt(2.0))
            assert leaf.winding() == (1, 1)
            yt = (leaf.lifted[:, 1] - leaf.lifted[:, 0]) % 1.0
            assert dist_mod1(yt, ds).min() < 1e-12 or dist_mod1(yt, 1 - ds).min() < 1e-12

    def test_none_for_e1_and_f_minus1(self):
        p = MapParams(2.0)
        assert closed_leaves("E1", p) == []
        assert closed_leaves("F-1", p) == []

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
                for leaf, level in zip(leaves, fold_tips(p)):
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
    if ahead is not None and behind is not None:
        join, ratio = foliations._JOIN, foliations._PILOT_RATIO
        n = math.ceil(math.log(ahead / join) / math.log(ratio)) + 1
        parts.append(ahead - np.geomspace(join, ahead, n))
        n = math.ceil(math.log((behind + length) / behind) / math.log(ratio)) + 1
        parts.append(np.geomspace(behind, behind + length, n) - behind)
    d = np.concatenate(parts)
    return sigma * np.unique(d[(d >= 0.0) & (d <= length)])


class TestPilot:
    @pytest.mark.parametrize("k", [0.05, 0.6, 2.0, 100.0, 1e4])
    def test_nodes_bit_for_bit(self, k):
        p = MapParams(k)
        for forward in (True, False):
            for base in (0.0, 0.13, 0.6):
                f = foliations._LeafField(forward, not forward, p, base)
                for sigma in (1.0, -1.0):
                    for length, ahead, behind in ((1.0, None, None), (0.3 - 1e-10, 0.3, 0.45)):
                        got = foliations._pilot(f, length, sigma, ahead, behind)
                        assert np.array_equal(got, reference_pilot(f, length, sigma, ahead, behind))


class TestTraceLeaf:
    def test_f1_stays_on_fold_line(self):
        p = MapParams(10.0)
        ds, _ = fold_tips(p)
        leaf = trace_leaf("F1", TorusPoint(0.3, ds), p, step=1e-3, max_arc=10.0)
        assert leaf.closed
        assert np.abs(leaf.points[:, 1] - ds).max() < 1e-6

    def test_e_minus1_stays_on_diagonal(self):
        p = MapParams(10.0)
        ds, _ = fold_tips(p)
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
            ex, ey = unit_vector("e1", y, p)
            assert abs(ey / ex) < 0.1

    def test_closed_leaf_endpoints_coincide(self):
        p = MapParams(10.0)
        ds, _ = fold_tips(p)
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
        for x, y in leaf.points[:: max(1, len(leaf) // 50)]:
            ex, ey = unit_vector("e1", y, p)
            fx, fy = unit_vector("f1", y, p)
            assert abs(ex * fx + ey * fy) < 1e-9

    def test_accumulation_on_closed_leaves(self):
        p = MapParams(10.0)
        ds, _ = fold_tips(p)
        leaf = trace_leaf("F1", TorusPoint(0.0, 0.501), p, step=1e-3, max_arc=50.0)
        tail = leaf.points[int(0.9 * len(leaf)):, 1]
        close = np.minimum(dist_mod1(tail, ds), dist_mod1(tail, 1 - ds))
        assert close.max() < 5e-2

    def test_retraceability(self):
        p = MapParams(3.0)
        fwd = trace_leaf("E1", TorusPoint(0.1, 0.6), p, step=1e-3, max_arc=2.0)
        end = fwd.vertex(len(fwd) - 1)
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
        assert leaf.winding() != (0, 0)

    def test_closed_leaf_shorter_than_its_period(self):
        p = MapParams(10.0)
        ds, _ = fold_tips(p)
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
            segs = leaf.segments()
            assert len(segs) >= 2
            for seg in segs:
                assert np.all(seg >= 0.0) and np.all(seg <= 1.0)

    def test_csv_rows_shape(self):
        p = MapParams(5.0)
        leaf = trace_leaf("E1", TorusPoint(0.95, 0.6), p, step=1e-2, max_arc=0.3)
        out = io.StringIO()
        with redirect_stdout(out):
            run(["leaf", "--k", "5", "--x", "0.95", "--y", "0.6", "--step", "1e-2", "--max-arc", "0.3"])
        lines = out.getvalue().splitlines()
        assert lines[1] == "seg_id,x,y"
        seg_ids = [int(line.split(",")[0]) for line in lines[2:]]
        assert len(seg_ids) == len(leaf) + 2 * (len(leaf.segments()) - 1)
        assert seg_ids == sorted(seg_ids) and set(seg_ids) == set(range(len(leaf.segments())))


#: Fields and k for the comparison with the RK4 oracle; delta^* is undefined
#: at k = 0.05, where F1 and E-1 have no closed leaves.
RK4_CASES = [(f, k) for f in ("E1", "F1", "E-1", "F-1") for k in (0.6, 2.0, 10.0, 30.0, 100.0)]
RK4_CASES += [("F1", 0.05), ("E-1", 0.05)]


class TestAgainstRk4:
    @pytest.mark.parametrize("field_id,k", RK4_CASES)
    def test_matches_oracle(self, field_id, k):
        p = MapParams(k)
        # c = 0.37: F1 leaves from k = 2 on reach a closed leaf within the arc.
        start = TorusPoint(0.3, 0.37) if field_id in ("E1", "F1") else TorusPoint(0.3, 0.67)
        step = 1e-3
        leaf = trace_leaf(field_id, start, p, step=step, max_arc=0.5)
        ref = rk4_leaf(field_id, start, p, step=2.5e-4, max_arc=0.5)
        assert leaf.arc_length == 0.5 and not leaf.closed
        assert np.hypot(*(leaf.lifted[-1] - ref.lifted[-1])) < 1e-9
        assert polyline_distance(leaf.lifted, ref.lifted).max() < 1e-6
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
        ds, _ = fold_tips(p)
        c = ds + offset
        start = TorusPoint(0.1, c) if field_id == "F1" else TorusPoint(0.1, (0.1 + c) % 1.0)
        leaf = trace_leaf(field_id, start, p, step=1e-3, max_arc=1.0)
        end = leaf.points[-1]
        assert dist_mod1(np.array([end[1] - (0.0 if field_id == "F1" else end[0])]), ds)[0] < 1e-12
        assert chord_excess(leaf, p) <= 0.0
        assert np.hypot(*np.diff(leaf.lifted, axis=0).T).max() <= 1e-3
