"""Tests for leaf tracing, closed leaves and fold tips."""

import math

import numpy as np
import pytest

from hypermap.coordinates import critical_constants, theta_field, unit_vector
from hypermap.foliations import (
    StepSizeError,
    closed_leaves,
    fold_tips,
    trace_leaf,
)
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi


def dist_mod1(a: np.ndarray, b: float) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


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

    def test_step_halving_is_fourth_order(self):
        # One clean halving above the rounding floor; beyond it the
        # integrator saturates at ~1e-13 absolute on this segment.
        p = MapParams(2.0)

        def endpoint(h):
            return trace_leaf("E1", TorusPoint(0.0, 0.6), p, step=h, max_arc=0.5).lifted[-1]

        ref = endpoint(2.5e-4)
        e1 = float(np.hypot(*(endpoint(1.6e-2) - ref)))
        e2 = float(np.hypot(*(endpoint(8e-3) - ref)))
        assert e1 / e2 >= 12.0
        assert e2 < 1e-12

    def test_step_size_error_names_region(self):
        p = MapParams(20.0)
        ds, _ = fold_tips(p)
        with pytest.raises(StepSizeError, match="E1 near y"):
            trace_leaf("E1", TorusPoint(0.5, ds), p, step=0.3, max_arc=2.0)

    def test_argument_validation(self):
        p = MapParams(1.0)
        with pytest.raises(ValueError):
            trace_leaf("Q7", TorusPoint(0, 0), p)
        with pytest.raises(ValueError):
            trace_leaf("E1", TorusPoint(0, 0), p, step=0.0)
        with pytest.raises(ValueError):
            trace_leaf("E1", TorusPoint(0, 0), p, max_arc=-1.0)

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
        rows = leaf.to_csv_rows()
        assert len(rows) >= len(leaf)
        seg_ids = {r[0] for r in rows}
        assert seg_ids == set(range(len(seg_ids)))
