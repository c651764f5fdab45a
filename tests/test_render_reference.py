"""Seam splitting and CSV/SVG formatting against their per-vertex references.

``reference_segments`` is the per-vertex seam-splitting loop that
``Leaf.segments`` replaced, and ``reference_csv``/``reference_polyline``
format one cell or point at a time as the CLI used to.  The array-at-a-time
code must give the same pieces and the same bytes.
"""

import argparse
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermap import cli, svgrender
from hypermap.foliations import LEAF_FIELDS, Leaf, closed_leaves, trace_leaf
from hypermap.stdmap import MapParams, TorusPoint
from hypermap.tangency import tangency_curve, tangency_landmarks


def reference_segments(pts: np.ndarray) -> list[np.ndarray]:
    """The per-vertex seam-splitting loop, as ``Leaf.segments`` had it, with
    its first vertex on a side in the square its outgoing chord enters."""
    if len(pts) == 0:
        return []
    segs: list[np.ndarray] = []
    ox, oy = math.floor(pts[0, 0]), math.floor(pts[0, 1])
    if len(pts) > 1:
        ox -= pts[0, 0] == ox and pts[1, 0] < pts[0, 0]
        oy -= pts[0, 1] == oy and pts[1, 1] < pts[0, 1]
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


def reference_csv(header: str, columns, rows) -> str:
    lines = [header, ",".join(columns)]
    for row in rows:
        cells = [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_polyline(points, stroke: str, width: float = 0.002) -> str:
    coords = " ".join(f"{x:.6f},{1.0 - y:.6f}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" stroke-linejoin="round" stroke-linecap="round"/>'
    )


def reference_split_at_jumps(points, axis: int) -> list[list[list[float]]]:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cuts = np.flatnonzero(np.abs(np.diff(pts[:, axis])) > 0.5) + 1
    return [piece.tolist() for piece in np.split(pts, cuts) if len(piece) >= 2]


def header(subcommand: str, k: float, step: float = 1e-3, max_arc: float = 10.0, grid: int = 1024) -> str:
    args = argparse.Namespace(subcommand=subcommand, k=k, m=None, grid=grid, samples=100_000, step=step,
                              max_arc=max_arc, seed=42, format="csv")
    return cli._header(args)


def run_capture(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


def leaf_of(lifted: np.ndarray) -> Leaf:
    return Leaf("E1", lifted, 0.0, False)


def assert_same_pieces(lifted: np.ndarray) -> None:
    want = reference_segments(lifted)
    got = leaf_of(lifted).segments()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestSplitMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
           st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=24))
    def test_quarter_grid(self, start, moves):
        # Vertices on a grid of quarters lie on sides and corners; chords
        # up to 3 long cross several sides of one axis.
        lifted = np.cumsum(np.array([start] + moves, dtype=float), axis=0) / 4.0
        assert_same_pieces(lifted)

    def test_empty_and_single_vertex(self):
        assert leaf_of(np.empty((0, 2))).segments() == []
        for point in ([0.25, 0.5], [1.0, -2.0], [-0.5, 3.75]):
            assert_same_pieces(np.array([point]))

    @pytest.mark.parametrize("k", [0.6, 2.0, 100.0])
    def test_closed_leaves(self, k):
        for field_id in ("F1", "E-1"):
            for leaf in closed_leaves(field_id, MapParams(k)):
                assert_same_pieces(leaf.lifted)

    def test_traced_leaves(self):
        rng = np.random.default_rng(20261018)
        for i in range(300):
            step = (1e-3, 1e-2, 0.3, 2.0)[i % 4]
            field_id = LEAF_FIELDS[(i // 4) % 4]
            k = float(np.exp(rng.uniform(np.log(0.05), np.log(1000.0))))
            start = TorusPoint(*rng.choice([0.0, 0.25, 0.5, float(rng.random())], size=2))
            # Vertices are also at most 0.01 rad apart in tangent, so long steps keep arcs short.
            max_arc = float(rng.uniform(1.0, 8.0)) if step > 0.1 else step * float(rng.uniform(5.0, 400.0))
            leaf = trace_leaf(field_id, start, MapParams(k), step=step, max_arc=max_arc)
            assert_same_pieces(leaf.lifted)

    def test_benchmark_shaped_leaves(self):
        # The leaf jobs of the benchmark: thousands of vertices, a few seam crossings.
        rng = np.random.default_rng(38)
        crossings = 0
        for field_id in LEAF_FIELDS:
            for _ in range(2):
                start = TorusPoint(float(rng.random()), float(rng.random()))
                leaf = trace_leaf(field_id, start, MapParams(float(rng.uniform(25.0, 35.0))), step=1e-3, max_arc=5.0)
                assert len(leaf.lifted) > 3000
                assert_same_pieces(leaf.lifted)
                crossings += len(leaf.segments()) - 1
        assert crossings > 8

    @pytest.mark.parametrize("field_id,k", [("E1", 0.3), ("E1", 1.0), ("F1", 0.02), ("F1", 0.05)])
    def test_traced_vertices_on_sides(self, field_id, k):
        # y = c along these leaves and the grid tiles one period of c, so from
        # y = 0 a vertex lies on y = n at every period; a chord moving up onto
        # it ends in the square below, where floor(y) would not put it.
        x = float(np.random.default_rng(39).random())
        up_onto_side = 0
        for direction in ((1.0, 0.0), (-1.0, 0.0)):
            leaf = trace_leaf(field_id, TorusPoint(x, 0.0), MapParams(k), step=1e-2, max_arc=10.0,
                              initial_direction=direction)
            lifted = leaf.lifted
            on_side = lifted[1:] == np.floor(lifted[1:])
            assert on_side.any()
            up_onto_side += int((on_side & (lifted[1:] > lifted[:-1])).sum())
            assert_same_pieces(lifted)
        assert up_onto_side > 0


def test_percent_format_matches_f_string():
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16, 1e-16, 0.1, 2.0**53]
    bits = np.random.default_rng(7).integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
    values = special + bits.view(np.float64).tolist() + np.random.default_rng(8).normal(size=10_000).tolist()
    for spec in (".17g", ".6f"):
        assert ("%" + spec + " ") * len(values) % tuple(values) == "".join(f"{v:{spec}} " for v in values)


def assert_polyline_matches(values) -> None:
    """polyline of the points (v, v) and (v, 1 - v) for v in ``values`` against the
    reference: the first writes x = v, the second 1 - y = v wherever 1 - v is exact."""
    v = np.asarray(values, dtype=float)
    for points in (np.column_stack([v, v]), np.column_stack([v, 1.0 - v])):
        assert svgrender.polyline(points, "#000") == reference_polyline(points, "#000")


def _ulps_around(values, steps: int = 2) -> list[float]:
    out = []
    for v in values:
        out.append(v)
        for direction in (-math.inf, math.inf):
            x = v
            for _ in range(steps):
                x = math.nextafter(x, direction)
                out.append(x)
    return out


class TestPolylineKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_unit_floats(self, values):
        assert_polyline_matches(values)

    def test_ties_and_their_neighbours(self):
        # j / (2 10^6) for odd j lies near a tie of %.6f; a / 128 for odd a
        # is an exact one, rounded half to even.
        odd = np.random.default_rng(11).integers(0, 10**6, 2000) * 2 + 1
        near = _ulps_around((odd / 2e6).tolist() + [0.0000005, 0.1349635, 0.9999995])
        exact = _ulps_around([a / 128 for a in range(1, 128, 2)])
        assert_polyline_matches(near)
        assert_polyline_matches(exact)
        assert_polyline_matches(near + exact)

    def test_edges_of_the_unit_interval(self):
        assert_polyline_matches([0.0, 1.0, 1.0 - 2**-53, 5e-324, 2**-1022, 0.5, 0.9999994, 0.9999996])

    @pytest.mark.parametrize("odd", [-0.0, -5e-324, -1e-9, -0.25, 1.0 + 2**-52, 1.5, 1e300,
                                     math.nan, math.inf, -math.inf])
    def test_values_that_change_the_width(self, odd):
        values = np.random.default_rng(12).random(50).tolist()
        for at in (0, 25, 50):
            assert_polyline_matches(values[:at] + [odd] + values[at:])
        assert_polyline_matches([odd])

    def test_no_points(self):
        assert_polyline_matches([])

    @pytest.mark.parametrize("odd", [None, 1.5, -0.0])
    def test_blocks(self, odd):
        # 20 000 points span five blocks; an odd value in the second block
        # sends that block alone to the %-format.
        points = np.random.default_rng(13).random((20_000, 2))
        if odd is not None:
            points[svgrender._BLOCK + 17, 0] = odd
        assert svgrender.polyline(points, "#000") == reference_polyline(points, "#000")


LEAF_CASES = [
    (field_id, k, step, max_arc, start)
    for field_id in LEAF_FIELDS
    for k in (0.6, 10.0, 100.0)
    for step, max_arc, start in ((1e-3, 2.0, (0.0, 0.6)), (2.0, 10.0, (0.0, 0.6)), (0.05, 5.0, (0.125, 0.0)))
]


@pytest.mark.parametrize("field_id,k,step,max_arc,start", LEAF_CASES)
def test_leaf_csv_and_svg(field_id, k, step, max_arc, start):
    params = MapParams(k)
    leaf = trace_leaf(field_id, TorusPoint(*start), params, step=step, max_arc=max_arc)
    segs = reference_segments(leaf.lifted)
    argv = ["leaf", "--field", field_id, "--k", repr(k), "--step", repr(step), "--max-arc", repr(max_arc),
            "--x", repr(start[0]), "--y", repr(start[1])]

    rows = [(seg_id, float(x), float(y)) for seg_id, seg in enumerate(segs) for x, y in seg]
    want = reference_csv(header("leaf", k, step=step, max_arc=max_arc), ["seg_id", "x", "y"], rows)
    assert run_capture(argv) == want

    elements = cli._strip_elements(params)
    elements += [reference_polyline(seg, "#c03030") for seg in segs if len(seg) >= 2]
    assert run_capture(argv + ["--format", "svg"]) == svgrender.document(elements)


@pytest.mark.parametrize("k", [0.6, 10.0, 100.0])
@pytest.mark.parametrize("time", ["forward", "backward"])
def test_field_csv(k, time):
    coord = np.arange(256) / 256
    ratio, theta = cli._field_columns(coord, MapParams(k), time)
    columns = (coord, ratio, theta, np.cos(theta), np.sin(theta))
    rows = zip(*(col.tolist() for col in columns))
    want = reference_csv(header("field", k, grid=256), ["coord", "phi", "theta", "e_x", "e_y"], rows)
    assert run_capture(["field", "--k", repr(k), "--grid", "256", "--time", time]) == want


@pytest.mark.parametrize("k", [0.6, 10.0, 100.0])
def test_tangency_csv(k):
    params = MapParams(k)
    ytilde, *curves = tangency_curve(params, 256)
    rows = [("curve", "", t, v, (v - t) % 1.0, branch, r)
            for (y, res), branch in zip(curves, ("lower", "upper"))
            for t, v, r in zip(ytilde.tolist(), y.tolist(), res.tolist())]
    for i, tp in enumerate(tangency_landmarks(params), start=1):
        if tp is not None:
            rows.append(("landmark", f"P{i}", tp.ytilde, tp.y, (tp.y - tp.ytilde) % 1.0, "lower", tp.residual))
    want = reference_csv(header("tangency", k, grid=256),
                         ["kind", "name", "ytilde", "y", "x", "branch", "residual"], rows)
    assert run_capture(["tangency", "--k", repr(k), "--grid", "256"]) == want


@pytest.mark.parametrize("k", ["0.6", "1", "10", "100"])
def test_figures(tmp_path, monkeypatch, k):
    argv = ["figures", "--k", k, "--grid", "256"]
    run_capture(argv + ["--out", str(tmp_path / "new")])
    calls = {"segments": 0, "polyline": 0, "split_at_jumps": 0}

    def counted(name, reference):
        def call(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)
        return call

    with monkeypatch.context() as m:
        m.setattr(Leaf, "segments", counted("segments", lambda leaf: reference_segments(leaf.lifted)))
        m.setattr(svgrender, "polyline", counted("polyline", reference_polyline))
        m.setattr(svgrender, "split_at_jumps", counted("split_at_jumps", reference_split_at_jumps))
        run_capture(argv + ["--out", str(tmp_path / "ref")])
    # Else the reference run shares the code under test and compares it with itself.
    assert min(calls.values()) > 0, calls
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "new").iterdir()) and len(names) >= 6
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
