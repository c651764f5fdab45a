"""Plain-text SVG assembly for torus figures.

Everything renders into the unit-square viewBox "0 0 1 1" with the y-axis
flipped so y increases upward.  A polyline is an (n, 2) point array,
formatted whole by one %-format.  Polylines must already be split at torus
seams: Leaf.segments interpolates seam points into a leaf's chords, and
split_at_jumps cuts sampled curves without adding points off the curve; both
return views into one array.  No plotting library is involved.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Point = tuple[float, float]


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def polyline(points: np.ndarray, stroke: str, width: float = 0.002) -> str:
    """Polyline through the rows of an (n, 2) array; ``%.6f`` is the text of ``_fmt``."""
    flat = np.column_stack([points[:, 0], 1.0 - points[:, 1]]).ravel().tolist()
    coords = ("%.6f,%.6f " * len(points))[:-1] % tuple(flat)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" stroke-linejoin="round" stroke-linecap="round"/>'
    )


def split_at_jumps(points: Sequence[Point] | np.ndarray, axis: int) -> list[np.ndarray]:
    """Pieces (of two or more points) between jumps of more than 1/2 in coordinate ``axis``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cuts = np.flatnonzero(np.abs(np.diff(pts[:, axis])) > 0.5) + 1
    return [piece for piece in np.split(pts, cuts) if len(piece) >= 2]


def line(p: Point, q: Point, stroke: str, width: float = 0.002) -> str:
    return (
        f'<line x1="{_fmt(p[0])}" y1="{_fmt(1.0 - p[1])}" '
        f'x2="{_fmt(q[0])}" y2="{_fmt(1.0 - q[1])}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def hband(y_lo: float, y_hi: float, fill: str, opacity: float = 0.25) -> str:
    """Horizontal band between two heights (used to shade critical strips)."""
    lo, hi = min(y_lo, y_hi), max(y_lo, y_hi)
    return (
        f'<rect x="0" y="{_fmt(1.0 - hi)}" width="1" height="{_fmt(hi - lo)}" '
        f'fill="{fill}" opacity="{opacity}"/>'
    )


def circle(p: Point, r: float, fill: str) -> str:
    return f'<circle cx="{_fmt(p[0])}" cy="{_fmt(1.0 - p[1])}" r="{_fmt(r)}" fill="{fill}"/>'


def document(elements: Sequence[str], size: int = 640) -> str:
    body = "\n".join(f"  {e}" for e in elements)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        'viewBox="0 0 1 1">\n'
        '  <rect x="0" y="0" width="1" height="1" fill="white"/>\n'
        f"{body}\n"
        "</svg>\n"
    )
