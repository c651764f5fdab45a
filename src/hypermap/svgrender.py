"""Plain-text SVG assembly for torus figures.

Everything renders into the unit-square viewBox "0 0 1 1" with the y-axis
flipped so y increases upward.  A polyline is an (n, 2) point array.
Polylines must already be split at torus seams: Leaf.segments interpolates
seam points into a leaf's chords, and split_at_jumps cuts sampled curves
without adding points off the curve; both return views into one array.  No
plotting library is involved.

**Coordinates.**  ``polyline`` writes each coordinate v (x or 1 - y) as
``%.6f`` with an array kernel.  A v in [0, 1] prints as ``I.dddddd``, eight
bytes, one little-endian 64-bit word:

1. p = v 10^6 is formed in float64.  10^6 is exact and p < 2^20, so p is
   within 2^-34 of the exact product, and ``rint(p)`` is the correctly
   rounded N unless p's fraction lies within that much of 1/2.
2. The word of N is ``_HEAD[N // 1000] | _TAIL[N % 1000]``: ``'0' + N //
   10^6``, the point and three digits, then three more, from one table of
   the three-digit texts 000..999 (after Adams, *Ryu revisited: printf
   floating point conversion*, OOPSLA 2019, as ``numfmt`` does for CSV).
3. Each point is laid out as ``x,y`` and a space, 18 bytes with no NUL
   bytes, and the text is the bytes of the whole array less the last space.

The kernel formats blocks of at most ``_BLOCK`` points, and their texts are
joined by a space.

**Fallbacks.**  A near tie, a v whose fraction of p lies within 2^-30 of
1/2 (exact ties round half to even), still prints in eight bytes: its word
is patched from Python's ``%.6f``.  A v outside [0, 1], -0.0 or NaN changes
the width, so the whole block is formatted by one ``%``-format.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Point = tuple[float, float]


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """_HEAD[q], the first five bytes of the word of N for N // 1000 = q
    (``0.ddd`` or ``1.000``), and _TAIL[r], its last three for N % 1000 = r."""
    j = np.arange(1000, dtype=np.uint64)
    dig3 = (j // 100 + 48) | (j // 10 % 10 + 48) << 8 | (j % 10 + 48) << 16  # "000".."999"
    point = ord(".") << 8
    head = np.append(ord("0") | point | dig3 << 16, ord("1") | point | dig3[0] << 16)
    return head, dig3 << 40


_HEAD, _TAIL = _word_tables()
#: The bits of 1.0: the largest of a float64 in [0, 1] read as uint64.
_ONE_BITS = np.float64(1.0).view(np.uint64)
#: |p - rint(p)| above this: p's fraction lies within 2^-30 of 1/2.
_NEAR_TIE = 0.5 - 2.0**-30
#: Points formatted in one pass.  Each (n, 2) temporary of a pass is then at
#: most 64 KiB, below glibc's default 128 KiB mmap threshold, so a long
#: polyline does not map fresh pages for every temporary.
_BLOCK = 4096
#: One point of the text, ``x,y`` and a space.
_POINT = np.dtype([("x", "<u8"), ("comma", "u1"), ("y", "<u8"), ("space", "u1")])


def _coords(points: np.ndarray) -> str:
    """``%.6f,%.6f`` of x and 1 - y for each point, joined by spaces."""
    return " ".join(_coords_block(points[i:i + _BLOCK]) for i in range(0, len(points), _BLOCK))


def _coords_block(points: np.ndarray) -> str:
    """``_coords`` of at most ``_BLOCK`` points."""
    n = len(points)
    v = np.empty((n, 2))
    v[:, 0] = points[:, 0]
    np.subtract(1.0, points[:, 1], out=v[:, 1])
    if n == 0 or v.view(np.uint64).max() > _ONE_BITS:  # a value outside [0, 1], -0.0 or NaN
        return ("%.6f,%.6f " * n)[:-1] % tuple(v.ravel().tolist())
    p = v * 1e6
    n6 = np.rint(p)
    p -= n6
    near_tie = np.flatnonzero(np.abs(p, out=p) > _NEAR_TIE)
    q, r = np.divmod(n6.astype(np.int64), 1000)
    words = _HEAD.take(q)
    words |= _TAIL.take(r)
    if len(near_tie):
        text = b"".join(b"%.6f" % x for x in v.ravel()[near_tie].tolist())
        words.ravel()[near_tie] = np.frombuffer(text, "<u8")
    out = np.empty(n, _POINT)
    out["x"], out["comma"], out["y"], out["space"] = words[:, 0], ord(","), words[:, 1], ord(" ")
    return out.tobytes()[:-1].decode("ascii")


def polyline(points: np.ndarray, stroke: str, width: float = 0.002) -> str:
    """Polyline through the rows of an (n, 2) array, each coordinate written as ``_fmt`` would."""
    return (
        f'<polyline points="{_coords(points)}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" stroke-linejoin="round" stroke-linecap="round"/>'
    )


def split_at_jumps(points: Sequence[Point] | np.ndarray, axis: int) -> list[np.ndarray]:
    """Pieces (of two or more points) between jumps of more than 1/2 in coordinate ``axis``.

    No seam points are added, so a piece may stop up to one sample short of
    the torus seam.  That is deliberate: the tangency curves and field graphs
    cut here are sampled, and a point interpolated linearly onto the seam
    would lie off the curve.  Leaves are traced vertex by vertex, and
    ``Leaf.segments`` adds seam points on their chords.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cuts = np.flatnonzero(np.abs(np.diff(pts[:, axis])) > 0.5) + 1
    return [piece for piece in np.split(pts, cuts) if len(piece) >= 2]


def line(p: Point, q: Point, stroke: str, width: float = 0.002) -> str:
    return (
        f'<line x1="{_fmt(p[0])}" y1="{_fmt(1.0 - p[1])}" '
        f'x2="{_fmt(q[0])}" y2="{_fmt(1.0 - q[1])}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def hband(y_lo: float, y_hi: float, fill: str) -> str:
    """Horizontal band between two heights (used to shade critical strips)."""
    lo, hi = min(y_lo, y_hi), max(y_lo, y_hi)
    return (
        f'<rect x="0" y="{_fmt(1.0 - hi)}" width="1" height="{_fmt(hi - lo)}" '
        f'fill="{fill}" opacity="0.25"/>'
    )


def circle(p: Point, r: float, fill: str) -> str:
    return f'<circle cx="{_fmt(p[0])}" cy="{_fmt(1.0 - p[1])}" r="{_fmt(r)}" fill="{fill}"/>'


def document(elements: Sequence[str]) -> str:
    body = "\n".join(f"  {e}" for e in elements)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="0 0 1 1">\n'
        '  <rect x="0" y="0" width="1" height="1" fill="white"/>\n'
        f"{body}\n"
        "</svg>\n"
    )
