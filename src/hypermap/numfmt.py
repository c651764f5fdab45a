"""Exact ``%.17g`` of float64 arrays, and the text tables written with it.

``table(fields, ends)`` writes rows of text, one per value of its array
fields: the CSV tables and a cone report's failure lines.  Its float
fields go through one kernel, which lays each number out as a cell of
three little-endian 64-bit words: the text of ``"%.17g" % v`` from byte 0
on and NUL holes after it.  Cells are 24 bytes because no ``%.17g`` text
is longer (``-2.2250738585072014e-308``).

The fast path, for 1e-30 <= |v| < 1e30, the range of the tables:

1. ``d = floor(log10|v|)`` is the decimal exponent, so the 17 printed
   digits are ``N = round(|v| 10^(16 - d))``.
2. ``P = |v| 10^s``, s = 16 - d, is formed as ``p + lo``: Dekker's
   error-free product (T. J. Dekker, Numer. Math. 18, 1971) of |v| with
   the double ``T_hi`` nearest 10^s gives ``p + e`` exactly, and
   ``lo = e + |v| T_lo`` adds the product with ``T_lo``, the double
   nearest ``10^s - T_hi``.  P lies in [1e16, 1e17) < 2^57, so p is an
   integer and ``floor(P) = p + floor(lo)``.
3. The floor of P, not its rounding, checks d: it must lie in
   [10^16, 10^17), else d moves by one and P is formed again.  Rounding
   P up to 10^17 carries into d + 1 with N = 10^16.
4. The digits of N come from a table of 4-digit groups, whose entries
   also hold the index of their last nonzero digit, and the ``%g`` rule
   lays them out: fixed notation when -4 <= d < 17, else ``d.ddd`` with
   an exponent of at least two digits; trailing zeros and a bare point
   go.  The cells are shifted and masked as whole arrays (Adams, *Ryu
   revisited: printf floating point conversion*, OOPSLA 2019, generates
   digits at fixed precision alike).  A negative value's sign takes byte
   0 and a positive value has no byte for it, and the exponent follows
   the last digit kept.  So every hole trails the text, and byte 23 is
   always a hole: the longest fast-path texts have 23 bytes, ``-0.000``
   and 17 digits, or a sign, ``d.``, 16 digits and ``e-dd``.

**Error bound.**  ``T_lo`` is within 2^-53 |T_lo| <= 2^-106 10^s of
``10^s - T_hi``, which costs |v| 2^-106 10^s <= 2^-49 of P.  The product
|v| T_lo is rounded once, by at most 2^-53 * 2^-53 P <= 2^-49, and so is
the sum e + |v| T_lo, whose size is at most ulp(p)/2 + 2^-53 P <= 24, by
at most 2^-48.  So the computed P is within 2^-46 of the exact one, for
every P < 2^57.  The rounding of P can only be wrong when its fraction
lies within that much of 1/2; the floor can only be wrong by one at an
integer, where the rounding is right either way and the range check
either gives the same digits or sends the value to the fallback.

**Fallback.**  Python's ``"%.17g"`` writes the cell of every value whose
fraction of P lies within 2^-30 of 1/2 (a near tie; exact ties round half
to even), that is zero, non-finite or subnormal, that lies outside
[1e-30, 1e30), or whose exponent two corrections did not settle.  These
texts start at byte 0 too.  All but one kind fit in 23 bytes: a negative
value with 17 digits and a three-digit exponent fills all 24
(``-1.2345678901234567e-100``, ``-4.9406564584124654e-324``).

**Tables.**  A row of ``table`` is one slot per field, each a multiple
of 8 bytes.  A float field's slot is its cell, with the byte that ends
the field in byte 23; a bytes field's slot holds its text, NUL padding
and, in its last byte, that end byte.  The float fields of a call go
through the kernel in one pass, the values in row order, and each run
of adjacent float fields is copied into its slots at once.  One mask
then drops the NUL bytes of every slot, and the call's text is decoded
once.  A row with a 24-byte text has no free byte for an end, so ``%``
writes that row on its own.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Union

import numpy as np

#: Bytes of one formatted value: the longest ``%.17g`` text.
WIDTH = 24

_LO, _HI = 1e-30, 1e30
#: Decimal exponents the tables cover: those of [_LO, _HI) and one more each way.
_D_MIN, _D_MAX = -31, 31
_N_D = _D_MAX - _D_MIN + 1
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_E16, _E17 = 10**16, 10**17


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: x = hi + lo exactly, each with at most 26 significant bits."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


def _pow10_tables() -> tuple[np.ndarray, ...]:
    """10^(16 - d) for d in [_D_MIN, _D_MAX] as T_hi (split in two) and T_lo.

    Python's int true division rounds correctly, so ``num / den`` is the
    double nearest 10^s and the remainder of the exact ratio gives T_lo.
    """
    hi, lo = [], []
    for d in range(_D_MIN, _D_MAX + 1):
        s = 16 - d
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    t_hi = np.array(hi)
    return (*_split(t_hi), t_hi, np.array(lo))


def _templates(rows: list[bytes]) -> np.ndarray:
    """(3, len(rows)) little-endian words of 24-byte cell templates."""
    return np.frombuffer(b"".join(r.ljust(WIDTH, b"\0") for r in rows), "<u8").reshape(-1, 3).T.copy()


def _layout_tables() -> tuple[np.ndarray, ...]:
    """The layout of a cell by exponent d and sign s.

    Digit k of the 17 sits at byte s + k, after a negative value's sign.
    The bytes from ``at`` on move up by ``bits`` / 8 bytes, and ``fill``
    fills the gap: the sign, and a point after the integer digits or
    ``0.`` and zeros in front of a value below 1.  ``trim`` masks a cell
    whose last nonzero digit is digit k to its text, whose length is
    ``end``; the exponent text ``expo`` follows it, 0 in fixed notation.
    ``low`` (the bytes below ``at``) and ``fill`` are indexed by
    j = d - _D_MIN + _N_D s, ``trim`` and ``end`` by 17 j + k, and
    ``bits`` and ``expo`` by d - _D_MIN.
    """
    at, by, keep, fill, expo = [], [], [], [], []
    for d in range(_D_MIN, _D_MAX + 1):
        if -4 <= d < 0:
            at.append(0), by.append(1 - d), keep.append(-1)
            fill.append(b"0." + b"0" * (-1 - d))
            expo.append(0)
        else:
            fixed = 0 <= d <= 16
            q = d if fixed else 0
            at.append(q + 1), by.append(1), keep.append(q)
            fill.append(b"\0" * (q + 1) + b".")
            expo.append(0 if fixed else int.from_bytes(b"e%+03d" % d, "little"))
    end = [s + kept + 1 + (kept > q) * b
           for s in (0, 1) for q, b in zip(keep, by) for kept in (max(k, q) for k in range(17))]
    return (_LOW[:, [s + a for s in (0, 1) for a in at]], (8 * np.array(by)).astype(np.uint64),
            _templates(fill + [b"-" + f for f in fill]),
            _LOW[:, end], np.array(end), np.array(expo * 2, dtype=np.uint64))


def _digit_tables() -> np.ndarray:
    """The 4-digit group j of N with value v, at index 10000 j + v.

    The low 32 bits hold the ASCII of v, and the bits above the index of
    its last nonzero digit among the 17 of N, one of 4 j + 1 .. 4 j + 4,
    or 0 if v = 0.
    """
    digit = np.arange(10)
    places = [digit.reshape((10,) + (1,) * (3 - j)) for j in range(4)]  # thousands to units
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    last = np.zeros((10, 10, 10, 10), dtype=np.int64)  # within the group: 1..4, or 0 for v = 0
    for k, place in enumerate(places):
        chars[..., k] = place + ord("0")
        last = np.maximum(last, (k + 1) * (place != 0))
    last = last.ravel()
    ascii = chars.reshape(10000, 4).view("<u4").ravel().astype(np.uint64)
    return np.concatenate([ascii | np.where(last > 0, last + 4 * j, 0).astype(np.uint64) << np.uint64(32)
                           for j in range(4)])


_T_HH, _T_HL, _T_HI, _T_LO = _pow10_tables()
#: _LOW[j]: the words with bytes 0..j-1 set.
_LOW = _templates([b"\xff" * j for j in range(WIDTH + 1)])
_LOW_AT, _BITS, _FILL, _TRIM, _END, _EXPO = _layout_tables()
_DIGITS4 = _digit_tables()
_GROUP = np.array([[0], [10000], [20000], [30000]])
_ASCII = np.uint64(0xFFFFFFFF)


def _scaled(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^(16 - d)) as int64 and the fraction left over."""
    i = d - _D_MIN
    t_hi = _T_HI.take(i, mode="clip")
    p = a * t_hi
    ah, al = _split(a)
    th, tl = _T_HH.take(i, mode="clip"), _T_HL.take(i, mode="clip")
    e = ((ah * th - p) + ah * tl + al * th) + al * tl
    lo = e + a * _T_LO.take(i, mode="clip")
    fl = np.floor(lo)
    return p.astype(np.int64) + fl.astype(np.int64), lo - fl


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N, d and the mask of the values the fast path formats, for positive a (steps 1-3)."""
    fast = (a >= _LO) & (a < _HI)
    a = np.where(fast, a, 1.0)
    d = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, d)
    bad = ((n < _E16) | (n >= _E17)).nonzero()[0]
    for _ in range(2):
        if not len(bad):
            break
        d[bad] += np.where(n[bad] < _E16, -1, 1)
        n[bad], frac[bad] = _scaled(a[bad], d[bad])
        bad = bad[(n[bad] < _E16) | (n[bad] >= _E17)]
    fast[bad] = False
    fast &= np.abs(frac - 0.5) >= _TIE
    n += frac > 0.5
    carry = n == _E17
    n[carry] = _E16
    d += carry
    return n, np.minimum(np.maximum(d, _D_MIN, out=d), _D_MAX, out=d), fast


def _digit_words(n: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of N as (3, n) words, and the index of the last nonzero digit.

    s is 1 for a negative value and 0 otherwise; digit k sits at byte s + k.
    """
    hi8 = n // 10**8
    lo8 = n - hi8 * 10**8
    lead = hi8 // 10**8
    hi8 -= lead * 10**8
    groups = np.empty((4, len(n)), dtype=np.int64)
    np.floor_divide(hi8, 10**4, out=groups[0])
    np.floor_divide(lo8, 10**4, out=groups[2])
    np.subtract(hi8, groups[0] * 10**4, out=groups[1])
    np.subtract(lo8, groups[2] * 10**4, out=groups[3])
    groups += _GROUP
    g = _DIGITS4.take(groups, mode="clip")
    # The last-digit indices sit above the ASCII, so the largest word holds the largest.
    last = (g.max(axis=0) >> np.uint64(32)).view(np.int64)
    g &= _ASCII
    # Group 0 from byte s + 1 on, group 1 across the first two words from byte s + 5, and so on.
    s8 = s.view(np.uint64) << np.uint64(3)
    up1 = s8 + np.uint64(8)
    up5 = s8 + np.uint64(40)
    down = np.uint64(24) - s8
    words = np.empty((3, len(n)), dtype=np.uint64)
    lead += ord("0")
    np.left_shift(lead.view(np.uint64), s8, out=words[0])
    words[0] |= np.left_shift(g[0], up1, out=g[0])
    words[0] |= np.left_shift(g[1], up5, out=g[0])
    np.right_shift(g[1], down, out=words[1])
    words[1] |= np.left_shift(g[2], up1, out=g[2])
    words[1] |= np.left_shift(g[3], up5, out=g[2])
    np.right_shift(g[3], down, out=words[2])
    return words, last


def _lay_out(words: np.ndarray, last: np.ndarray, d: np.ndarray, s: np.ndarray) -> None:
    """Lay the digit words out by the %g rule for exponent d, in place (step 4)."""
    i = d - _D_MIN
    j = i + _N_D * s
    low = _LOW_AT.take(j, axis=1, mode="clip")
    low &= words
    words ^= low  # the bytes from at on, to be shifted up
    bits = _BITS.take(i)
    carry = np.right_shift(words[:-1], np.uint64(64) - bits)
    words <<= bits
    words[1:] |= carry
    words |= low
    words |= _FILL.take(j, axis=1, mode="clip", out=low)
    j *= 17
    j += last
    words &= _TRIM.take(j, axis=1, mode="clip", out=low)
    sci = ((d < -4) | (d > 16)).nonzero()[0]
    if len(sci):
        # The exponent from byte end on: in one word, or across two when it starts past byte 4 of one.
        expo, at = _EXPO.take(i[sci]), _END.take(j[sci]).astype(np.uint64)
        word, shift = at >> np.uint64(3), (at & np.uint64(7)) << np.uint64(3)
        words[word, sci] |= expo << shift
        words[np.minimum(word + np.uint64(1), np.uint64(2)), sci] |= expo >> (np.uint64(64) - shift)


def _cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of v as (3, len(v)) words, and the indices of the 24-byte ones."""
    s = np.signbit(v).view(np.int8).astype(np.int64)
    n, d, fast = _significand(np.abs(v))
    words, last = _digit_words(n, s)
    _lay_out(words, last, d, s)
    slow = (~fast).nonzero()[0]
    if not len(slow):
        return words, slow
    text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype=f"S{WIDTH}")
    cells = text.view("<u8").reshape(-1, 3)
    words[:, slow] = cells.T
    return words, slow[cells[:, 2] >> np.uint64(56) != 0]  # byte 23 taken


Field = Union[np.ndarray, bytes]


def table(fields: Sequence[Field], ends: bytes) -> str:
    """ASCII text of rows that are ``fields[0] ends[0] fields[1] ends[1] ...``.

    A field is a float ndarray, written as ``%.17g``; a bytes (``S``)
    ndarray, written as it is; or ``bytes``, the same text on every row.
    At least one field is an array; the arrays hold one value a row and
    are equally long.  ``ends[j]`` is the byte after field j, or NUL for
    none.  NUL bytes in a field's text are dropped with the padding.  The
    work arrays grow with the rows, so a caller with many rows passes them
    a block at a time.
    """
    n = next(len(f) for f in fields if isinstance(f, np.ndarray))
    floats = [j for j, f in enumerate(fields) if isinstance(f, np.ndarray) and f.dtype.kind == "f"]
    width = [WIDTH - 1 if j in floats else f.dtype.itemsize if isinstance(f, np.ndarray) else len(f)
             for j, f in enumerate(fields)]
    # A slot holds its field's text (a float's takes up to 23 bytes) and, in its last byte, the field's end.
    slots = [(f if isinstance(f, bytes) else b"").ljust(-(-(w + 1) // 8) * 8 - 1, b"\0") + bytes([end])
             for f, w, end in zip(fields, width, ends)]
    offset = list(itertools.accumulate(map(len, slots), initial=0))
    rows = np.empty((n, offset[-1]), dtype=np.uint8)
    template = np.frombuffer(b"".join(slots), np.uint8)
    for j, f in enumerate(fields):
        if j not in floats:
            cells = rows[:, offset[j] : offset[j + 1]]
            cells[...] = template[offset[j] : offset[j + 1]]
            if isinstance(f, np.ndarray):
                cells[:, : width[j]] = np.ascontiguousarray(f).view(np.uint8).reshape(n, width[j])
    long = []
    if floats:
        values = np.empty((n, len(floats)))
        for k, j in enumerate(floats):
            values[:, k] = fields[j]
        words, cut = _cells(values.ravel())
        words = words.reshape(3, n, len(floats))
        words[2] |= np.array([ends[j] << 56 for j in floats], dtype=np.uint64)
        # One copy for each run of adjacent float fields.
        for _, run in itertools.groupby(enumerate(floats), lambda kj: kj[1] - kj[0]):
            (k, j), m = next(run), 1 + sum(1 for _ in run)
            cells = rows[:, offset[j] : offset[j + m]].view("<u8").reshape(n, m, 3)  # a view: the slot bytes are contiguous
            cells[...] = words[:, :, k : k + m].transpose(1, 2, 0)
        long = list(dict.fromkeys((cut // len(floats)).tolist()))
    pieces, start = [], 0
    for r in long + [n]:
        block = rows[start:r]
        pieces.append(str(block[block != 0], "ascii"))
        if r < n:
            pieces.append(_row_text(fields, ends, r))
        start = r + 1
    return "".join(pieces)


def _row_text(fields: Sequence[Field], ends: bytes, r: int) -> str:
    """Row r of ``table`` written with ``%``: a row whose float text fills all 24 bytes of its cell."""
    out = b""
    for f, end in zip(fields, ends):
        if isinstance(f, np.ndarray):
            f = b"%.17g" % f[r] if f.dtype.kind == "f" else f[r]
        out += (f + bytes([end])).replace(b"\0", b"")
    return out.decode("ascii")
