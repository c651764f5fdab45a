"""Exact ``%.17g`` of a float64 array, as a byte matrix.

``g17(values)`` returns an (n, 24) ``uint8`` matrix whose row i, with its
NUL bytes removed, is exactly ``"%.17g" % values[i]``.  Holes may lie
anywhere in a row, so a caller that joins rows drops every NUL with one
mask.  Rows are 24 bytes because no ``%.17g`` text is longer
(``-2.2250738585072014e-308``).

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
4. The digits of N come from a 4-digit table, and the ``%g`` rule lays
   them out: fixed notation when -4 <= d < 17, else ``d.ddd`` with an
   exponent of at least two digits; trailing zeros and a bare point go.
   Each row is three little-endian 64-bit words, shifted and masked as
   whole arrays (Adams, *Ryu revisited: printf floating point
   conversion*, OOPSLA 2019, generates digits at fixed precision alike).

**Error bound.**  ``T_lo`` is within 2^-53 |T_lo| <= 2^-106 10^s of
``10^s - T_hi``, which costs |v| 2^-106 10^s <= 2^-49 of P.  The product
|v| T_lo is rounded once, by at most 2^-53 * 2^-53 P <= 2^-49, and so is
the sum e + |v| T_lo, whose size is at most ulp(p)/2 + 2^-53 P <= 24, by
at most 2^-48.  So the computed P is within 2^-46 of the exact one, for
every P < 2^57.  The rounding of P can only be wrong when its fraction
lies within that much of 1/2; the floor can only be wrong by one at an
integer, where the rounding is right either way and the range check
either gives the same digits or sends the value to the fallback.

**Fallback.**  Python's ``"%.17g"`` writes the row of every value whose
fraction of P lies within 2^-30 of 1/2 (a near tie; exact ties round half
to even), that is zero, non-finite or subnormal, that lies outside
[1e-30, 1e30), or whose exponent two corrections did not settle.
"""

from __future__ import annotations

import threading

import numpy as np

#: Bytes of one formatted value: the longest ``%.17g`` text.
WIDTH = 24

_LO, _HI = 1e-30, 1e30
#: Decimal exponents the tables cover: those of [_LO, _HI) and one more each way.
_D_MIN, _D_MAX = -31, 31
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
    """(3, len(rows)) little-endian words of 24-byte row templates."""
    return np.frombuffer(b"".join(r.ljust(WIDTH, b"\0") for r in rows), "<u8").reshape(-1, 3).T.copy()


def _layout_tables() -> tuple[np.ndarray, ...]:
    """Per-exponent layout of a row ``sign, digits, exponent``.

    The sign sits at byte 0 and the 17 digits at bytes 1..17.  A row is
    laid out by shifting the bytes from ``at`` on up by ``by`` bytes and
    filling the gap with ``fill``: a point after the integer digits, or
    ``0.`` and zeros in front of a value below 1.  ``keep`` is the index of
    the last digit kept whatever the trailing zeros, and ``expo`` the
    exponent text from byte 19 on, in the last word.
    """
    at, by, keep, fill, expo = [], [], [], [], []
    for d in range(_D_MIN, _D_MAX + 1):
        if -4 <= d < 0:
            at.append(1), by.append(1 - d), keep.append(-1)
            fill.append(b"\0" + b"0." + b"0" * (-1 - d))
            expo.append(b"")
        else:
            fixed = 0 <= d <= 16
            q = d if fixed else 0
            at.append(q + 2), by.append(1), keep.append(q)
            fill.append(b"\0" * (q + 2) + b".")
            expo.append(b"" if fixed else b"\0" * 19 + b"e%+03d" % d)
    return (np.array(at), np.array(by), np.array(keep),
            _templates(fill), _templates(expo)[2])


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of 0000..9999 in the low half of 64-bit words, and their trailing zeros."""
    digit = np.arange(10)
    places = [digit.reshape((10,) + (1,) * (3 - j)) for j in range(4)]  # thousands to units
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j, place in enumerate(places):
        chars[..., j] = place + ord("0")
    zero = [place == 0 for place in places]
    tz = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))
    return chars.reshape(10000, 4).view("<u4").ravel().astype(np.uint64), tz.ravel()


_T_HH, _T_HL, _T_HI, _T_LO = _pow10_tables()
_AT, _BY, _KEEP, _FILL, _EXPO = _layout_tables()
_DIGITS4, _TZ4 = _digit_tables()
#: _LOW[j]: the words with bytes 0..j-1 set.
_LOW = _templates([b"\xff" * j for j in range(WIDTH + 1)])
_LOW_AT = _LOW[:, _AT]
_HIGH_AT = ~_LOW_AT
_BITS = (8 * _BY).astype(np.uint64)


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
    bad = np.flatnonzero((n < _E16) | (n >= _E17))
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
    return n, d.clip(_D_MIN, _D_MAX, out=d), fast


#: Values formatted per pass through the work words.
_BLOCK = 1 << 13


class _Workspace(threading.local):
    """One thread's work words for a pass, reused so that formatting the
    blocks of a table maps no fresh pages for them."""

    def __init__(self) -> None:
        self.i64 = np.empty((2, 4 * _BLOCK), dtype=np.int64)  # digit groups, their trailing zeros
        self.u64 = np.empty((4, 4 * _BLOCK), dtype=np.uint64)  # digits, words, high words, scratch


_WORK = _Workspace()


def _work(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A (rows, n) view of one work buffer."""
    return buf[: rows * n].reshape(rows, n)


def _digit_words(n: np.ndarray, negative: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign and the 17 digits of N as (3, n) words, and the index of the last nonzero digit."""
    hi8 = n // 10**8
    lo8 = n - hi8 * 10**8
    lead = hi8 // 10**8
    hi8 -= lead * 10**8
    groups = _work(_WORK.i64[0], 4, len(n))
    np.floor_divide(hi8, 10**4, out=groups[0])
    np.floor_divide(lo8, 10**4, out=groups[2])
    np.subtract(hi8, groups[0] * 10**4, out=groups[1])
    np.subtract(lo8, groups[2] * 10**4, out=groups[3])
    g = _DIGITS4.take(groups, mode="clip", out=_work(_WORK.u64[0], 4, len(n)))
    words = _work(_WORK.u64[1], 3, len(n))
    words[0] = negative * np.uint64(ord("-")) | (lead.astype(np.uint64) + ord("0")) << 8
    words[0] |= g[0] << 16 | g[1] << 48
    words[1] = g[1] >> 16 | g[2] << 16 | g[3] << 48
    words[2] = g[3] >> 16
    tz = _TZ4.take(groups, mode="clip", out=_work(_WORK.i64[1], 4, len(n)))
    tz_lo = tz[3] + (groups[3] == 0) * tz[2]
    tz_hi = tz[1] + (groups[1] == 0) * tz[0]
    return words, 16 - tz_lo - (lo8 == 0) * tz_hi


def _lay_out(words: np.ndarray, last: np.ndarray, d: np.ndarray) -> None:
    """Lay the digit words out by the %g rule for exponent d, in place (step 4)."""
    i = d - _D_MIN
    high = _HIGH_AT.take(i, axis=1, mode="clip", out=_work(_WORK.u64[2], 3, len(d)))
    high &= words
    scratch = _work(_WORK.u64[3], 3, len(d))
    words &= _LOW_AT.take(i, axis=1, mode="clip", out=scratch)
    bits = _BITS.take(i)
    words[1:] |= np.right_shift(high[:-1], np.uint64(64) - bits, out=scratch[:2])
    high <<= bits
    words |= high
    words |= _FILL.take(i, axis=1, mode="clip", out=scratch)
    kept = np.maximum(last, _KEEP.take(i))
    end = kept + 2 + (kept + 1 >= _AT.take(i)) * _BY.take(i)
    words &= _LOW.take(end, axis=1, mode="clip", out=scratch)
    words[2] |= _EXPO.take(i)


def g17(values: np.ndarray) -> np.ndarray:
    """(n, WIDTH) uint8 rows that are ``"%.17g" % v`` once their NULs are dropped."""
    v = np.asarray(values, dtype=np.float64).ravel()
    rows = np.empty((len(v), 3), dtype="<u8")
    for start in range(0, len(v), _BLOCK):
        _g17_block(v[start : start + _BLOCK], rows[start : start + _BLOCK])
    return rows.view(np.uint8)


def _g17_block(v: np.ndarray, rows: np.ndarray) -> None:
    n, d, fast = _significand(np.abs(v))
    words, last = _digit_words(n, np.signbit(v))
    _lay_out(words, last, d)
    rows[...] = words.T
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = ["%.17g" % x for x in v[slow].tolist()]
        rows[slow] = np.array(text, dtype=f"S{WIDTH}").view("<u8").reshape(-1, 3)


def join(columns: list[np.ndarray]) -> str:
    """ASCII text of byte-matrix columns laid side by side, NUL bytes dropped.

    Each column holds one row per line of text: a uint8 matrix such as
    ``g17`` returns, or a bytes (``S``) array.  One mask drops the NULs of
    every row at once.
    """
    block = np.hstack([col.view(np.uint8).reshape(len(col), -1) for col in columns])
    return block[block != 0].tobytes().decode("ascii")
