"""``numfmt.table``, ``cli._csv`` and ``ConeReport.to_text`` against Python's per-number ``%.17g``.

Every line of ``table([values], b"\n")`` must be exactly ``"%.17g" % v``,
and every cell of the kernel ``_cells`` that text padded with NULs;
``_csv`` must give the bytes of the per-cell render that ``reference_csv``
keeps, and ``to_text`` the text of one f-string a line.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermap import cli, numfmt
from hypermap.hyperbolicity import ConeReport, verify_cones
from hypermap.stdmap import MapParams
from test_render_reference import reference_csv


def formatted(values) -> list[str]:
    lines = numfmt.table([np.asarray(values, dtype=np.float64)], b"\n").split("\n")
    assert len(lines) == len(values) + 1 and lines[-1] == ""
    return lines[:-1]


def assert_exact(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for v, got in zip(values.tolist(), formatted(values)):
        assert got == "%.17g" % v, (v, v.hex())


def assert_exact_bulk(values: np.ndarray) -> None:
    """Same as assert_exact, comparing one joined text first for speed."""
    got = numfmt.table([values], b"\n")
    if got != ("%.17g\n" * len(values)) % tuple(values.tolist()):
        assert_exact(values)


def cell_bytes(values: np.ndarray) -> np.ndarray:
    """The kernel's cells of values as (n, WIDTH) bytes."""
    words, _ = numfmt._cells(values)
    return np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)


def bits(patterns) -> np.ndarray:
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


def neighbours(x: float, ulps: int = 2) -> list[float]:
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def powers_of_ten() -> list[float]:
    return [v for e in range(-330, 309) for v in neighbours(float(f"1e{e}"))]


def edge_values() -> list[float]:
    tiny = 5e-324
    smallest_normal = 2.2250738585072014e-308
    borders = [1e-5, 1e-4, 1e16, 1e17, numfmt._LO, numfmt._HI, 1.0, 0.1, 9.5, 99.5]
    values = [0.0, math.inf, math.nan, tiny, smallest_normal, math.nextafter(smallest_normal, 0.0),
              1.7976931348623157e308, 1 / 3, 2 / 3, 0.1 + 0.2]
    for b in borders:
        values += neighbours(b, 4)
    # The 18th significant digit is an exact 5: m + 1/4 and m + 3/4 with 16
    # integer digits, and j / 2^18, whose 18 decimals are all significant.
    values += [m + f for m in (1234567890123456.0, 2000000000000001.0, 1000000000000000.0) for f in (0.25, 0.75)]
    values += [j / 2**18 for j in range(26215, 27000, 2)]
    # Near ties: the 18th digit is 5 followed by a little more or less.
    values += [math.nextafter(v, s) for v in values[-400:] for s in (0.0, math.inf)]
    return values + [-v for v in values]


class TestG17:
    """``%.17g`` through one float column of ``numfmt.table``, a value a line."""

    def test_edge_values(self):
        assert_exact(edge_values())

    def test_powers_of_ten_and_neighbours(self):
        assert_exact(powers_of_ten())

    def test_edge_values_reach_every_branch(self):
        # Guards on this test's own data: the fast range must hold a value
        # that rounds up to the power of ten above it (the carry) and one
        # just below a power of ten that does not (the exponent correction).
        texts = {v: "%.17g" % v for v in map(abs, edge_values() + powers_of_ten())
                 if numfmt._LO <= v < numfmt._HI}
        carries = [v for v, t in texts.items()
                   if t.startswith("1e") and Fraction(v) < Fraction(10) ** int(t[2:])]
        assert carries
        assert [t for t in texts.values() if t.startswith("9.999999999999999")]

    def test_width_holds_every_text(self):
        worst = [-2.2250738585072014e-308, -1.2345678901234567e-100, -1.2345678901234567e-5]
        assert_exact(worst)
        assert max(len("%.17g" % v) for v in worst) == numfmt.WIDTH

    def test_rows_outlive_later_calls_and_threads(self):
        # table keeps no state between calls: texts from interleaved calls
        # on several threads stay each call's own.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(3)
        batches = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n) for n in (5, 8192, 20000, 777)]
        want = [("%.17g\n" * len(b)) % tuple(b.tolist()) for b in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(lambda b: numfmt.table([b], b"\n"), batches * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, expected in zip(texts, want * 4):
            assert got == expected

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        assert_exact_bulk(bits(rng.integers(0, 2**64, 10**6, dtype=np.uint64)))

    def test_random_values_in_fast_range(self):
        # Uniform bit patterns fall in [1e-30, 1e30) only one time in ten;
        # binary exponents within +-99 keep every value there.
        rng = np.random.default_rng(7)
        n = 3 * 10**5
        mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
        exponent = rng.integers(1023 - 99, 1023 + 99, n).astype(np.uint64)
        sign = rng.integers(0, 2, n).astype(np.uint64)
        assert_exact_bulk(bits(sign << 63 | exponent << 52 | mantissa))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, patterns):
        assert_exact(bits(patterns))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=64))
    def test_any_float(self, values):
        assert_exact(values)


class TestCsv:
    CFG = cli._build_parser().parse_args(["field", "--k", "2"])
    NAMES = ["s", "none", "ints", "int_array", "floats", "bytes"]

    def table(self, n: int):
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-40, 40, n)
        floats[::7] = 0.0
        return [
            [f"row{i}" for i in range(n)],
            [None] * n,
            list(range(-n, n, 2)),
            rng.integers(-(2**62), 2**62, n),
            floats,
            np.array([b"", b"curve", b"P1"] * n, dtype="S")[:n],
        ]

    def reference(self, columns) -> str:
        rows = [[v.decode() if isinstance(v, bytes) else v for v in row] for row in zip(*columns)]
        return reference_csv(cli._header(self.CFG), self.NAMES, rows)

    @pytest.mark.parametrize("n", [0, 1, 2, 17, cli._CSV_BLOCK + 3])
    def test_mixed_table_matches_per_cell_render(self, n):
        columns = self.table(n)
        assert cli._csv(self.CFG, self.NAMES, columns) == self.reference(columns)


def reference_text(rep: ConeReport) -> str:
    """``ConeReport.to_text`` with every line an f-string, as it was before ``numfmt``."""
    lines = [
        f"k {rep.k:.17g}",
        f"m {rep.m}",
        f"samples {rep.samples}",
        f"seed {rep.seed}",
        f"region {'inside' if rep.inside_strip else 'outside'} Delta^(m)",
        f"failures {rep.failures}",
        f"slope_failures {rep.slope_failures}",
        f"norm_failures {rep.norm_failures}",
        f"min_norm {rep.min_norm:.17g}",
        f"slope_min {rep.slope_range[0]:.17g}",
        f"slope_max {rep.slope_range[1]:.17g}",
    ]
    for y, theta in rep.failure_records:
        lines.append(f"failure y={y:.17g} theta={theta:.17g}")
    return "\n".join(lines)


class TestConeReportText:
    """``ConeReport.to_text`` formats its failure records through ``numfmt.table``."""

    @pytest.mark.parametrize("sweep, records", [
        ((MapParams(100.0), 2, 20_000, 29, False), 0),
        ((MapParams(100.0), 2, 20_000, 3, False), 1),
        ((MapParams(25.0), 2, 10_000, 42, True), 1000),
    ])
    def test_sweeps_match_the_f_string_text(self, sweep, records):
        rep = verify_cones(*sweep)
        assert len(rep.failure_records) == records
        assert rep.to_text() == reference_text(rep)

    def test_values_outside_the_fast_path_match(self):
        tiny = float(np.finfo(np.float64).smallest_subnormal)
        values = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072009e-308, 1e-300, -1e-300, 1e300, -1e300,
                  0.25, 1e-30, 1e30, math.inf, -math.inf, math.nan]
        for n in (1, 2, len(values)):
            records = np.column_stack((values[:n], values[::-1][:n]))
            rep = ConeReport(k=1e300, m=2, samples=n, failures=n, slope_failures=0, norm_failures=n,
                             min_norm=tiny, slope_range=(-1e-300, 1e300), seed=0, inside_strip=True,
                             failure_records=records)
            assert rep.failure_records.shape == (n, 2) and rep.failure_records.tobytes() == records.tobytes()
            assert rep.to_text() == reference_text(rep)


#: %.17g texts that fill all 24 bytes of a cell: negative, 17 digits and a
#: three-digit exponent (normal, smallest normal, subnormal, smallest
#: subnormal, largest double); then the other values outside the fast path
#: (signed zeros, infinities, nan, subnormals, the range ends) and a few
#: fast-path texts in exponent notation.
LONG = [-1.2345678901234567e-100, -2.2250738585072014e-308, -2.2250738585072009e-308, -5e-324,
        -1.7976931348623157e308]
SPECIAL = LONG + [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
                  1e-300, -1e-300, 1.7976931348623157e308, 1e-30, -1e30, 1e-5, -1e17, -1.2345678901234567e-25]


class TestCells:
    """The cell layout ``table`` relies on: text from byte 0 on, NUL holes after it."""

    def test_long_texts_fill_the_cell(self):
        assert {len("%.17g" % v) for v in LONG} == {numfmt.WIDTH}
        assert max(len("%.17g" % v) for v in SPECIAL[len(LONG):]) < numfmt.WIDTH

    def test_text_from_byte_0_then_nul_padding(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([SPECIAL, edge_values(), bits(rng.integers(0, 2**64, 10**5, dtype=np.uint64)),
                                 rng.normal(size=10**5) * 10.0 ** rng.integers(-35, 35, 10**5)])
        rows = cell_bytes(values)
        for v, row in zip(values.tolist(), rows):
            text = ("%.17g" % v).encode()
            assert bytes(row) == text.ljust(numfmt.WIDTH, b"\0"), (v, bytes(row))

    def test_long_cells_are_reported(self):
        values = np.array(SPECIAL + [1.5, -2.5] + LONG)
        words, long = numfmt._cells(values)
        assert long.tolist() == [i for i, v in enumerate(values.tolist()) if len("%.17g" % v) == numfmt.WIDTH]


class TestTable:
    """``numfmt.table`` through ``cli._csv``, row by row against ``reference_csv``."""

    CFG = TestCsv.CFG

    def assert_rows_match(self, names, columns):
        got = cli._csv(self.CFG, names, columns).split("\n")
        rows = [[v.decode() if isinstance(v, bytes) else v for v in row]
                for row in zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])]
        want = reference_csv(cli._header(self.CFG), names, rows).split("\n")
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (i, g, w)

    @staticmethod
    def floats(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)

    def test_special_values_in_every_float_column(self):
        # The field layout: five float columns.  Row r holds SPECIAL[r // 5] in column r % 5.
        n = 5 * len(SPECIAL)
        columns = [self.floats(n, seed) for seed in range(5)]
        for r in range(n):
            columns[r % 5][r] = SPECIAL[r // 5]
        self.assert_rows_match(["a", "b", "c", "d", "e"], columns)

    def test_special_values_next_to_bytes_columns(self):
        # The tangency layout: bytes columns before, between and after the float columns.
        n = 4 * len(SPECIAL)
        kind = np.array([b"curve", b"landmark"] * n, dtype="S")[:n]
        name = np.array([b"", b"P1", b"", b"P12"] * n, dtype="S")[:n]
        branch = np.array([b"lower", b"upper"] * n, dtype="S")[:n]
        floats = [self.floats(n, seed) for seed in range(4)]
        for r in range(n):
            floats[r % 4][r] = SPECIAL[r // 4]
        columns = [kind, name, *floats[:3], branch, floats[3]]
        self.assert_rows_match(["kind", "name", "ytilde", "y", "x", "branch", "residual"], columns)

    @pytest.mark.parametrize("n", [cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
    def test_block_edges(self, n):
        # Long and special cells on the first and last rows of each block of rows.
        x, y = self.floats(n, 1), self.floats(n, 2)
        block = cli._CSV_BLOCK
        edges = sorted({r for b in range(0, n, block) for r in (b, min(b + block, n) - 1)})
        for k, r in enumerate(edges):
            x[r], y[r] = SPECIAL[k % len(SPECIAL)], LONG[k % len(LONG)]
        seg = np.array([b"%d" % (i // 7) for i in range(n)], dtype="S")
        self.assert_rows_match(["seg_id", "x", "y"], [seg, x, y])

    def test_blocks_choose_their_slot_widths(self):
        # Three blocks of rows with 24-byte texts only in the middle one, in the float column before
        # the bytes column and in the last column: only the middle block's float slots are 32 bytes.
        block = cli._CSV_BLOCK
        y, residual = self.floats(3 * block, 3), self.floats(3 * block, 4)
        for k, r in enumerate(range(block, 2 * block - 1, 97)):
            y[r], residual[r + 1] = LONG[k % len(LONG)], LONG[-1 - k % len(LONG)]
        branch = np.array([b"lower", b"upper"] * block + [b"landmark"] * block, dtype="S")
        for column in (y, residual):
            assert [len(numfmt._cells(column[b : b + block])[1]) > 0 for b in range(0, 3 * block, block)] == [
                False, True, False]
        self.assert_rows_match(["y", "branch", "residual"], [y, branch, residual])

    def test_labels_and_missing_ends(self):
        # The cone report's failure lines: fixed labels and no byte after a field whose end is NUL.
        y = np.array(SPECIAL + SPECIAL[::-1])
        theta = np.array(SPECIAL[::-1] + SPECIAL)
        got = numfmt.table([b"failure y=", y, b" theta=", theta], b"\0\0\0\n")
        assert got == "".join(f"failure y={a:.17g} theta={b:.17g}\n" for a, b in zip(y.tolist(), theta.tolist()))
