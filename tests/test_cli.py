"""Tests for the command-line front end: formats, determinism, exit codes."""

import argparse
import io
import math
import re
import shlex
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hypermap import __version__, cli
from hypermap.cli import run


def run_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# hypermap")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConstants:
    def test_k1_delta_star(self):
        code, out = run_capture(["constants", "--k", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        # the closed form evaluates to 0.2626786 (a linearized evaluation
        # would give 0.262665, 1.4e-5 lower)
        assert float(values["delta_star"]) == pytest.approx(0.262665, abs=5e-5)
        assert float(values["delta_star"]) == pytest.approx(
            math.acos(-1 / (4 * math.pi)) / (2 * math.pi), rel=1e-15
        )

    def test_strip_rows_with_m(self):
        code, out = run_capture(["constants", "--k", "10", "--m", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        names = [r[0] for r in rows]
        assert "delta_(3)" in names and "delta_(-3)" in names

    def test_undefined_flagged(self):
        code, out = run_capture(["constants", "--k", "0.3"])
        assert code == 0
        _, rows = parse_csv(out)
        flags = {r[0]: r[2] for r in rows}
        assert flags["delta_hat_T_plus"] == "false"
        assert flags["delta_plus"] == "true"


class TestField:
    def test_grid8_symmetry(self):
        code, out = run_capture(["field", "--k", "3", "--time", "forward", "--grid", "8"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        theta = [float(r[2]) for r in rows]
        for j in (1, 2, 3):
            assert theta[j] == pytest.approx(theta[8 - j], abs=1e-12)

    def test_header_records_parameters(self):
        _, out = run_capture(["field", "--k", "3", "--grid", "4"])
        head = out.splitlines()[0]
        assert f"hypermap {__version__}" in head
        assert "k=3" in head and "grid=4" in head
        _, out = run_capture(["cones", "--k", "25", "--samples", "100", "--seed", "99"])
        assert "seed=99" in out.splitlines()[0]


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv = ["cones", "--k", "25", "--m", "2", "--samples", "30000", "--seed", "42", "--format", "csv"]
        _, a = run_capture(argv)
        _, b = run_capture(argv)
        assert a == b

    def test_tangency_deterministic(self):
        argv = ["tangency", "--k", "2", "--grid", "64"]
        _, a = run_capture(argv)
        _, b = run_capture(argv)
        assert a == b


class TestCones:
    def test_exit_code_matches_failures(self):
        code, out = run_capture(
            ["cones", "--k", "25", "--m", "2", "--samples", "20000", "--format", "csv"]
        )
        _, rows = parse_csv(out)
        failures = int(float({r[0]: r[1] for r in rows}["failures"]))
        assert code == (0 if failures == 0 else 1)

    def test_negative_control_fails(self):
        code, out = run_capture(
            ["cones", "--k", "25", "--m", "2", "--samples", "5000", "--inside-strip", "--format", "csv"]
        )
        assert code == 1
        _, rows = parse_csv(out)
        assert int(float({r[0]: r[1] for r in rows}["failures"])) > 0

    def test_slope_failures_zero(self):
        _, out = run_capture(
            ["cones", "--k", "25", "--m", "5", "--samples", "50000", "--format", "csv"]
        )
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert int(float(values["slope_failures"])) == 0
        assert 0.8 < float(values["slope_min"]) <= float(values["slope_max"]) < 1.2


class TestLeaf:
    def test_csv_columns(self):
        code, out = run_capture(
            ["leaf", "--k", "10", "--field", "F1", "--x", "0.3", "--y", "0.2513",
             "--max-arc", "1.5", "--step", "0.001"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["seg_id", "x", "y"]
        assert len(rows) > 100
        for r in rows[:50]:
            assert 0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0

    def test_svg_parses(self):
        code, out = run_capture(
            ["leaf", "--k", "10", "--field", "E1", "--y", "0.6", "--max-arc", "1.0",
             "--format", "svg"]
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 1 1"


class TestTangencyCommand:
    def test_rows_and_landmarks(self):
        code, out = run_capture(["tangency", "--k", "2", "--grid", "64"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "name", "ytilde", "y", "x", "branch", "residual"]
        curve_rows = [r for r in rows if r[0] == "curve"]
        landmark_rows = [r for r in rows if r[0] == "landmark"]
        assert len(curve_rows) == 128  # both branches
        assert [r[1] for r in landmark_rows] == [f"P{i}" for i in range(1, 9)]
        assert all(float(r[6]) < 1e-8 for r in rows)


class TestVerify:
    def test_default_klist_passes(self):
        code, out = run_capture(["verify", "--k-list", "1,5"])
        assert code == 0
        assert "result PASS" in out
        assert "FAIL" not in out.replace("result PASS", "")


    def test_large_k_passes(self):
        # The round-trip and E1*F1 tolerances scale with the rounding bounds.
        code, out = run_capture(["verify", "--k-list", "50,200,1000"])
        assert code == 0, out
        assert "result PASS" in out


class TestFigures:
    def test_writes_svg_set(self, tmp_path):
        outdir = tmp_path / "figs"
        code, _ = run_capture(
            ["figures", "--k", "1", "--grid", "256", "--step", "0.005", "--out", str(outdir)]
        )
        assert code == 0
        names = sorted(p.name for p in outdir.glob("*.svg"))
        assert names == [
            "foliation_backward.svg",
            "foliation_forward.svg",
            "phi_backward.svg",
            "phi_forward.svg",
            "tangency_plane.svg",
            "tangency_torus.svg",
            "theta_backward.svg",
            "theta_forward.svg",
        ]
        for p in outdir.glob("*.svg"):
            ET.parse(p)  # well-formed XML

    @pytest.mark.parametrize("k", ["1", "10"])
    def test_polylines_inside_unit_square(self, tmp_path, k):
        outdir = tmp_path / "figs"
        code, _ = run_capture(["figures", "--k", k, "--grid", "256", "--out", str(outdir)])
        assert code == 0
        for path in outdir.glob("*.svg"):
            for el in ET.parse(path).iter():
                if el.tag.endswith("polyline"):
                    coords = [float(v) for pair in el.get("points").split() for v in pair.split(",")]
                    assert 0.0 <= min(coords) and max(coords) <= 1.0, path.name

    def test_forward_foliation_shows_closed_leaves(self, tmp_path):
        # The bold closed leaves sit at render height 1 - delta^* and
        # delta^* (the y axis is flipped into screen coordinates).
        outdir = tmp_path / "figs"
        run(["figures", "--k", "1", "--grid", "128", "--step", "0.01", "--out", str(outdir)])
        text = (outdir / "foliation_forward.svg").read_text()
        delta_star = math.acos(-1 / (4 * math.pi)) / (2 * math.pi)
        assert f"{1 - delta_star:.6f}" in text
        assert 'stroke="#108010"' in text


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_parser_built_once_without_leaking_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_capture(["figures", "--k", "1", "--grid", "64", "--step", "0.05"])
        assert code == 0 and (tmp_path / "figures" / "theta_forward.svg").is_file()
        # figures defaults --out to "figures"; leaf must still write to stdout.
        code, out = run_capture(["leaf", "--max-arc", "0.05"])
        assert code == 0 and out.startswith("# hypermap") and "seg_id,x,y" in out
        assert cli._build_parser() is cli._build_parser()

    def test_parse_error_message_unchanged_by_reuse(self):
        argv = ["leaf", "--field", "X9"]
        fresh = io.StringIO()
        with redirect_stderr(fresh), pytest.raises(SystemExit) as exc:
            cli._build_parser.__wrapped__().parse_args(argv)
        assert exc.value.code == 2 and "invalid choice: 'X9'" in fresh.getvalue()
        for _ in range(2):
            code, err = self.run_error(argv)
            assert code == 2 and err == fresh.getvalue()

    @staticmethod
    def run_error(argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(argv)
        return code, err.getvalue()

    def test_tangency_below_validity_names_k(self):
        code, err = self.run_error(["tangency", "--k", "0.3"])
        assert code == 2
        assert "k = 0.3" in err and "Traceback" not in err

    def test_empty_grid_rejected(self):
        for grid in ("0", "-3"):
            code, err = self.run_error(["field", "--k", "3", "--grid", grid])
            assert code == 2
            assert "grid" in err

    def test_leaf_and_figures_name_bad_step_or_arc(self, tmp_path):
        for sub, flags in ((["leaf"], ("--max-arc", "--step")),
                           (["figures", "--out", str(tmp_path / "figs")], ("--step",))):
            for flag, value in (("--max-arc", "inf"), ("--step", "nan"), ("--step", "0"),
                                ("--max-arc", "-1")):
                if flag not in flags:
                    continue
                code, err = self.run_error(sub + [flag, value])
                assert code == 2, (sub, flag, value)
                assert f"{flag} must be positive and finite" in err
        assert not (tmp_path / "figs").exists()

    def test_leaf_names_non_finite_start(self):
        for flag in ("--x", "--y"):
            for value in ("inf", "-inf", "nan"):
                code, err = self.run_error(["leaf", f"{flag}={value}"])
                assert code == 2, (flag, value)
                assert f"{flag} must be finite" in err

    def test_verify_huge_k_ends_without_traceback(self):
        # sigma_max**2 once overflowed; beyond k ~ 1e154 phi itself
        # overflows and the entry is named.
        for k in ("1e100", "1e300"):
            code, err = self.run_error(["verify", "--k-list", f"1,{k}"])
            assert code in (1, 2) and "Traceback" not in err
            assert code == 1 or f"--k-list entry {float(k):g}" in err

    def test_bad_k_list_entry_named(self):
        for k_list, entry in (("abc", "'abc'"), ("1,,2", "''"), ("2,-1", "'-1'")):
            code, err = self.run_error(["verify", "--k-list", k_list])
            assert code == 2
            assert f"--k-list entry {entry}" in err

    def test_bad_k(self):
        assert run(["constants", "--k", "-1"]) == 2

    def test_no_args(self):
        assert run([]) == 2


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def accepted_flags(sub: argparse.ArgumentParser) -> set[str]:
    return {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}


class TestEveryFlagChangesTheResult:
    """A flag a subcommand accepts must change what it does: its output
    after the header line, the files it writes, or its exit code."""

    #: A quick invocation of each subcommand, as flag -> value.
    BASE = {
        "constants": {"--k": "10"},
        "field": {"--k": "3", "--grid": "16"},
        "leaf": {"--k": "10", "--max-arc": "0.5"},
        "tangency": {"--k": "2", "--grid": "32"},
        "cones": {"--k": "25", "--samples": "3000"},
        "verify": {"--k-list": "1,5"},
        "figures": {"--k": "1", "--grid": "64", "--step": "0.02", "--out": "{tmp}/figs"},
    }
    #: Two values of each flag; True and False put a switch in or leave it
    #: out.  ``--format`` takes the first two of the subcommand's choices.
    VALUES = {
        "--k": ("10", "11"), "--m": ("2", "3"), "--grid": ("32", "33"), "--samples": ("3000", "3001"),
        "--seed": ("1", "2"), "--step": ("0.02", "0.03"), "--max-arc": ("0.5", "0.6"),
        "--time": ("forward", "backward"), "--field": ("E1", "F1"), "--x": ("0", "0.1"),
        "--y": ("0.6", "0.7"), "--inside-strip": (False, True), "--k-list": ("1,5", "1,2"),
        "--out": ("{tmp}/a", "{tmp}/b"),
    }

    @staticmethod
    def outcome(sub: str, options: dict, tmp: Path) -> tuple[int, str, dict]:
        argv = [sub]
        for flag, value in options.items():
            if value is True:
                argv.append(flag)
            elif value is not False:
                argv += [flag, value.replace("{tmp}", str(tmp))]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(argv)
        text = out.getvalue().replace(str(tmp), "{tmp}")
        body = text.split("\n", 1)[-1] if text.startswith("# hypermap") else text
        files = {p.relative_to(tmp).as_posix(): p.read_bytes() for p in tmp.rglob("*") if p.is_file()}
        return code, body, files

    @pytest.mark.parametrize("sub, flag", [(name, flag) for name, parser in subparsers().items()
                                           for flag in sorted(accepted_flags(parser))])
    def test_flag_changes_the_result(self, tmp_path, sub, flag):
        if flag == "--format":
            action = next(a for a in subparsers()[sub]._actions if flag in a.option_strings)
            values = action.choices[:2]
        else:
            values = self.VALUES[flag]
        results = []
        for i, value in enumerate(values):
            tmp = tmp_path / str(i)
            tmp.mkdir()
            results.append(self.outcome(sub, {**self.BASE[sub], flag: value}, tmp))
        assert all(code in (0, 1) for code, _, _ in results), results
        assert results[0] != results[1]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("hypermap ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    # Every file a command writes lands in a scratch directory.
    monkeypatch.chdir(tmp_path)
    code, _ = run_capture(argv)
    assert code in (0, 1)


def test_readme_lists_commands():
    assert {argv[0] for argv in readme_commands()} == set(subparsers())
