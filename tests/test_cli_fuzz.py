"""Bounded fuzz of every subcommand: an exit code in {0, 1, 2}, never a traceback.

Arguments are drawn around and beyond their valid ranges (k in (0, 1e4]
and nan, inf, 0, -1, 1e300; small grids and sample counts so that one
example stays in milliseconds) and run in this process, so that an
uncaught exception fails the test where the command line would print a
traceback.  Exit 2 must name a flag the subcommand takes.
"""

import argparse
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermap import ParameterError, cli

SPECIAL = ["nan", "inf", "-inf", "0", "-1", "1e300"]


def real(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(SPECIAL))


K = st.one_of(st.floats(0.0, 1e4, exclude_min=True).map(repr), st.sampled_from(SPECIAL))
OPTIONS = {
    "--k": K,
    "--grid": st.integers(-2, 300).map(str),
    "--samples": st.integers(-2, 2000).map(str),
    "--m": st.integers(-2, 12).map(str),
    "--step": real(1e-3, 3.0),
    "--max-arc": real(1e-3, 20.0),
    "--x": real(-3.0, 3.0),
    "--y": real(-3.0, 3.0),
    "--seed": st.integers(-2, 2**31).map(str),
    "--format": st.sampled_from(["csv", "svg", "txt"]),
    "--time": st.sampled_from(["forward", "backward"]),
    "--field": st.sampled_from(["E1", "F1", "E-1", "F-1"]),
    "--k-list": st.lists(K, min_size=1, max_size=3).map(",".join),
    "--out": st.sampled_from(["-", "{tmp}/out"]),
    "--inside-strip": st.just(None),  # a switch: present or absent
}
#: The flags each subcommand takes; test_accepts_is_what_each_parser_takes
#: keeps this equal to the parsers.
ACCEPTS = {
    "constants": ["--k", "--m", "--out"],
    "field": ["--k", "--grid", "--time", "--out"],
    "leaf": ["--k", "--field", "--x", "--y", "--step", "--max-arc", "--format", "--out"],
    "tangency": ["--k", "--grid", "--format", "--out"],
    "cones": ["--k", "--m", "--samples", "--seed", "--inside-strip", "--format", "--out"],
    "verify": ["--k-list", "--out"],
    "figures": ["--k", "--grid", "--step", "--out"],
}


@st.composite
def invocations(draw) -> list[str]:
    sub = draw(st.sampled_from(sorted(ACCEPTS)))
    argv = [sub]
    for flag in draw(st.lists(st.sampled_from(ACCEPTS[sub]), unique=True)):
        value = draw(OPTIONS[flag])
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        if argv[0] == "figures":
            argv = argv + ["--out", tmp]
        rc = cli.run(argv)
    return rc, err.getvalue()


def test_accepts_is_what_each_parser_takes():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    takes = {
        name: sorted(flag for action in sub._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert takes == {name: sorted(flags) for name, flags in ACCEPTS.items()}


#: Inputs that must exit 2, and the flag their message must name.
NAMED = [
    (["tangency", "--grid", "8"], "--grid"),
    (["figures", "--grid", "8"], "--grid"),
    (["constants", "--k", "1e300"], "--k"),
    (["figures", "--k", "1e300"], "--k"),
    (["field", "--k", "1e300"], "--k"),
    (["cones", "--k", "5", "--m", "1"], "--m"),
    (["cones", "--k", "5", "--m", "7"], "--m"),
    (["constants", "--k", "3", "--m", "5"], "--m"),
    (["cones", "--k", "5", "--samples", "0"], "--samples"),
    (["field", "--k", "nan"], "--k"),
    (["field", "--k", "0"], "--k"),
    (["leaf", "--max-arc", "1e9"], "--max-arc"),
    (["leaf", "--field", "F1", "--k", "1e300"], "--k"),
    (["leaf", "--field", "E-1", "--k", "1e155"], "--k"),
    (["figures", "--step", "1e-7"], "--step"),
    (["tangency", "--k", "0.3"], "--k"),
    (["tangency", "--k", "1e-6"], "--k"),
    (["leaf", "--step", "1e300", "--max-arc", "1e300"], "--max-arc"),
    (["verify", "--k-list", "1e300"], "--k-list"),
    (["leaf", "--field", "E1", "--k", "1e300"], "--k"),
    (["leaf", "--field", "F-1", "--k", "1e300"], "--k"),
    (["cones", "--seed", "-1"], "--seed"),
    (["figures", "--grid", "0"], "--grid"),
    (["tangency", "--k", "1e7"], "--k"),
    (["constants", "--out", "{tmp}"], "--out"),
    (["constants", "--out", "{tmp}/missing/out.csv"], "--out"),
]


def with_named_examples(test):
    for argv, _ in NAMED:
        test = example(argv)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(invocations())
@example(["leaf", "--y", "inf"])
@example(["leaf", "--x", "nan"])
@with_named_examples
def test_every_input_ends_in_an_exit_code(argv):
    rc, err = run(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err
    if rc == 2 and not err.startswith("usage"):
        assert err.startswith("error: --"), (argv, err)
        assert err.split()[1] in ACCEPTS[argv[0]], (argv, err)


@pytest.mark.parametrize("argv, flag", NAMED, ids=[" ".join(argv) for argv, _ in NAMED])
def test_exit_2_names_the_flag(argv, flag):
    rc, err = run(argv)
    assert rc == 2 and err.startswith(f"error: {flag} "), err


@pytest.mark.parametrize("k", ["1e12", "1e150"])
@pytest.mark.parametrize("field", ["E1", "E-1"])
def test_leaf_at_huge_k_exits_0(field, k):
    # One pilot interval holds an arc of order k there; placing nodes over
    # all of it runs out of memory.
    assert run(["leaf", "--field", field, "--k", k, "--max-arc", "0.5"]) == (0, "")


#: (subcommand and flags, flag, a value that argparse's own pattern reads as a flag).
NEGATIVE = [
    (["leaf"], "--x", "-2.5e-3"),
    (["leaf"], "--y", "-1e20"),
    (["leaf"], "--y", "-inf"),
    (["leaf", "--max-arc", "1"], "--x", "-NaN"),
    (["leaf", "--max-arc", "1"], "--y", "-.5E+1"),
    (["leaf", "--field", "F-1"], "--step", "-1e-3"),
    (["constants"], "--k", "-1e-3"),
    (["verify"], "--k-list", "-1e3,2"),
    (["cones", "--k", "5"], "--seed", "-1e0"),
]


@pytest.mark.parametrize("argv, flag, value", NEGATIVE, ids=[f"{flag} {value}" for _, flag, value in NEGATIVE])
def test_negative_value_reads_as_its_equals_form(argv, flag, value):
    def outputs(args: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(args)
        return rc, out.getvalue(), err.getvalue()

    spaced = outputs(argv + [flag, value])
    assert spaced == outputs(argv + [f"{flag}={value}"])
    assert "expected one argument" not in spaced[2]


def test_figures_below_one_over_4pi(tmp_path):
    # delta^* is undefined below k = 1/(4 pi): F1 and E-1 have no closed
    # leaves there, so the figure set is drawn without them.
    for k in ("1e-6", "0.05"):
        out = tmp_path / k
        assert cli.run(["figures", "--k", k, "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 6
        assert not any('stroke="#108010"' in path.read_text() for path in files)


def test_only_a_parameter_error_exits_2(monkeypatch):
    # A plain ValueError inside a subcommand is a fault of the program: it
    # propagates instead of being reported as a bad argument.
    def fails(error):
        def call(*args, **kwargs):
            raise error
        return call

    monkeypatch.setattr(cli, "tangency_curve", fails(ValueError("not a parameter")))
    with pytest.raises(ValueError, match="not a parameter"):
        run(["tangency", "--grid", "16"])
    monkeypatch.setattr(cli, "tangency_curve", fails(ParameterError("n_samples", "is wrong")))
    assert run(["tangency", "--grid", "16"]) == (2, "error: --grid is wrong\n")


@pytest.mark.parametrize("out", ["/dev/null", "{tmp}/file"])
def test_figures_out_that_is_a_file_exits_2(out):
    # The figure directory cannot be made where --out names a file.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(err):
        out = out.replace("{tmp}", tmp)
        open(f"{tmp}/file", "w").close()
        rc = cli.run(["figures", "--k", "1", "--grid", "16", "--out", out])
    assert (rc, err.getvalue()) == (2, f"error: --out {out}: File exists\n")


@pytest.mark.parametrize("argv", [["constants"], ["figures", "--k", "1", "--grid", "16", "--out", "{tmp}"]],
                         ids=" ".join)
def test_closed_stdout_is_no_out_error(argv):
    # A reader that closed standard output is not a bad --out: the
    # BrokenPipeError reaches main, which exits 141.
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(Closed()), pytest.raises(BrokenPipeError):
        cli.run([arg.replace("{tmp}", tmp) for arg in argv])
