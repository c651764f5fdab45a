"""Every CLI output byte against a committed table of SHA-256 digests.

Each case runs ``cli.run`` in this process, with standard output and
standard error captured and ``figures`` writing into a fresh directory,
and records the exit code, the digest of standard output, standard error
as text and, for ``figures``, the digest of each file.  The cases cover
every subcommand and format at k in ``KS``, leaves of all four fields at
steps 1e-3 and 0.3 and next to a closed leaf, ``cones`` with a band,
without one and inside the strips, ``verify`` and a few argument errors.

A change that moves bytes regenerates the table with

    PYTHONPATH=src python tests/test_output_digests.py --write

and says which keys moved and why.  The last bits of an output follow
numpy's and libm's functions, so the table records the numpy version and
machine it was written on, and on another platform the test skips.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hypermap import cli

TABLE = Path(__file__).with_name("output_digests.json")
KS = ("0.6", "1", "10", "100", "1e4")
FIELDS = ("E1", "F1", "E-1", "F-1")
#: 5e-11 above delta^*(10) = 0.25126652816307454: a start on the closed leaf
#: of F1 (y) and of E-1 (ytilde = y at x = 0).
NEAR_CLOSED = "0.25126652821307454"


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for k in KS:
        at = ["--k", k]
        out += [["constants", *at], ["field", *at], ["field", *at, "--time", "backward"]]
        out += [["tangency", *at, "--format", fmt] for fmt in ("csv", "svg")]
        out += [["leaf", *at, "--field", field, "--format", fmt, *step]
                for field in FIELDS for fmt in ("csv", "svg")
                for step in (["--step", "1e-3", "--max-arc", "2"], ["--step", "0.3"])]
        out += [["cones", *at, "--format", fmt] for fmt in ("txt", "csv")]
        out.append(["figures", *at])
    out += [
        ["constants", "--k", "10", "--m", "3"],
        ["constants", "--k", "1e4", "--m", "5"],
        ["constants", "--k", "0.05"],
        ["leaf", "--k", "10", "--field", "F1", "--y", NEAR_CLOSED],
        ["leaf", "--k", "10", "--field", "E-1", "--y", NEAR_CLOSED, "--format", "svg"],
        ["leaf", "--k", "10", "--field", "E-1", "--y", NEAR_CLOSED, "--max-arc", "0.5"],
        ["cones", "--k", "10", "--m", "9"],
        ["cones", "--k", "10", "--inside-strip", "--samples", "5000"],
        ["cones", "--k", "10", "--inside-strip", "--samples", "5000", "--format", "csv"],
        ["verify"],
        ["verify", "--k-list", ",".join(KS[:4])],
        ["verify", "--k-list", KS[4]],
        ["verify", "--k-list", "1,x"],
        ["field", "--grid", "0"],
        ["leaf", "--y", "inf"],
        ["leaf", "--step", "nan"],
        ["tangency", "--k", "0.3"],
        ["constants", "--k", "2e153"],
        ["leaf", "--x", "-2.5e-3"],
        ["leaf", "--y", "-1e20", "--step", "0.3"],
        ["leaf", "--y", "-inf"],
        ["constants", "--k", "-1e-3"],
    ]
    return out


def platform_id() -> dict[str, str]:
    return {"machine": platform.machine(), "numpy": np.__version__}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """Exit code, stdout digest and stderr of one run in the current directory, plus the figure files."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    entry = {"exit": code, "stdout": digest(out.getvalue().encode()), "stderr": err.getvalue()}
    if argv[0] == "figures" and code == 0:
        entry["files"] = {name: digest(Path("figures", name).read_bytes())
                          for name in sorted(os.listdir("figures"))}
    return entry


def table() -> dict[str, dict]:
    """The record of every case, each run in a directory of its own."""
    here = os.getcwd()
    records = {}
    try:
        for argv in cases():
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                records[" ".join(argv)] = record(argv)
    finally:
        os.chdir(here)
    return records


def test_every_output_matches_the_table():
    written = json.loads(TABLE.read_text())
    if written["platform"] != platform_id():
        pytest.skip(f"digests written on {written['platform']}, not comparable on {platform_id()}")
    want, got = written["cases"], table()
    moved = sorted(key for key in want.keys() & got.keys() if want[key] != got[key])
    assert not moved, "outputs moved: " + "; ".join(f"{key}: {want[key]} -> {got[key]}" for key in moved)
    assert sorted(got) == sorted(want), "cases differ from the table; regenerate it with --write"


def test_keys_are_distinct():
    keys = [" ".join(argv) for argv in cases()]
    assert len(keys) == len(set(keys))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    TABLE.write_text(json.dumps({"platform": platform_id(), "cases": table()}, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(cases())} cases")
