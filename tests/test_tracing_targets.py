"""The benchmark's tracer wraps module attributes of hypermap by name; every
name it lists must still resolve, or every traced benchmark run fails."""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np

from hypermap import svgrender

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.TARGETS if not hasattr(mod, attr)]
    assert tracing.TARGETS and missing == []


def test_polyline_takes_the_points_it_writes_first():
    # The tracer's svg_points hook counts len() of polyline's first positional
    # argument; that must be the number of points written.
    assert next(iter(inspect.signature(svgrender.polyline).parameters)) == "points"
    # Extra points send one value to each fallback: an exact tie of %.6f and
    # a value outside [0, 1].
    for extra in ([], [(1 / 128, 0.5)], [(-0.25, 0.5)]):
        for n in (0, 1, 2, 37):
            points = np.concatenate([np.random.default_rng(n).random((n, 2)), np.reshape(extra, (-1, 2))])
            written = re.search(r'points="([^"]*)"', svgrender.polyline(points, "#000")).group(1)
            assert len(written.split()) == len(points) == n + len(extra)
