"""The benchmark's tracer wraps module attributes of hypermap by name; every
name it lists must still resolve, or every traced benchmark run fails."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.TARGETS if not hasattr(mod, attr)]
    assert tracing.TARGETS and missing == []
