"""The benchmark's tracer wraps module attributes of hypermap by name; every
name it lists must still resolve, or every traced benchmark run fails, and
every import a module keeps only for it must still be listed."""

import ast
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np

import hypermap
from hypermap import svgrender

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets(monkeypatch) -> list:
    """``TARGETS`` of the benchmark's tracer: (module, attribute, span name)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_attribute_resolves(monkeypatch):
    targets = traced_targets(monkeypatch)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in targets if not hasattr(mod, attr)]
    assert targets and missing == []


def test_every_unused_import_is_one_the_tracer_wraps(monkeypatch):
    # A module imports a name it never reads only so that the tracer can wrap
    # it there.  Such a shim must go once the tracer stops wrapping the name.
    targets = traced_targets(monkeypatch)
    unread, shims = {}, {}
    for path in sorted(Path(hypermap.__file__).parent.glob("*.py")):
        module = "hypermap" if path.stem == "__init__" else f"hypermap.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                    for alias in node.names}
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                    for name in ast.literal_eval(node.value)}
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        calls = {node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        wrapped = {attr for mod, attr, _ in targets if mod.__name__ == module}
        unread[module] = imported - reads - exported
        shims[module] = (wrapped & imported) - calls - exported
    assert unread["hypermap.cli"] and unread["hypermap.coordinates"]  # the walk sees the shims
    assert unread == shims


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


PERFBENCH = TRACING.parent


def _dotted(node: ast.AST) -> list[str]:
    """``a.b.c`` of a chain of attribute reads on a name, or [] for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def benchmark_reads() -> set[str]:
    """Every dotted hypermap name the benchmark's sources import or read.

    The runner holds the package as ``hypermap`` and as ``self.hm``.
    """
    names = set()
    for path in PERFBENCH.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hypermap":
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
            chain = _dotted(node) if isinstance(node, ast.Attribute) else []
            if chain[:2] == ["self", "hm"]:
                chain = ["hypermap", *chain[2:]]
            if chain[:1] == ["hypermap"] and len(chain) > 1:
                names.add(".".join(chain))
    return names


def resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    names = benchmark_reads()
    # The library jobs of perfbench/run.py call these through the package.
    assert {"hypermap.MapParams", "hypermap.TorusPoint", "hypermap.no_tangency_scan",
            "hypermap.tangency_landmarks", "hypermap.orbit_expansion", "hypermap.hyperbolic_frame",
            "hypermap.cli.run"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


def test_every_exported_name_resolves():
    assert [name for name in hypermap.__all__ if not hasattr(hypermap, name)] == []
