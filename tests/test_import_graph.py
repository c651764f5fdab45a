"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import hypermap

PACKAGE = Path(hypermap.__file__).resolve().parent

#: Left out of the graph: ``oracle`` holds the independent references, and it
#: reads the fields and leaves that it checks.  Production imports its SVD in
#: two modules: ``coordinates`` (``svd2`` in ``hyperbolic_frame``, which goes
#: away once the order-n frames get a batched SVD of their own) and ``cli``
#: (``svd2_entries`` on the ``verify`` battery's arrays, and ``svd2`` bound
#: for the benchmark's tracer).
EXCLUDED = {"oracle"}


def internal_imports(path: Path) -> set[str]:
    """Every module of the package that ``path`` imports, at any depth of its
    syntax tree (function-level imports included)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names |= {alias.name for alias in node.names}
    return {name for name in names if (PACKAGE / f"{name}.py").exists()}


def test_package_imports_are_acyclic():
    graph = {path.stem: internal_imports(path) - EXCLUDED for path in PACKAGE.glob("*.py") if path.stem not in EXCLUDED}
    assert graph["coordinates"] and graph["cli"]  # the walk sees the imports
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> None:
        assert node not in path, f"import cycle: {' -> '.join(path[path.index(node):] + [node])}"
        if node in done:
            return
        for dep in sorted(graph.get(node, ())):
            visit(dep, path + [node])
        done.add(node)

    for module in sorted(graph):
        visit(module, [])
